(* Plain-text table rendering for experiment results. *)

let hr fmt width = Format.fprintf fmt "%s@." (String.make width '-')

let header fmt title =
  Format.fprintf fmt "@.=== %s ===@." title

(* A series table: one row label per line, one column per x value. *)
let series_table fmt ~title ~xlabel ~rows ~xs ~cell =
  header fmt title;
  Format.fprintf fmt "%-16s" xlabel;
  List.iter (fun x -> Format.fprintf fmt "%10s" x) xs;
  Format.fprintf fmt "@.";
  hr fmt (16 + (10 * List.length xs));
  List.iter
    (fun row ->
      Format.fprintf fmt "%-16s" row;
      List.iteri
        (fun i _ ->
          match cell row i with
          | Some v -> Format.fprintf fmt "%10.2f" v
          | None -> Format.fprintf fmt "%10s" "-")
        xs;
      Format.fprintf fmt "@.")
    rows
