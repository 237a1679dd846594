(* The yield-point set a run uses. Membership of each set is defined once,
   in [Rvm.Compiler.yields_original] / [yields_extended]. *)

type set = Original | Extended

let to_string = function Original -> "original" | Extended -> "extended"

let of_string s =
  match String.lowercase_ascii s with
  | "original" -> Original
  | "extended" -> Extended
  | _ ->
      invalid_arg
        (Printf.sprintf "Yield_points.of_string: %s (accepted: original, extended)" s)
