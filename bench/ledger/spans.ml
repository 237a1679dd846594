(* Host-time spans for the traced run: every call the benchmark makes into
   a simulator layer is wrapped in [record], which keeps the span (name,
   start, end, parent, cell) in memory. Spans live only in the benchmark's
   own files; nothing inside the simulator is instrumented. When recording
   is off, [record] is one branch and a direct call. *)

type span = {
  id : int;
  name : string;
  cell : string;
  parent : int;  (** id of the enclosing span, -1 at top level *)
  t0 : float;
  mutable t1 : float;
}

let on = ref false
let spans : span list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

let record ?(cell = "") name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    let s = { id; name; cell; parent; t0 = Unix.gettimeofday (); t1 = nan } in
    spans := s :: !spans;
    open_ids := id :: !open_ids;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- Unix.gettimeofday ();
        open_ids := List.tl !open_ids)
      f
  end

let duration s = s.t1 -. s.t0

(* Self time per span name: each span's duration minus the part of it its
   direct children cover, summed over spans of that name; largest first. *)
let self_times () =
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (duration s
          +. Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.0))
    !spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        duration s
        -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0.0
      in
      Hashtbl.replace by_name s.name
        (self +. Option.value (Hashtbl.find_opt by_name s.name) ~default:0.0))
    !spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

(* Chrome trace-event JSON: one complete ("X") event per span, microsecond
   timestamps relative to the first span. *)
let to_chrome () =
  let module J = Obs.Json in
  let all = List.rev !spans in
  let origin = match all with s :: _ -> s.t0 | [] -> 0.0 in
  let us t = J.Float (Float.round ((t -. origin) *. 1e7) /. 10.0) in
  J.Obj
    [
      ( "traceEvents",
        J.List
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("name", J.Str s.name);
                   ("cat", J.Str "ledger");
                   ("ph", J.Str "X");
                   ("ts", us s.t0);
                   ("dur", J.Float (Float.round (duration s *. 1e7) /. 10.0));
                   ("pid", J.Int 1);
                   ("tid", J.Int 1);
                   ( "args",
                     J.Obj
                       [
                         ("id", J.Int s.id);
                         ("parent", J.Int s.parent);
                         ("cell", J.Str s.cell);
                       ] );
                 ])
             all) );
      ("displayTimeUnit", J.Str "ms");
    ]
