(* The event-trace sink: one fixed-capacity ring per guest thread. A sink
   is created enabled unless [~enabled:false]; enabled, it costs one ring
   push per event, disabled one bool check per instrumentation site, and
   no sink at all (the runner's default) one branch. *)

let default_capacity = 65_536

type t = {
  capacity : int;  (** per-thread ring capacity *)
  mutable enabled : bool;
  mutable rings : Event.t Ring.t option array;  (** indexed by tid *)
}

let create ?(capacity = default_capacity) ?(enabled = true) () =
  { capacity; enabled; rings = Array.make 8 None }

let enabled t = t.enabled
let set_enabled t v = t.enabled <- v

let ring_for t tid =
  if tid >= Array.length t.rings then begin
    let bigger = Array.make (max (2 * Array.length t.rings) (tid + 1)) None in
    Array.blit t.rings 0 bigger 0 (Array.length t.rings);
    t.rings <- bigger
  end;
  match t.rings.(tid) with
  | Some r -> r
  | None ->
      let r = Ring.create t.capacity in
      t.rings.(tid) <- Some r;
      r

let emit t (e : Event.t) =
  if t.enabled then Ring.push (ring_for t (max 0 e.tid)) e

let dropped t =
  Array.fold_left
    (fun acc r -> match r with Some r -> acc + Ring.dropped r | None -> acc)
    0 t.rings

let total t =
  Array.fold_left
    (fun acc r -> match r with Some r -> acc + Ring.total r | None -> acc)
    0 t.rings

(* All retained events merged across threads, timestamp-sorted (stable, so
   same-timestamp events keep per-thread order). *)
let events t =
  let all = ref [] in
  Array.iter
    (function
      | Some r -> Ring.iter (fun e -> all := e :: !all) r
      | None -> ())
    t.rings;
  List.stable_sort
    (fun (a : Event.t) (b : Event.t) -> compare (a.ts, a.tid) (b.ts, b.tid))
    (List.rev !all)

let to_chrome t : Json.t =
  Json.Obj
    [
      ("traceEvents", Json.List (List.map Event.to_chrome (events t)));
      ("displayTimeUnit", Json.Str "ns");
      ( "otherData",
        Json.Obj
          [
            ("producer", Json.Str "htm-gil simulator");
            ("droppedEvents", Json.Int (dropped t));
          ] );
    ]

let pp fmt t =
  List.iter (fun e -> Format.fprintf fmt "%a@." Event.pp e) (events t);
  let d = dropped t in
  if d > 0 then
    Format.fprintf fmt "(%d earlier events dropped by the per-thread rings)@." d
