(* Interned symbols. Interning state is a first-class [state] value owned
   by a VM session; the domain-local slot below only holds the *active*
   state, so what a session interns is a pure function of its own program —
   independent of which other sessions ran before it, on which domain, or
   interleaved with it. [Session.create] builds a fresh state via {!fresh} and
   re-{!activate}s it on every entry into the runner. That invariant is
   what makes parallel experiment sweeps bit-identical to sequential ones:
   symbol ids feed guest hash buckets, so they must not depend on
   scheduling. *)

type state = {
  tbl : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable count : int;
}

let make_state () =
  { tbl = Hashtbl.create 256; names = Array.make 64 ""; count = 0 }

let intern_in s name =
  match Hashtbl.find_opt s.tbl name with
  | Some id -> id
  | None ->
      let id = s.count in
      s.count <- id + 1;
      if id >= Array.length s.names then begin
        let bigger = Array.make (2 * Array.length s.names) "" in
        Array.blit s.names 0 bigger 0 (Array.length s.names);
        s.names <- bigger
      end;
      s.names.(id) <- name;
      Hashtbl.add s.tbl name id;
      id

(* The names interned during module initialisation (the [s_*] constants),
   snapshotted at the bottom of this file. Fresh domains replay it so the
   constants hold the same ids everywhere. *)
let baseline = ref [||]

let dls_key =
  Domain.DLS.new_key (fun () ->
      let s = make_state () in
      Array.iter (fun n -> ignore (intern_in s n)) !baseline;
      s)

let state () = Domain.DLS.get dls_key

(* A state that starts from the pre-interned baseline, like a fresh
   domain's. *)
let fresh () =
  let s = make_state () in
  Array.iter (fun n -> ignore (intern_in s n)) !baseline;
  s

let activate s = Domain.DLS.set dls_key s
let current = state
let count () = (state ()).count

let intern name = intern_in (state ()) name

let name id =
  let s = state () in
  if id < 0 || id >= s.count then Printf.sprintf "<sym:%d>" id
  else s.names.(id)

let reset () =
  let s = state () in
  let base = Array.length !baseline in
  if s.count > base then begin
    for i = base to s.count - 1 do
      Hashtbl.remove s.tbl s.names.(i)
    done;
    s.count <- base
  end

(* Pre-interned symbols used throughout the VM. *)
let s_initialize = intern "initialize"
let s_plus = intern "+"
let s_minus = intern "-"
let s_mult = intern "*"
let s_div = intern "/"
let s_mod = intern "%"
let s_pow = intern "**"
let s_eq = intern "=="
let s_neq = intern "!="
let s_lt = intern "<"
let s_le = intern "<="
let s_gt = intern ">"
let s_ge = intern ">="
let s_aref = intern "[]"
let s_aset = intern "[]="
let s_ltlt = intern "<<"
let s_each = intern "each"
let s_times = intern "times"
let s_new = intern "new"
let s_call = intern "call"
let s_to_s = intern "to_s"

let () =
  let s = state () in
  baseline := Array.sub s.names 0 s.count
