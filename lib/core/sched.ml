(* Indexed binary min-heap over guest threads, keyed (key, tid).

   The heap proper is two parallel int arrays (keys, tids); [pos] maps a tid
   to its heap index (-1 when absent) so membership tests, re-keying and
   removal never search. Thread records live in [table], indexed by tid,
   which never moves: a sift writes only int arrays, so it never pays the
   write barrier a boxed-element swap would. Sifts move a hole instead of
   swapping, writing each visited slot once.

   Slots at and beyond [n] hold the sentinel (max_int, max_int), so on an
   empty heap [min_key] and [preempts] are still single array reads with
   no emptiness branch. *)

type t = {
  dummy : Rvm.Vmthread.t;
  mutable keys : int array;
  mutable tids : int array;
  mutable n : int;
  mutable pos : int array;  (* tid -> heap index, -1 absent *)
  mutable table : Rvm.Vmthread.t array;  (* tid -> thread *)
}

let create ~dummy =
  {
    dummy;
    keys = Array.make 16 max_int;
    tids = Array.make 16 max_int;
    n = 0;
    pos = Array.make 64 (-1);
    table = Array.make 64 dummy;
  }

let size t = t.n
let is_empty t = t.n = 0

let ensure_tid t tid =
  let n = Array.length t.pos in
  if tid >= n then begin
    let m = Int.max (2 * n) (tid + 1) in
    let p = Array.make m (-1) in
    Array.blit t.pos 0 p 0 n;
    t.pos <- p;
    let e = Array.make m t.dummy in
    Array.blit t.table 0 e 0 n;
    t.table <- e
  end

let ensure_cap t n =
  if n > Array.length t.keys then begin
    let m = Int.max (2 * Array.length t.keys) n in
    let grow a =
      let b = Array.make m max_int in
      Array.blit a 0 b 0 t.n;
      b
    in
    t.keys <- grow t.keys;
    t.tids <- grow t.tids
  end

let mem t tid = tid < Array.length t.pos && t.pos.(tid) >= 0

(* Key order with ties broken by DESCENDING tid, matching the retained
   reference scan (which in turn matches the original prepend-ordered active
   list: newest thread first). tids are unique so the order is total. *)
let[@inline] before (k1 : int) (d1 : int) (k2 : int) (d2 : int) =
  k1 < k2 || (k1 = k2 && d1 > d2)

(* Heap indices below [t.n] and tids below [Array.length t.pos] are in
   bounds by construction, so the sifts skip the checks. *)
let[@inline] place t i k d =
  Array.unsafe_set t.keys i k;
  Array.unsafe_set t.tids i d;
  Array.unsafe_set t.pos d i

(* Fill the hole at [i] with (k, d), moving later parents down into it. *)
let rec sift_up t i k d =
  if i = 0 then place t 0 k d
  else begin
    let p = (i - 1) / 2 in
    let pk = Array.unsafe_get t.keys p and pd = Array.unsafe_get t.tids p in
    if before k d pk pd then begin
      place t i pk pd;
      sift_up t p k d
    end
    else place t i k d
  end

(* Fill the hole at [i] with (k, d), moving earlier children up into it. *)
let rec sift_down t i k d =
  let l = (2 * i) + 1 in
  if l >= t.n then place t i k d
  else begin
    let r = l + 1 in
    let m =
      if
        r < t.n
        && before (Array.unsafe_get t.keys r) (Array.unsafe_get t.tids r)
             (Array.unsafe_get t.keys l) (Array.unsafe_get t.tids l)
      then r
      else l
    in
    let mk = Array.unsafe_get t.keys m and md = Array.unsafe_get t.tids m in
    if before mk md k d then begin
      place t i mk md;
      sift_down t m k d
    end
    else place t i k d
  end

(* Re-seat (k, d) at hole [i], whichever direction it has to travel. *)
let resift t i k d =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if before k d (Array.unsafe_get t.keys p) (Array.unsafe_get t.tids p) then
      sift_up t i k d
    else sift_down t i k d
  end
  else sift_down t i k d

(* The only boxed write: once per insertion, skipped when the slot already
   holds this thread. *)
let[@inline] set_thread t (th : Rvm.Vmthread.t) =
  if Array.unsafe_get t.table th.tid != th then t.table.(th.tid) <- th

let push t ~key (th : Rvm.Vmthread.t) =
  let tid = th.tid in
  ensure_tid t tid;
  let i = t.pos.(tid) in
  if i >= 0 then begin
    if key <> t.keys.(i) then resift t i key tid
  end
  else begin
    ensure_cap t (t.n + 1);
    set_thread t th;
    t.n <- t.n + 1;
    sift_up t (t.n - 1) key tid
  end

let remove_at t i =
  Array.unsafe_set t.pos (Array.unsafe_get t.tids i) (-1);
  let last = t.n - 1 in
  t.n <- last;
  if i < last then
    resift t i (Array.unsafe_get t.keys last) (Array.unsafe_get t.tids last);
  Array.unsafe_set t.keys last max_int;
  Array.unsafe_set t.tids last max_int

let remove t tid = if mem t tid then remove_at t t.pos.(tid)

let[@inline] min_key t = Array.unsafe_get t.keys 0

let[@inline] preempts t ~key ~tid =
  before (Array.unsafe_get t.keys 0) (Array.unsafe_get t.tids 0) key tid

(* Checked read: on an empty heap the sentinel tid is out of the table's
   bounds, so misuse raises instead of reading past the array. *)
let take_min t =
  let th = t.table.(t.tids.(0)) in
  remove_at t 0;
  th

let pop_min t = if t.n = 0 then None else Some (take_min t)

let clear t =
  for i = 0 to t.n - 1 do
    t.pos.(t.tids.(i)) <- -1;
    t.keys.(i) <- max_int;
    t.tids.(i) <- max_int
  done;
  t.n <- 0
