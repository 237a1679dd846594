(* The guest heap: a slot arena with a global free list (the paper's second
   conflict source), optional thread-local free lists with bulk refill
   (Section 4.4), stop-the-world mark-and-sweep GC that always runs with the
   GIL held, and a malloc area for array/string/hash payloads that is either
   one global bump pointer (z/OS default, a conflict hotspot) or per-thread
   chunked (HEAPPOOLS / glibc arenas). *)

open Htm_sim

type t = {
  store : Value.t Store.t;
  htm : Value.t Htm.t;
  opts : Options.t;
  classes : Klass.table;
  (* global cells, each on its own cache line *)
  g_free_head : int;  (** VInt slot addr of the free-list head, 0 = empty *)
  g_free_count : int;
  g_malloc_ptr : int;
  g_malloc_end : int;
  mutable arenas : (int * int) list;  (** (base, n_slots), newest first *)
  mutable total_slots : int;
  mutable gc_roots : (int -> unit) -> unit;
      (** installed by the VM: calls [mark] on every root slot address *)
  mutable flush_locals : unit -> unit;
      (** installed by the VM: drops all thread-local free lists before a
          sweep rebuilds the global list *)
  (* statistics *)
  mutable gc_runs : int;
  mutable allocs : int;
  mutable refills : int;
  mutable slot_buf : int array;
      (** reusable scratch for free-slot address runs (arena linking, sweep);
          grown to the largest run seen, never shrunk — keeps the per-GC and
          per-boot work out of caml_make_vect, which otherwise dominates the
          host profile of a figure sweep *)
  (* lazy-sweep state (Section 5.6's proposed thread-local sweeping) *)
  lazy_cursor : int;  (** store cell: next slot ordinal to sweep *)
  mutable lazy_slots : int array;
      (** ordinal -> slot address, rebuilt after each mark phase *)
  (* observability: installed by the runner; None costs one branch per GC *)
  mutable tracer : Obs.Trace.t option;
  mutable gc_pause_hist : Obs.Metrics.histogram option;
}

let note_gc_pause h (th : Vmthread.t) ~start_clock ~cost =
  (match h.gc_pause_hist with Some hist -> Obs.Metrics.observe hist cost | None -> ());
  match h.tracer with
  | None -> ()
  | Some tr ->
      Obs.Trace.emit tr
        { Obs.Event.ts = start_clock; tid = th.tid; ctx = th.ctx; kind = Gc_start };
      Obs.Trace.emit tr
        {
          Obs.Event.ts = start_clock + cost;
          tid = th.tid;
          ctx = th.ctx;
          kind = Gc_end { cycles = cost };
        }

let g_read h ~ctx addr = Htm.read h.htm ~ctx addr
let g_write h ~ctx addr v = Htm.write h.htm ~ctx addr v

let int_of = function
  | Value.VInt i -> i
  | v -> Value.guest_error "heap: expected int cell, got %s" (Value.to_string v)

(* Link the first [n] slots of [arr] (address order) into the global free
   list, in front of the
   current head. The list carries two structures at once:
   - a plain slot chain through cell +1 (original CRuby allocation);
   - a segment overlay for bulk refills: every [free_list_refill]-th slot is
     a segment head whose cell +2 points to the next segment head and whose
     cell +3 holds the segment length. Detaching a whole segment costs a
     handful of accesses instead of walking 256 nodes, which is how the
     "bulk move" of Section 4.4 stays transaction-friendly.
   Plain stores: only ever called at boot or under the GIL (GC / growth). *)
let header_for_alloc h class_id =
  if h.opts.lazy_sweep then Layout.with_mark (Layout.header_of_class class_id)
  else Layout.header_of_class class_id

let link_free_slots h arr n =
  let seg_base = max 4 h.opts.free_list_refill in
  let old_head = int_of (Store.get h.store h.g_free_head) in
  if n > 0 then begin
    for i = 0 to n - 1 do
      let slot = arr.(i) in
      Store.set h.store slot Layout.free_header;
      Store.set h.store (slot + 1)
        (Value.vint (if i + 1 < n then arr.(i + 1) else old_head))
    done;
    (* Segment lengths vary around the nominal bulk size so that threads
       allocating at identical rates do not exhaust their local lists in
       lockstep and stampede the global head together. *)
    let i = ref 0 and k = ref 0 in
    while !i < n do
      let len =
        min (n - !i) ((seg_base / 2) + ((!k * 5 * seg_base / 8) mod seg_base))
      in
      let len = max 1 len in
      let slot = arr.(!i) in
      let next_seg = if !i + len < n then arr.(!i + len) else old_head in
      Store.set h.store (slot + 2) (Value.vint next_seg);
      Store.set h.store (slot + 3) (Value.vint len);
      i := !i + len;
      incr k
    done;
    Store.set h.store h.g_free_head (Value.vint arr.(0))
  end;
  let c = int_of (Store.get h.store h.g_free_count) in
  Store.set h.store h.g_free_count (Value.vint (c + n))

let slot_buf h n =
  if Array.length h.slot_buf < n then h.slot_buf <- Array.make n 0;
  h.slot_buf

let add_arena h n_slots =
  let base = Store.reserve_aligned h.store (n_slots * Layout.slot_cells) in
  h.arenas <- (base, n_slots) :: h.arenas;
  h.total_slots <- h.total_slots + n_slots;
  let buf = slot_buf h n_slots in
  for i = 0 to n_slots - 1 do
    buf.(i) <- base + (i * Layout.slot_cells)
  done;
  link_free_slots h buf n_slots

(* Rebuild the ordinal -> slot address map the lazy sweeper walks, and
   reset the shared cursor. Called at boot and after every mark phase,
   always under the GIL. *)
let rebuild_lazy_order h =
  let n = h.total_slots in
  let arr = Array.make (max 1 n) 0 in
  let i = ref 0 in
  List.iter
    (fun (base, n_slots) ->
      for k = 0 to n_slots - 1 do
        arr.(!i) <- base + (k * Layout.slot_cells);
        incr i
      done)
    (List.rev h.arenas);
  h.lazy_slots <- arr;
  Store.set h.store h.lazy_cursor (Value.vint 0)

let create store htm (opts : Options.t) classes =
  let cell () =
    let a = Store.reserve_aligned store 1 in
    Store.set store a (Value.vint 0);
    a
  in
  let h =
    {
      store;
      htm;
      opts;
      classes;
      g_free_head = cell ();
      g_free_count = cell ();
      g_malloc_ptr = cell ();
      g_malloc_end = cell ();
      arenas = [];
      total_slots = 0;
      gc_roots = (fun _ -> ());
      flush_locals = (fun () -> ());
      gc_runs = 0;
      allocs = 0;
      refills = 0;
      slot_buf = [||];
      lazy_cursor = cell ();
      lazy_slots = [||];
      tracer = None;
      gc_pause_hist = None;
    }
  in
  if not opts.ephemeral_alloc then begin
    add_arena h opts.heap_slots;
    if opts.lazy_sweep then rebuild_lazy_order h
  end;
  h

(* ---- malloc ----------------------------------------------------------- *)

let malloc_arena_chunk = 1 lsl 16

(* Grab [n] cells from the global malloc bump pointer (engine-visible). *)
let malloc_global h ~ctx n =
  let ptr = int_of (g_read h ~ctx h.g_malloc_ptr) in
  let endp = int_of (g_read h ~ctx h.g_malloc_end) in
  if ptr + n <= endp then begin
    g_write h ~ctx h.g_malloc_ptr (Value.vint (ptr + n));
    ptr
  end
  else begin
    (* model mmap of a fresh region *)
    let base = Store.reserve_aligned h.store (max malloc_arena_chunk n) in
    g_write h ~ctx h.g_malloc_ptr (Value.vint (base + n));
    g_write h ~ctx h.g_malloc_end (Value.vint (base + max malloc_arena_chunk n));
    base
  end

let malloc h (th : Vmthread.t) n =
  let ctx = th.ctx in
  if h.opts.malloc_thread_local && n < h.opts.malloc_chunk then begin
    let p = th.struct_base + Vmthread.st_malloc_ptr in
    let e = th.struct_base + Vmthread.st_malloc_end in
    let ptr = int_of (g_read h ~ctx p) in
    let endp = int_of (g_read h ~ctx e) in
    if ptr + n <= endp then begin
      g_write h ~ctx p (Value.vint (ptr + n));
      ptr
    end
    else begin
      let base = malloc_global h ~ctx h.opts.malloc_chunk in
      g_write h ~ctx p (Value.vint (base + n));
      g_write h ~ctx e (Value.vint (base + h.opts.malloc_chunk));
      base
    end
  end
  else malloc_global h ~ctx n

(* ---- garbage collection ----------------------------------------------- *)

(* Mark phase: recursive marking with an explicit worklist; reads and writes
   bypass the engine (GC runs with the GIL held, no live transactions). *)
let gc_mark h roots_fn =
  let store = h.store in
  let worklist = ref [] in
  let marked = ref 0 in
  let mark slot =
    if slot > 0 then begin
      let hd = Store.get store slot in
      if (not (Layout.is_free_header hd)) && not (Layout.is_marked hd) then begin
        (match hd with
        | Value.VInt v when v >= 0 ->
            Store.set store slot (Layout.with_mark hd);
            incr marked;
            worklist := slot :: !worklist
        | _ -> ())
      end
    end
  in
  let mark_value = function Value.VRef a -> mark a | _ -> () in
  roots_fn mark;
  let scan_region base len =
    for i = 0 to len - 1 do
      mark_value (Store.get store (base + i))
    done
  in
  let rec drain () =
    match !worklist with
    | [] -> ()
    | slot :: rest ->
        worklist := rest;
        let class_id = Layout.class_id_of_header (Store.get store slot) in
        let k = Klass.get h.classes class_id in
        for f = 1 to Layout.n_fields do
          mark_value (Store.get store (slot + f))
        done;
        (match k.kind with
        | Klass.K_array ->
            let len = int_of (Store.get store (slot + Layout.a_len)) in
            let data = int_of (Store.get store (slot + Layout.a_data)) in
            if data > 0 then scan_region data len
        | Klass.K_hash ->
            let cap = int_of (Store.get store (slot + Layout.h_cap)) in
            let data = int_of (Store.get store (slot + Layout.h_data)) in
            if data > 0 then scan_region data (2 * cap)
        | _ -> ());
        drain ()
  in
  drain ();
  !marked

(* Sweep: rebuild the global free list (chain + segment overlay) from every
   dead or already-free slot, in address order like CRuby. Thread-local free
   lists are invalidated by the caller before sweeping. *)
let gc_sweep h =
  let store = h.store in
  (* [h.arenas] is newest-first; walk oldest-first so the scratch buffer
     fills in ascending address order, exactly the order the old
     prepend-a-list construction produced *)
  let buf = slot_buf h h.total_slots in
  let n_free = ref 0 in
  List.iter
    (fun (base, n_slots) ->
      for i = 0 to n_slots - 1 do
        let slot = base + (i * Layout.slot_cells) in
        let hd = Store.get store slot in
        if Layout.is_free_header hd then begin
          buf.(!n_free) <- slot;
          incr n_free
        end
        else if Layout.is_marked hd then Store.set store slot (Layout.without_mark hd)
        else begin
          Store.set store slot Layout.free_header;
          buf.(!n_free) <- slot;
          incr n_free
        end
      done)
    (List.rev h.arenas);
  Store.set store h.g_free_head (Value.vint 0);
  Store.set store h.g_free_count (Value.vint 0);
  link_free_slots h buf !n_free;
  !n_free

(* The collector mutates the store *around* the engine (direct
   [Store.get]/[Store.set] in mark/sweep), so no speculative state may
   survive into it. Under [Subscription.Eager] the GIL acquisition that
   precedes any GC already killed every hardware window via the
   subscribed GIL word, and [Gil.take] killed every software transaction
   through the engine hook — both asserts must hold. Under [Lazy] the
   deferred subscription leaves doomed hardware windows running as
   zombies right through the collection: that is exactly the Dice et al.
   hazard this simulator models, so the hardware-side assert must NOT
   fire (their speculative writes sit in the store; aborting later, they
   roll stale values over whatever the collector rebuilt). [Lazy_safe]
   models the proposed hardware fix: software can explicitly doom every
   speculative window before touching anything. Software transactions
   are quiesced by [Gil.take] under every policy. *)
let quiesce_for_gc h =
  (match Htm.subscription h.htm with
  | Subscription.Eager -> assert (Htm.active_count h.htm = 0)
  | Subscription.Lazy -> ()
  | Subscription.Lazy_safe -> Htm.abort_all_hardware h.htm Txn.Conflict);
  assert (not (Htm.software_any_active h.htm))

(* Run a full collection on behalf of [th]; returns the cycle cost. The
   caller guarantees the GIL is held (so there are no live transactions). *)
let run_gc h (th : Vmthread.t) =
  quiesce_for_gc h;
  h.gc_runs <- h.gc_runs + 1;
  ignore (gc_mark h h.gc_roots);
  let free = gc_sweep h in
  (* grow the heap when mostly full, like CRuby's 1.8x growth *)
  if free < h.total_slots / 5 then add_arena h (max h.opts.heap_slots (h.total_slots * 4 / 5));
  let costs = (Htm.machine h.htm).costs in
  let cost = h.total_slots * costs.cyc_gc_per_slot in
  note_gc_pause h th ~start_clock:th.clock ~cost;
  th.clock <- th.clock + cost;
  cost

(* ---- slot allocation --------------------------------------------------- *)

(* Pop one slot from the global free list through the engine: the hot
   read-set conflict the paper identifies at object allocation. *)
let pop_global h ~ctx =
  let head = int_of (g_read h ~ctx h.g_free_head) in
  if head = 0 then None
  else begin
    let next = int_of (g_read h ~ctx (head + 1)) in
    g_write h ~ctx h.g_free_head (Value.vint next);
    let c = int_of (g_read h ~ctx h.g_free_count) in
    g_write h ~ctx h.g_free_count (Value.vint (c - 1));
    Some head
  end

(* Move one whole segment (free_list_refill slots in bulk) from the global
   list to [th]'s local list: detach the segment head, touching only the
   global head line and the segment head's line. *)
let refill_local h (th : Vmthread.t) =
  h.refills <- h.refills + 1;
  let ctx = th.ctx in
  let head = int_of (g_read h ~ctx h.g_free_head) in
  if head = 0 then false
  else begin
    let next_seg = int_of (g_read h ~ctx (head + 2)) in
    let count = int_of (g_read h ~ctx (head + 3)) in
    g_write h ~ctx h.g_free_head (Value.vint next_seg);
    let c = int_of (g_read h ~ctx h.g_free_count) in
    g_write h ~ctx h.g_free_count (Value.vint (c - count));
    g_write h ~ctx (th.struct_base + Vmthread.st_free_head) (Value.vint head);
    g_write h ~ctx (th.struct_base + Vmthread.st_free_count) (Value.vint count);
    true
  end

let pop_local h (th : Vmthread.t) =
  let ctx = th.ctx in
  let lc = th.struct_base + Vmthread.st_free_count in
  let c = int_of (g_read h ~ctx lc) in
  (* the local chain continues into segments still on the global list, so
     stop at the segment boundary even though the next pointer is valid *)
  if c <= 0 then None
  else begin
    let lh = th.struct_base + Vmthread.st_free_head in
    let head = int_of (g_read h ~ctx lh) in
    if head = 0 then None
    else begin
      let next = int_of (g_read h ~ctx (head + 1)) in
      g_write h ~ctx lh (Value.vint next);
      g_write h ~ctx lc (Value.vint (c - 1));
      Some head
    end
  end

let lazy_chunk = 64

(* Claim the next arena chunk through the shared cursor and sweep it into
   [th]'s local free list: dead slots are linked, live ones get their mark
   cleared. Touches one shared line (the cursor) per chunk; everything else
   is thread-private or dead memory. Returns false when the arena is fully
   swept. *)
let lazy_refill h (th : Vmthread.t) =
  let ctx = th.ctx in
  let total = Array.length h.lazy_slots in
  let ord = int_of (g_read h ~ctx h.lazy_cursor) in
  if ord >= total then false
  else begin
    let stop = min total (ord + lazy_chunk) in
    g_write h ~ctx h.lazy_cursor (Value.vint stop);
    let head = ref 0 and count = ref 0 in
    for i = stop - 1 downto ord do
      let slot = h.lazy_slots.(i) in
      let hd = g_read h ~ctx slot in
      if Layout.is_free_header hd then begin
        g_write h ~ctx (slot + 1) (Value.vint !head);
        head := slot;
        incr count
      end
      else if Layout.is_marked hd then g_write h ~ctx slot (Layout.without_mark hd)
      else begin
        (* unmarked live object: garbage since the last mark phase *)
        g_write h ~ctx slot Layout.free_header;
        g_write h ~ctx (slot + 1) (Value.vint !head);
        head := slot;
        incr count
      end
    done;
    g_write h ~ctx (th.struct_base + Vmthread.st_free_head) (Value.vint !head);
    g_write h ~ctx (th.struct_base + Vmthread.st_free_count) (Value.vint !count);
    (* a fully live chunk yields nothing; the caller claims the next one *)
    true
  end

(* Mark-only collection for lazy mode: live objects get marked, the cursor
   resets, and threads reclaim garbage chunk by chunk as they allocate.
   Grows the heap when mostly live. Requires the GIL, like any GC. *)
let run_mark_phase h (th : Vmthread.t) =
  quiesce_for_gc h;
  h.gc_runs <- h.gc_runs + 1;
  let marked = gc_mark h h.gc_roots in
  if marked > h.total_slots * 4 / 5 then
    add_arena h (max h.opts.heap_slots (h.total_slots * 4 / 5));
  rebuild_lazy_order h;
  let costs = (Htm.machine h.htm).costs in
  let cost = marked * costs.cyc_gc_per_slot in
  note_gc_pause h th ~start_clock:th.clock ~cost;
  th.clock <- th.clock + cost;
  cost

let rec alloc_slot h (th : Vmthread.t) ~class_id =
  h.allocs <- h.allocs + 1;
  if h.opts.ephemeral_alloc then begin
    (* TLAB-style bump allocation, never collected (Figure 9 baselines) *)
    let slot = malloc h th Layout.slot_cells in
    let ctx = th.ctx in
    (* JRuby keeps shared object-space accounting; the JVM does not *)
    if h.opts.alloc_coherence_counter then begin
      let c = int_of (g_read h ~ctx h.g_free_count) in
      g_write h ~ctx h.g_free_count (Value.vint (c + 1))
    end;
    g_write h ~ctx slot (Layout.header_of_class class_id);
    for f = 1 to Layout.n_fields do
      g_write h ~ctx (slot + f) Value.VNil
    done;
    slot
  end
  else begin
    let ctx = th.ctx in
    let slot_opt =
      if h.opts.lazy_sweep then begin
        match pop_local h th with
        | Some s -> Some s
        | None ->
            let rec claim () =
              if not (lazy_refill h th) then None
              else match pop_local h th with Some s -> Some s | None -> claim ()
            in
            claim ()
      end
      else if h.opts.thread_local_free_lists then
        match pop_local h th with
        | Some s -> Some s
        | None -> if refill_local h th then pop_local h th else None
      else pop_global h ~ctx
    in
    match slot_opt with
    | Some slot ->
        g_write h ~ctx slot (header_for_alloc h class_id);
        for f = 1 to Layout.n_fields do
          g_write h ~ctx (slot + f) Value.VNil
        done;
        slot
    | None ->
        (* Heap exhausted. GC needs the GIL: inside a transaction we abort
           to the fallback path; otherwise collect inline and retry. *)
        if Htm.in_txn h.htm th.ctx then Htm.tabort h.htm ~ctx:th.ctx Txn.Explicit
        else if Htm.software_active h.htm th.ctx then
          Htm.software_abort h.htm th.ctx Txn.Explicit;
        (* flush_locals writes around the engine too, so the collection's
           speculative-state quiesce must precede it: an undo-log abort
           after the flush would roll stale free-list cells back over it *)
        quiesce_for_gc h;
        h.flush_locals ();
        if h.opts.lazy_sweep then ignore (run_mark_phase h th)
        else begin
          ignore (run_gc h th);
          if int_of (Store.get h.store h.g_free_count) = 0 then
            add_arena h h.opts.heap_slots
        end;
        alloc_slot h th ~class_id
  end

(* Allocation traffic for boxed float results (CRuby 1.9 allocates a Float
   object per float arithmetic result). The box is guest-invisible; it only
   generates the free-list and header traffic, and becomes garbage
   immediately. *)
let alloc_box h (th : Vmthread.t) ~float_class_id v =
  if h.opts.float_boxing then begin
    if not h.opts.ephemeral_alloc then begin
      let slot = alloc_slot h th ~class_id:float_class_id in
      g_write h ~ctx:th.ctx (slot + 1) v
    end
    else if h.opts.alloc_coherence_counter then begin
      (* JRuby boxes float results too, but from TLABs; its residual
         bottleneck is the shared object-space accounting it touches every
         few allocations. The Java NPB uses primitive doubles: no boxing. *)
      let ctx = th.ctx in
      let slot = malloc h th 2 in
      g_write h ~ctx slot v;
      let counter_cell = th.struct_base + Vmthread.st_spare in
      let n = match g_read h ~ctx counter_cell with Value.VInt n -> n | _ -> 0 in
      g_write h ~ctx counter_cell (Value.vint (n + 1));
      if (n + 1) mod 64 = 0 then begin
        let c = int_of (g_read h ~ctx h.g_free_count) in
        g_write h ~ctx h.g_free_count (Value.vint (c + 64))
      end
    end
  end
