(* Per-layer unit costs: host time per public call of one simulator layer,
   measured from outside the simulator. Every kernel runs once to warm up
   (scratch arrays grown, code caches filled), then all kernels run in
   interleaved rounds and each keeps its best round: host noise only ever
   adds time, so the minimum is the stable estimate. *)

open Htm_sim

type kernel = {
  name : string;
  ops : int;  (** operations one run of [timed] performs *)
  timed : unit -> float;  (** seconds spent in the measured part *)
}

let now = Unix.gettimeofday

let timed f () =
  let t0 = now () in
  f ();
  now () -. t0

(* zEC12 with capacity far beyond any kernel's footprint: the access paths
   (and their capacity checks) are the real ones, but a kernel can touch
   hundreds of fresh lines in one window without a capacity abort. *)
let roomy = { Machine.zec12 with Machine.rs_lines = 1 lsl 16; ws_lines = 1 lsl 16 }

let engine machine =
  let store =
    Store.create ~dummy:0 ~line_cells:machine.Machine.line_cells 4096
  in
  let htm = Htm.create machine store in
  Htm.set_occupied htm 0 true;
  (htm, store)

let lc = roomy.Machine.line_cells
let no_rollback (_ : Txn.abort_reason) = ()

(* ---- htm ---- *)

let htm_kernels () =
  let htm, store = engine roomy in
  let region = Store.reserve_aligned store (1 lsl 16) in
  let pairs = 1_000_000 in
  let nontxn =
    timed (fun () ->
        for i = 0 to pairs - 1 do
          let a = region + ((i * 7) land 0xFFFF) in
          ignore (Htm.read htm ~ctx:0 a);
          Htm.write htm ~ctx:0 a i
        done)
  in
  let txns = 200 and per_txn = 256 in
  let window addr_of () =
    for _ = 1 to txns do
      Htm.tbegin htm ~ctx:0 ~rollback:no_rollback;
      for i = 0 to per_txn - 1 do
        let a = addr_of i in
        ignore (Htm.read htm ~ctx:0 a);
        Htm.write htm ~ctx:0 a i
      done;
      Htm.tend htm ~ctx:0
    done
  in
  let begins = 100_000 in
  let undo = 64 and aborted = 2_000 in
  [
    { name = "htm.nontxn_pair"; ops = pairs; timed = nontxn };
    (* every pair on a fresh line: the full membership/conflict path *)
    {
      name = "htm.intxn_cold_pair";
      ops = txns * per_txn;
      timed = timed (window (fun i -> region + (i * lc)));
    };
    (* every pair on the line the window already owns *)
    {
      name = "htm.intxn_memo_pair";
      ops = txns * per_txn;
      timed = timed (window (fun i -> region + (i land (lc - 1))));
    };
    {
      name = "htm.tbegin_tend";
      ops = begins;
      timed =
        timed (fun () ->
            for _ = 1 to begins do
              Htm.tbegin htm ~ctx:0 ~rollback:no_rollback;
              Htm.tend htm ~ctx:0
            done);
    };
    {
      name = "htm.abort_undo";
      ops = undo * aborted;
      timed =
        timed (fun () ->
            for _ = 1 to aborted do
              Htm.tbegin htm ~ctx:0 ~rollback:no_rollback;
              (try
                 for i = 0 to undo - 1 do
                   Htm.write htm ~ctx:0 (region + i) i
                 done;
                 Htm.tabort htm ~ctx:0 Txn.Explicit
               with Htm.Abort_now _ -> ());
              Htm.clear_pending_abort htm 0
            done);
    };
  ]

(* ---- stm: per-word costs come from differences of five window shapes ---- *)

let stm_words = 64
let stm_txns = 2_000

let stm_kernels () =
  let htm, store = engine roomy in
  let stm = Stm.create ~mk_clock:(fun n -> n) htm in
  let region = Store.reserve_aligned store (stm_words * lc) in
  let window ~reads ~writes ~commit () =
    for _ = 1 to stm_txns do
      Stm.begin_ stm ~ctx:0 ~rollback:no_rollback;
      if reads then
        for i = 0 to stm_words - 1 do
          ignore (Htm.read htm ~ctx:0 (region + (i * lc)))
        done;
      if writes then
        for i = 0 to stm_words - 1 do
          Htm.write htm ~ctx:0 (region + i) i
        done;
      if commit then begin
        if Stm.validate stm ~ctx:0 >= 0 then failwith "stm kernel: validation";
        Stm.commit stm ~ctx:0
      end
      else begin
        Stm.abort stm ~ctx:0 Txn.Explicit;
        Stm.clear_pending_abort stm 0
      end
    done
  in
  let k name ~reads ~writes ~commit =
    { name; ops = stm_txns; timed = timed (window ~reads ~writes ~commit) }
  in
  [
    k "stm.empty_commit" ~reads:false ~writes:false ~commit:true;
    k "stm.read_commit" ~reads:true ~writes:false ~commit:true;
    k "stm.empty_abort" ~reads:false ~writes:false ~commit:false;
    k "stm.write_abort" ~reads:false ~writes:true ~commit:false;
    k "stm.write_commit" ~reads:false ~writes:true ~commit:true;
  ]

(* ---- runner: the calibration loop, default tier ---- *)

let calib_source =
  "x = 0\ni = 0\nwhile i < 300000\n  x = (x + i) % 256\n  i += 1\nend\nputs x"

(* (insns, non-transactional accesses) of one calibration run: both are
   simulated counts, identical on every run. *)
let calib_counts = ref (0, 0)

let runner_kernel () =
  let cfg = Core.Runner.config ~scheme:Core.Scheme.Gil_only Machine.zec12 in
  let run () =
    let t = Core.Runner.create cfg ~source:calib_source in
    let t0 = now () in
    let r = Core.Runner.run t in
    let dt = now () -. t0 in
    Rvm.Vm.release t.Core.Runner.vm;
    calib_counts :=
      (r.Core.Runner.total_insns, r.Core.Runner.htm_stats.Stats.non_txn_accesses);
    dt
  in
  ignore (run ());
  { name = "runner.calib_insn"; ops = fst !calib_counts; timed = run }

(* ---- compiler ---- *)

(* Every code object reachable from a program's toplevel. *)
let codes_of (main : Rvm.Value.code) =
  let seen = ref [] in
  let rec visit (c : Rvm.Value.code) =
    if not (List.memq c !seen) then begin
      seen := c :: !seen;
      Array.iter
        (function
          | Rvm.Value.Send ss | Newinstance ss | Newthread ss ->
              Option.iter visit ss.ss_block
          | Defmethod (_, m) -> visit m
          | Defclass cd -> List.iter (fun (_, m) -> visit m) cd.cd_methods
          | Push (VCode m) -> visit m
          | _ -> ())
        c.insns
    end
  in
  visit main;
  !seen

let compiler_kernels sources =
  let codes =
    List.concat_map
      (fun s -> codes_of (Rvm.Compiler.compile_string s).Rvm.Value.main)
      sources
  in
  let insns =
    List.fold_left (fun acc c -> acc + Array.length c.Rvm.Value.insns) 0 codes
  in
  [
    {
      name = "compiler.compile";
      ops = List.length sources;
      timed =
        timed (fun () ->
            List.iter (fun s -> ignore (Rvm.Compiler.compile_string s)) sources);
    };
    {
      name = "compiler.decode";
      ops = max 1 insns;
      timed =
        timed (fun () -> List.iter (fun c -> ignore (Rvm.Compiler.decode c)) codes);
    };
  ]

(* ---- heap ---- *)

let booted () =
  let cfg = Core.Runner.config ~scheme:Core.Scheme.Gil_only Machine.zec12 in
  let t = Core.Runner.create cfg ~source:"x = 1" in
  let vm = t.Core.Runner.vm in
  (* empty every thread-local free list, as a collection does, so the
     first allocation refills from the global list *)
  vm.Rvm.Vm.heap.Rvm.Heap.flush_locals ();
  (vm, List.hd (Rvm.Vm.threads_oldest_first vm))

let heap_kernels () =
  let vm, th = booted () in
  let heap = vm.Rvm.Vm.heap in
  let class_id = vm.Rvm.Vm.c_object.Rvm.Klass.id in
  let allocs = 20_000 in
  let arena_vm, _ = booted () in
  let arena_slots = 10_000 in
  [
    (* the slots become garbage at once; the GC kernel that follows in
       every round reclaims them, so the free list never runs dry *)
    {
      name = "heap.alloc_slot";
      ops = allocs;
      timed =
        timed (fun () ->
            for _ = 1 to allocs do
              ignore (Rvm.Heap.alloc_slot heap th ~class_id)
            done);
    };
    {
      name = "heap.gc";
      ops = max 1 (heap.Rvm.Heap.total_slots / 1000);
      timed =
        timed (fun () ->
            (* the order [Heap.alloc_slot]'s own collection path uses *)
            heap.Rvm.Heap.flush_locals ();
            ignore (Rvm.Heap.run_gc heap th));
    };
    {
      name = "heap.add_arena";
      ops = arena_slots / 1000;
      timed = timed (fun () -> Rvm.Heap.add_arena arena_vm.Rvm.Vm.heap arena_slots);
    };
  ]

(* ---- sched, txlen ---- *)

let some_code = lazy (Rvm.Compiler.compile_string "x = 1").Rvm.Value.main

let sched_kernels () =
  let code = Lazy.force some_code in
  let threads =
    Array.init 12 (fun tid ->
        Rvm.Vmthread.create ~tid ~stack_base:0 ~stack_limit:0 ~struct_base:0
          ~obj:(-1) ~code)
  in
  let s = Core.Sched.create ~dummy:threads.(0) in
  Array.iteri (fun i th -> Core.Sched.push s ~key:i th) threads;
  let key = ref 12 in
  let n = 1_000_000 in
  let txlen =
    Core.Txlen.create ~params:(Core.Txlen.params_for Machine.zec12)
      Core.Txlen.Dynamic
  in
  [
    {
      name = "sched.pick";
      ops = n;
      timed =
        timed (fun () ->
            for _ = 1 to n do
              match Core.Sched.pop_min s with
              | Some th ->
                  incr key;
                  Core.Sched.push s ~key:!key th
              | None -> ()
            done);
    };
    {
      name = "sched.rekey";
      ops = n;
      timed =
        timed (fun () ->
            for i = 1 to n do
              Core.Sched.push s
                ~key:(!key + ((i * 7919) land 1023))
                threads.(i mod 12)
            done);
    };
    {
      name = "txlen.set_length";
      ops = n;
      timed =
        timed (fun () ->
            for i = 1 to n do
              ignore (Core.Txlen.set_transaction_length txlen ~code ~pc:(i land 63))
            done);
    };
  ]

(* ---- netsim, regexsim, minidb ---- *)

(* One open-loop request lifecycle per arrival: materialise, accept,
   write the response, close. *)
let netsim_requests = 5_000

let netsim_round seed () =
  let io =
    Netsim.create
      ~arrivals:(Netsim.Poisson { rate = 9_000.0; seed })
      ~request_limit:netsim_requests ~queue_cap:64 ~queue_timeout:4_000_000
      ~keepalive:8 ~n_clients:6 Workloads.Webrick.make_request
  in
  let rec loop () =
    match Netsim.next_arrival io with
    | Some at when not (Netsim.done_all io) ->
        ignore (Netsim.advance io ~now:at);
        (match Netsim.accept ~now:at ~tid:1 io with
        | Some c ->
            Netsim.write ~now:at io c.Netsim.conn_id "HTTP/1.1 200 OK\r\n\r\n";
            Netsim.close io c.Netsim.conn_id ~now:at
        | None -> ());
        loop ()
    | _ -> ()
  in
  loop ()

let server_kernels ~seed =
  let req_re = Regexsim.compile "^[A-Z]+ [^ ]+ HTTP"
  and route = Regexsim.compile "^/books/([0-9]+)$" in
  let lines =
    Array.init 16 (fun i -> Printf.sprintf "GET /books/%d HTTP/1.1" (i * 37))
  and paths = Array.init 16 (fun i -> Printf.sprintf "/books/%d" (i * 37)) in
  let routes = 200_000 in
  let db = Workloads.Rails.make_db () in
  let selects = 20_000 in
  [
    {
      name = "netsim.request";
      ops = netsim_requests;
      timed = timed (netsim_round seed);
    };
    {
      name = "regexsim.route";
      ops = routes;
      timed =
        timed (fun () ->
            for i = 0 to routes - 1 do
              ignore (Regexsim.matches req_re lines.(i land 15));
              ignore (Regexsim.search route paths.(i land 15))
            done);
    };
    {
      name = "minidb.select";
      ops = selects;
      timed =
        timed (fun () ->
            for i = 0 to selects - 1 do
              ignore
                (Minidb.select db "books" ~where:("id", Minidb.Int (i land 63)) ())
            done);
    };
  ]

(* ---- obs ---- *)

let obs_kernels () =
  let n = 1_000_000 in
  let tr = Obs.Trace.create ~enabled:true () in
  let ev = { Obs.Event.ts = 0; tid = 0; ctx = 0; kind = Obs.Event.Gil_acquire } in
  let h = Obs.Metrics.histogram (Obs.Metrics.create ()) "ledger" in
  [
    {
      name = "obs.trace_emit";
      ops = n;
      timed =
        timed (fun () ->
            for _ = 1 to n do
              Obs.Trace.emit tr ev
            done);
    };
    {
      name = "obs.hist_observe";
      ops = n;
      timed =
        timed (fun () ->
            for i = 1 to n do
              Obs.Metrics.observe h ((i * 37) land 0xFFFF)
            done);
    };
  ]

(* ---- measurement ---- *)

(* Best seconds per op for every kernel, at reference speed (see [Speed]):
   one warm-up round, then [rounds] interleaved rounds, the host-speed loop
   sampled before each round. *)
let measure ?(rounds = 6) kernels =
  let run k = Spans.record ("kernel." ^ k.name) k.timed in
  List.iter (fun k -> ignore (run k)) kernels;
  let probes = ref [] in
  let best = Hashtbl.create 32 in
  for _ = 1 to rounds do
    probes := Speed.sample () :: !probes;
    List.iter
      (fun k ->
        let s = run k in
        match Hashtbl.find_opt best k.name with
        | Some b when b <= s -> ()
        | _ -> Hashtbl.replace best k.name s)
      kernels
  done;
  let scale = Speed.scale !probes in
  List.map
    (fun k -> (k.name, scale *. Hashtbl.find best k.name /. float_of_int k.ops))
    kernels

let all ~seed ~sources =
  htm_kernels () @ stm_kernels () @ [ runner_kernel () ]
  @ compiler_kernels sources @ heap_kernels () @ sched_kernels ()
  @ server_kernels ~seed @ obs_kernels ()

(* The unit costs the benchmark reports, derived from the best per-op
   times: (metric, value, unit). STM per-word costs are differences of
   window shapes; the calibration loop's cost is net of the
   non-transactional accesses it performs. *)
let unit_costs ~seed ~sources =
  let per = measure (all ~seed ~sources) in
  let t name = List.assoc name per in
  let ns x = x *. 1e9 and us x = x *. 1e6 in
  let w = float_of_int stm_words in
  let insns, nontxn = !calib_counts in
  let nontxn_access = t "htm.nontxn_pair" /. 2.0 in
  let calib_net =
    t "runner.calib_insn"
    -. (nontxn_access *. float_of_int nontxn /. float_of_int (max 1 insns))
  in
  [
    ("htm.nontxn_pair_ns", ns (t "htm.nontxn_pair"), "ns");
    ("htm.intxn_cold_pair_ns", ns (t "htm.intxn_cold_pair"), "ns");
    ("htm.intxn_memo_pair_ns", ns (t "htm.intxn_memo_pair"), "ns");
    ("htm.tbegin_tend_ns", ns (t "htm.tbegin_tend"), "ns");
    ("htm.abort_ns_per_undo", ns (t "htm.abort_undo"), "ns");
    ("stm.read_ns", ns ((t "stm.read_commit" -. t "stm.empty_commit") /. w), "ns");
    ("stm.write_ns", ns ((t "stm.write_abort" -. t "stm.empty_abort") /. w), "ns");
    ( "stm.commit_ns_per_word",
      ns
        ((t "stm.write_commit" -. t "stm.write_abort"
         -. (t "stm.empty_commit" -. t "stm.empty_abort"))
        /. w),
      "ns" );
    ("runner.calib_insn_ns", ns calib_net, "ns");
    ("compiler.compile_us", us (t "compiler.compile"), "us");
    ("compiler.decode_ns_per_insn", ns (t "compiler.decode"), "ns");
    ("heap.add_arena_us", us (t "heap.add_arena"), "us/kslot");
    ("heap.alloc_slot_ns", ns (t "heap.alloc_slot"), "ns");
    ("heap.gc_us_per_kslot", us (t "heap.gc"), "us/kslot");
    ("sched.pick_ns", ns (t "sched.pick"), "ns");
    ("sched.rekey_ns", ns (t "sched.rekey"), "ns");
    ("txlen.set_length_ns", ns (t "txlen.set_length"), "ns");
    ("netsim.request_ns", ns (t "netsim.request"), "ns");
    ("regexsim.route_ns", ns (t "regexsim.route"), "ns");
    ("minidb.select_us", us (t "minidb.select"), "us");
    ("obs.trace_emit_ns", ns (t "obs.trace_emit"), "ns");
    ("obs.hist_observe_ns", ns (t "obs.hist_observe"), "ns");
  ]
