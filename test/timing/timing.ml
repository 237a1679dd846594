(* Host-timing gates, each an interleaved best-of-N on this host, measured
   up to three times before it fails:
   - a read+write pair inside a hardware window costs at most 0.8x as much
     on a line the window already owns as on a fresh line;
   - a disabled trace sink adds at most 5% to a guest loop.
   Exits 1 if either gate fails.  dune exec test/timing/timing.exe *)

(* Alternate [a] and [b] [n] times and keep each side's minimum, so drifts
   in host load hit both sides alike. *)
let interleaved_min n a b =
  let best_a = ref infinity and best_b = ref infinity in
  for _ = 1 to n do
    best_a := min !best_a (a ());
    best_b := min !best_b (b ())
  done;
  (!best_a, !best_b)

let seconds f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* [measure ()] prints its reading and says whether it passed. *)
let gate name measure =
  let rec go attempt =
    measure () || (attempt < 3 && go (attempt + 1))
  in
  go 1
  || begin
       Printf.eprintf "FAIL: %s\n%!" name;
       false
     end

(* 200 windows of 512 read+write pairs, every pair on the window's first
   line (a membership check, plus one undo entry per cell) or every pair on
   a fresh line (the full conflict, capacity and footprint bookkeeping).
   The machine has room for 512 fresh lines, so neither shape aborts. *)
let intxn_pair () =
  let txns = 200 and pairs = 512 in
  let machine =
    { Htm_sim.Machine.zec12 with rs_lines = pairs; ws_lines = pairs }
  in
  let lc = machine.line_cells in
  let store = Htm_sim.Store.create ~dummy:0 ~line_cells:lc 4096 in
  let htm = Htm_sim.Htm.create machine store in
  Htm_sim.Htm.set_occupied htm 0 true;
  let region = Htm_sim.Store.reserve_aligned store (pairs * lc) in
  let ns_per_pair addr_of () =
    let loop () =
      for _ = 1 to txns do
        Htm_sim.Htm.tbegin htm ~ctx:0 ~rollback:(fun _ -> ());
        for i = 0 to pairs - 1 do
          let addr = addr_of i in
          ignore (Htm_sim.Htm.read htm ~ctx:0 addr);
          Htm_sim.Htm.write htm ~ctx:0 addr i
        done;
        Htm_sim.Htm.tend htm ~ctx:0
      done
    in
    loop ();
    (* warm: scratch arrays grown, branch state settled *)
    let reps = 20 in
    seconds (fun () -> for _ = 1 to reps do loop () done)
    *. 1e9
    /. float_of_int (reps * txns * pairs)
  in
  let owned = ns_per_pair (fun i -> region + (i land (lc - 1)))
  and fresh = ns_per_pair (fun i -> region + (i * lc)) in
  (* one throwaway round per shape: the first timed windows otherwise absorb
     cold caches and the GC debt of the set-up *)
  ignore (owned ());
  ignore (fresh ());
  let owned_ns, fresh_ns = interleaved_min 6 owned fresh in
  Printf.printf
    "in-txn pair: %.1f ns on an owned line, %.1f ns on a fresh line (%.2fx, \
     gate 1.25x)\n\
     %!"
    owned_ns fresh_ns (fresh_ns /. owned_ns);
  owned_ns <= 0.8 *. fresh_ns

(* A 100,000-iteration loop: long enough that VM boot does not dilute the
   instrumentation sites the run passes through. *)
let tracing () =
  let source =
    "x = 0\ni = 0\nwhile i < 100000\n  x += i\n  i += 1\nend\nputs x"
  in
  let run tracer () =
    let cfg =
      Core.Runner.config ?tracer ~scheme:Core.Scheme.Gil_only
        Htm_sim.Machine.zec12
    in
    seconds (fun () -> ignore (Core.Runner.run_source cfg ~source))
  in
  let absent, disabled =
    interleaved_min 15 (run None)
      (run (Some (Obs.Trace.create ~enabled:false ())))
  in
  let overhead = 100.0 *. (disabled -. absent) /. absent in
  Printf.printf
    "disabled tracing: %.1f ms vs %.1f ms without a sink (%+.1f%%, budget \
     5%%)\n\
     %!"
    (disabled *. 1e3) (absent *. 1e3) overhead;
  overhead <= 5.0

let () =
  let pair = gate "owned-line in-transaction pair not 1.25x ahead" intxn_pair in
  let trace = gate "disabled tracing costs more than 5%" tracing in
  exit (if pair && trace then 0 else 1)
