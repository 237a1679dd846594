(* Host speed. A shared host can run everything in this process slower for
   minutes at a time, by up to 2x. A fixed allocation loop, timed in a
   freshly collected heap, slows along with the simulator: over 30 minutes
   of 15 s windows, a simulator cell's time moved by up to 95% (IQR 10%)
   while its ratio to the loop's time moved by up to 20-26% (IQR 2.5%). A
   pure integer loop tracked the small swings as well but missed the large
   ones. So host times are scaled by [nominal_s] / (a median loop time
   measured alongside them), which reports them at the speed of the machine
   the benchmark was written on (2 vCPUs of an Intel Xeon, x86-64). The
   loop is benchmark code, the same at every commit. *)

let nominal_s = 0.004

(* Builds 2M list cells in lists of up to 4,096, so the minor heap,
   promotion and the major collector all take part. *)
let probe () =
  let t0 = Unix.gettimeofday () in
  let l = ref [] in
  for i = 1 to 2_000_000 do
    l := i :: (if i land 4095 = 0 then [] else !l)
  done;
  ignore (Sys.opaque_identity !l);
  Unix.gettimeofday () -. t0

(* One loop time right after a full major collection, so the simulator's
   garbage cannot slow the loop. The loop promotes only the list under
   construction at each minor collection, so it leaves little behind. *)
let sample () =
  Gc.full_major ();
  probe ()

(* The factor that brings host times measured alongside [probes] to the
   reference speed. *)
let scale probes = nominal_s /. Summary.median probes
