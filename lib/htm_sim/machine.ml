(* Simulated machine descriptions and cost model.

   A store cell models 8 bytes of memory, so a cache line of [b] bytes holds
   [b / 8] cells. Capacities are expressed in cache lines, matching how the
   real HTM implementations bound the transactional footprint. *)

type costs = {
  cyc_insn : int;  (** interpreter dispatch per bytecode *)
  cyc_mem : int;  (** per store access from guest code *)
  cyc_send : int;  (** extra cost of a method dispatch *)
  cyc_alloc : int;  (** extra cost of a slot allocation *)
  cyc_tbegin : int;  (** TBEGIN/XBEGIN plus surrounding code *)
  cyc_tend : int;  (** TEND/XEND *)
  cyc_abort : int;  (** fixed pipeline penalty on abort *)
  cyc_gil_acquire : int;
  cyc_gil_release : int;
  cyc_sched_yield : int;  (** sched_yield() syscall *)
  cyc_yield_check : int;  (** flag / counter check at a yield point *)
  cyc_tls : int;  (** pthread_getspecific *)
  cyc_gc_per_slot : int;  (** mark-and-sweep cost per heap slot *)
  cyc_blocking_op : int;  (** entering/leaving a blocking call *)
  cyc_line_transfer : int;  (** cache-to-cache transfer of a contended line *)
  cyc_stm_access : int;
      (** software-transaction instrumentation per guest access (redo-log
          append / version check) — the classic STM single-thread tax *)
  cyc_stm_begin : int;  (** software transaction setup *)
  cyc_stm_commit : int;  (** fixed part of commit (locking, clock bump) *)
  cyc_stm_valid_line : int;  (** commit-time validation per read-set line *)
}

type t = {
  name : string;
  n_cores : int;
  smt : int;  (** hardware threads per core *)
  line_cells : int;  (** store cells per cache line *)
  rs_lines : int;  (** max read-set size, in lines *)
  ws_lines : int;  (** max write-set size, in lines *)
  learning : bool;  (** Haswell-style abort predictor (Section 5.4) *)
  tls_fast : bool;  (** false on z/OS: pthread_getspecific is slow *)
  malloc_thread_local : bool;
      (** true = HEAPPOOLS-style thread-local malloc; false models the
          default z/OS allocator that conflicts under transactions *)
  costs : costs;
}

let n_ctx t = t.n_cores * t.smt

let default_costs =
  {
    cyc_insn = 55;
    cyc_mem = 2;
    cyc_send = 60;
    cyc_alloc = 25;
    cyc_tbegin = 45;
    cyc_tend = 20;
    cyc_abort = 180;
    cyc_gil_acquire = 120;
    cyc_gil_release = 60;
    cyc_sched_yield = 900;
    cyc_yield_check = 4;
    cyc_tls = 3;
    cyc_gc_per_slot = 4;
    cyc_blocking_op = 350;
    cyc_line_transfer = 90;
    cyc_stm_access = 8;
    cyc_stm_begin = 30;
    cyc_stm_commit = 40;
    cyc_stm_valid_line = 2;
  }

(* IBM zEnterprise EC12 LPAR used in the paper: 12 dedicated cores, no SMT,
   256-byte lines, ~8 KB write set (Gathering Store Cache), read set bounded
   by the 1 MB L2. z/OS pthread_getspecific is slow and the default malloc is
   not thread-local (Section 5.2). *)
let zec12 =
  {
    name = "zEC12";
    n_cores = 12;
    smt = 1;
    line_cells = 256 / 8;
    rs_lines = 4096;
    ws_lines = 32;
    learning = false;
    tls_fast = false;
    malloc_thread_local = false;
    costs = { default_costs with cyc_tls = 14 };
  }

(* Intel Xeon E3-1275 v3 (Haswell): 4 cores x 2 SMT, 64-byte lines,
   ~19 KB write set, ~6 MB read set, plus the empirically observed
   learning behaviour of its abort predictor (Figure 6a). *)
let xeon_e3 =
  {
    name = "XeonE3-1275v3";
    n_cores = 4;
    smt = 2;
    line_cells = 64 / 8;
    rs_lines = 98304;
    ws_lines = 300;
    learning = true;
    tls_fast = true;
    malloc_thread_local = true;
    costs = default_costs;
  }

(* The 12-core Xeon X5670 machine (hyper-threading disabled) used for the
   JRuby and Java NPB scalability baselines of Figure 9. It has no HTM; only
   its core count matters. *)
let xeon_x5670 =
  {
    name = "XeonX5670";
    n_cores = 12;
    smt = 1;
    line_cells = 64 / 8;
    rs_lines = 0;
    ws_lines = 0;
    learning = false;
    tls_fast = true;
    malloc_thread_local = true;
    costs = default_costs;
  }

let by_name = function
  | "zec12" | "zEC12" -> zec12
  | "xeon" | "haswell" | "xeon_e3" -> xeon_e3
  | "x5670" | "xeon_x5670" -> xeon_x5670
  | s -> invalid_arg ("Machine.by_name: unknown machine " ^ s)

(* Hardware context [ctx] runs on core [ctx mod n_cores]; with SMT the second
   set of contexts shares cores with the first, exactly like assigning one
   software thread per core before doubling up. *)
let sibling_ctx t ctx =
  if t.smt < 2 then None
  else
    let other = if ctx < t.n_cores then ctx + t.n_cores else ctx - t.n_cores in
    if other < n_ctx t then Some other else None

let pp fmt t =
  Format.fprintf fmt "%s(%d cores x %d SMT, line=%dB, rs=%d ws=%d lines)"
    t.name t.n_cores t.smt (t.line_cells * 8) t.rs_lines t.ws_lines
