(** Simulated machine descriptions and the cycle cost model.

    A store cell models 8 bytes, so a cache line of [b] bytes holds [b/8]
    cells; transactional capacities are expressed in lines, matching how the
    real HTM implementations bound their footprints (paper Section 2.2). *)

type costs = {
  cyc_insn : int;  (** interpreter dispatch per bytecode *)
  cyc_mem : int;  (** per store access from guest code *)
  cyc_send : int;  (** extra cost of a method dispatch *)
  cyc_alloc : int;  (** extra cost of a slot allocation *)
  cyc_tbegin : int;  (** TBEGIN/XBEGIN plus the surrounding Figure 1 code *)
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
      (** false models z/OS where even HEAPPOOLS leaves malloc conflict
          points (Sections 5.2 and 5.5) *)
  costs : costs;
}

val default_costs : costs

val zec12 : t
(** The paper's IBM zEnterprise EC12 LPAR: 12 cores at 5.5 GHz, 256-byte
    lines, ~8 KB write set, ~1 MB read set. *)

val xeon_e3 : t
(** The paper's Intel Xeon E3-1275 v3 (Haswell): 4 cores x 2 SMT at
    3.5 GHz, 64-byte lines, ~19 KB write set, ~6 MB read set, learning
    abort predictor. *)

val xeon_x5670 : t
(** The 12-core Xeon X5670 used for the JRuby / Java NPB baselines of
    Figure 9 (no HTM). *)

val by_name : string -> t
(** "zec12", "xeon" (or "haswell"), "x5670". @raise Invalid_argument. *)

val n_ctx : t -> int
(** Total hardware contexts (cores x SMT). *)

val sibling_ctx : t -> int -> int option
val pp : Format.formatter -> t -> unit
