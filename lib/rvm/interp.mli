(** The bytecode interpreter. [step] executes exactly one instruction for
    one thread; the runner owns scheduling, yield points and transactions.

    Invariants that make aborts and blocking safe:
    - every guest-visible mutation goes through the HTM engine (rolled back
      on abort) or the thread registers (snapshotted at transaction begin,
      and at instruction start by the runner);
    - an instruction performs heap allocation before any other guest-visible
      write, so a GC pause or an abort raised from the allocator never
      leaves a half-executed instruction behind. *)

type step_result = Continue | Done of Value.t

val step : Vm.t -> Vmthread.t -> step_result
(** Execute one instruction.
    @raise Htm_sim.Htm.Abort_now if the thread's transaction died (guest
    state already rolled back);
    @raise Vmthread.Block if a builtin must suspend the thread (re-execute
    the instruction on wake-up);
    @raise Value.Guest_error on a guest-level error. *)

val step_d : Vm.t -> Vmthread.t -> Compiler.Dcode.t -> step_result
(** [step] over the pre-decoded threaded form: same semantics, same
    simulated access sequence, no per-step allocation on the fast paths.
    [d] must be [Vm.dcode vm th.code] — the runner refetches it whenever
    [th.code] changes (calls, returns, spawned threads).
    @raise Htm_sim.Htm.Abort_now if the thread's transaction died (guest
    state already rolled back);
    @raise Vmthread.Block if a builtin must suspend the thread (re-execute
    the instruction on wake-up);
    @raise Value.Guest_error on a guest-level error. *)

val dispatch :
  Vm.t ->
  Vmthread.t ->
  sym:int ->
  argc:int ->
  block:Value.code option ->
  cache_slot:int option ->
  unit
(** Full method send against the operand stack (receiver at sp-argc-1);
    exposed for builtins and tests. *)
