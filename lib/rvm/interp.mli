(** The bytecode interpreter. [step] executes exactly one instruction for
    one thread and is the VM's only opcode handler: it matches the tagged
    bytecode directly, and each arm's sequence of simulated reads and
    writes is what the HTM engine sees. The runner owns scheduling, yield
    points and transactions.

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
