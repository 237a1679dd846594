(** The Giant VM Lock. The lock word lives in the simulated store so that
    transactions subscribe to it (Figure 1 line 15): any acquisition aborts
    every running transaction through plain cache-coherence conflicts.

    Mutual exclusion also holds in *virtual time*: an acquisition can never
    begin before the previous release's timestamp. *)

type t = {
  vm : Rvm.Vm.t;
  mutable owner : int;  (** tid, -1 when free *)
  mutable waiters : Rvm.Vmthread.t list;
  mutable next_timer : int;
  mutable free_since : int;
  mutable acquisitions : int;
  mutable tracer : Obs.Trace.t option;
      (** when set, {!take} / {!release} emit [Gil_acquire] / [Gil_release]
          trace events (installed by the runner) *)
}

val create : Rvm.Vm.t -> t
(** A free lock whose timer ticks every 250,000 cycles, CRuby's 250 ms
    timer-thread tick at the simulation's pace. *)

val read_acquired : t -> Rvm.Vmthread.t -> bool
(** Engine read of the lock word — inside a transaction this subscribes the
    GIL into the read set. *)

val held_by : t -> Rvm.Vmthread.t -> bool

val take : t -> Rvm.Vmthread.t -> unit
(** Acquire the free lock: writes the lock word (aborting subscribed
    transactions), publishes the running thread (in TLS under the Section
    4.4 conflict removals, else in a global), charges costs and enforces
    virtual-time order. *)

val release : t -> Rvm.Vmthread.t -> Rvm.Vmthread.t list
(** Release; returns every parked waiter to wake (they re-contend). *)

val enqueue_waiter : t -> Rvm.Vmthread.t -> unit

val should_yield : t -> Rvm.Vmthread.t -> bool
(** Pure-GIL scheme: has the timer tick passed with someone waiting? *)

val bump_timer : t -> Rvm.Vmthread.t -> unit
