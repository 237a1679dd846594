(* The Giant VM Lock. The "acquired" word lives in the simulated store so
   transactions can subscribe to it (TLE reads it right after TBEGIN and is
   aborted through cache-coherence when anyone acquires the lock).

   Parking/waking is the runner's job; this module owns the queues and the
   lock-word writes. *)

open Htm_sim

type t = {
  vm : Rvm.Vm.t;
  mutable owner : int;  (** tid, -1 when free *)
  mutable waiters : Rvm.Vmthread.t list;
      (** threads parked until the lock is released (acquirers and
          spin_and_gil_acquire callers alike); release wakes all of them and
          they re-contend, so no stale queue entries can exist *)
  mutable next_timer : int;
  timer_interval : int;
  mutable free_since : int;
      (** virtual time of the last release: acquisitions may not begin
          earlier, so GIL-held intervals never overlap in simulated time *)
  mutable acquisitions : int;
  mutable tracer : Obs.Trace.t option;  (** installed by the runner *)
}

(* CRuby's timer thread ticks every 250 ms; scaled to the simulation's pace
   (virtual 1 GHz, workloads scaled ~50x down) we use 250k cycles. *)
let create ?(timer_interval = 250_000) vm =
  {
    vm;
    owner = -1;
    waiters = [];
    next_timer = timer_interval;
    timer_interval;
    free_since = 0;
    acquisitions = 0;
    tracer = None;
  }

let emit_event t (th : Rvm.Vmthread.t) kind =
  match t.tracer with
  | None -> ()
  | Some tr ->
      Obs.Trace.emit tr
        { Obs.Event.ts = th.clock; tid = th.tid; ctx = th.ctx; kind }

let acquired_cell t = t.vm.Rvm.Vm.g_gil

(* Engine read: inside a transaction this subscribes the GIL word into the
   read set (Figure 1 line 15). *)
let read_acquired t (th : Rvm.Vmthread.t) =
  Htm.read t.vm.Rvm.Vm.htm ~ctx:th.ctx (acquired_cell t) <> Rvm.Value.VInt 0

let held_by t (th : Rvm.Vmthread.t) = t.owner = th.tid

(* Take the free lock. The non-transactional write to the lock word aborts
   every subscribed transaction — exactly the TLE fallback semantics. *)
let take t (th : Rvm.Vmthread.t) =
  assert (t.owner = -1);
  t.owner <- th.tid;
  t.acquisitions <- t.acquisitions + 1;
  let costs = t.vm.Rvm.Vm.machine.costs in
  th.clock <- Int.max th.clock t.free_since + costs.cyc_gil_acquire;
  (* software transactions live across an acquisition can never commit (the
     scheme's lock-dirty check refuses them) and must not run as zombies
     while the holder mutates the store around the engine (GC) *)
  Htm.abort_all_software ~except:th.ctx t.vm.Rvm.Vm.htm Htm_sim.Txn.Conflict;
  Htm.write t.vm.Rvm.Vm.htm ~ctx:th.ctx (acquired_cell t) (Rvm.Value.vint 1);
  Htm.write t.vm.Rvm.Vm.htm ~ctx:th.ctx t.vm.Rvm.Vm.g_gil_owner (Rvm.Value.vint th.tid);
  (* the interpreter caches the running thread in globals (conflict #1) or
     in thread-local storage once the Section 4.4 fix is applied *)
  if t.vm.Rvm.Vm.opts.tls_current_thread then begin
    th.clock <- th.clock + costs.cyc_tls;
    Htm.write t.vm.Rvm.Vm.htm ~ctx:th.ctx
      (th.struct_base + Rvm.Vmthread.st_tls_current)
      (Rvm.Value.vint th.tid)
  end
  else
    Htm.write t.vm.Rvm.Vm.htm ~ctx:th.ctx t.vm.Rvm.Vm.g_current_thread
      (Rvm.Value.vint th.tid);
  emit_event t th Obs.Event.Gil_acquire

(* Release; returns every parked waiter: they re-contend when scheduled. *)
let release t (th : Rvm.Vmthread.t) =
  assert (t.owner = th.tid);
  t.owner <- -1;
  let costs = t.vm.Rvm.Vm.machine.costs in
  th.clock <- th.clock + costs.cyc_gil_release;
  Htm.write t.vm.Rvm.Vm.htm ~ctx:th.ctx (acquired_cell t) (Rvm.Value.vint 0);
  Htm.write t.vm.Rvm.Vm.htm ~ctx:th.ctx t.vm.Rvm.Vm.g_gil_owner (Rvm.Value.vint (-1));
  t.free_since <- th.clock;
  emit_event t th Obs.Event.Gil_release;
  let wake = t.waiters in
  t.waiters <- [];
  wake

let enqueue_waiter t (th : Rvm.Vmthread.t) =
  if not (List.memq th t.waiters) then t.waiters <- t.waiters @ [ th ]

(* Timer-thread emulation for the pure-GIL scheme: has the 250 ms tick
   passed and is anyone waiting? *)
let should_yield t (th : Rvm.Vmthread.t) =
  th.clock >= t.next_timer && match t.waiters with [] -> false | _ -> true

let bump_timer t (th : Rvm.Vmthread.t) =
  while t.next_timer <= th.clock do
    t.next_timer <- t.next_timer + t.timer_interval
  done
