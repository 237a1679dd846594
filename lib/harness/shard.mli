(** Sharded multi-domain serving: N complete VM+scheduler instances (full
    {!Core.Runner}s, each with its own Store/Htm/Stm/Gil and session
    interning context) behind a netsim load balancer that splits one
    globally-generated open-loop arrival schedule across per-shard
    [Netsim.Fed] sockets and merges the per-shard results deterministically
    in shard order. The [SHARDS] environment variable (like [BENCH_JOBS]) is
    a placement knob only: it sets how many worker domains drive the
    shards, and results are bit-identical at any value, under any
    shard-to-domain placement, and across both schedulers. *)

type policy =
  | Round_robin
      (** arrival i goes to shard i mod N, assigned up front; the shards
          run to completion fully in parallel (the shared-nothing scaling
          path) *)
  | Least_in_flight
      (** lockstep virtual-time epochs: at each barrier the balancer
          assigns the next window's arrivals to the shard with the fewest
          outstanding requests, computed from virtual-time-stamped
          observations at the barrier (never raw counters, which are
          scheduler-dependent under horizon overshoot) *)

val policy_to_string : policy -> string

val policy_of_string : string -> policy
(** Accepts "round-robin"/"rr" and "least-in-flight"/"lif".
    @raise Invalid_argument otherwise. *)

val default_shard_jobs : unit -> int
(** The [SHARDS] environment variable (default 1, clamped to 64).
    @raise Invalid_argument if set but not a positive integer. *)

type config = {
  workload : Workloads.Workload.t;
  machine : Htm_sim.Machine.t;
  scheme : Core.Scheme.kind;
  shards : int;
  clients : int;  (** keep-alive slots of the global schedule *)
  size : Workloads.Size.t;
  arrivals : Netsim.arrivals;  (** the global schedule: Poisson or Burst *)
  requests : int;  (** total requests, split across the shards *)
  policy : policy;
  mix : Netsim.mix;
  shared_session : bool;
      (** also replay the shards' completions against one shared session
          store mediated by the hybrid TM engine (the
          contended-vs-shared-nothing ablation) *)
  epoch : int;  (** balancer epoch length, in virtual cycles *)
}

val config :
  ?policy:policy ->
  ?mix:Netsim.mix ->
  ?shared_session:bool ->
  ?epoch:int ->
  workload:Workloads.Workload.t ->
  machine:Htm_sim.Machine.t ->
  scheme:Core.Scheme.kind ->
  shards:int ->
  clients:int ->
  size:Workloads.Size.t ->
  arrivals:Netsim.arrivals ->
  requests:int ->
  unit ->
  config
(** @raise Invalid_argument on [shards < 1], a non-positive epoch, or
    closed-loop/fed arrivals. *)

(** Counters of the shared session-store replay: per epoch window, each
    shard with completions runs one hardware transaction over its
    completed clients' session slots; transactions overlap across shards
    (all access before any commits), so contended slots produce real
    requester-wins aborts, software retries, and commit-clock cascades —
    deterministically, in (epoch window, shard, conn id) order. *)
type session_stats = {
  mutable sn_updates : int;  (** session-slot updates attempted *)
  mutable sn_waves : int;  (** replay waves (epoch windows with activity) *)
  mutable sn_htm_commits : int;
  mutable sn_htm_aborts : int;
  mutable sn_stm_commits : int;
  mutable sn_stm_aborts : int;
  mutable sn_gil_falls : int;  (** waves that fell through to direct writes *)
}

val n_session_slots : int

val replay_session :
  Htm_sim.Machine.t ->
  epoch:int ->
  (int * int * int) list array ->
  session_stats
(** [replay_session machine ~epoch logs]: pure function of the per-shard
    completion logs ([(finish, conn_id, client)], oldest first). Exposed
    for tests. *)

type shard_slice = {
  sh_assigned : int;
  sh_completed : int;
  sh_dropped : int;
  sh_timed_out : int;
  sh_wall_cycles : int;
  sh_htm_commits : int;
  sh_htm_aborts : int;
  sh_fb_gil : int;
  sh_fb_stm : int;
}

type result = {
  r_shards : int;
  r_policy : policy;
  r_issued : int;
  r_completed : int;
  r_dropped : int;
  r_timed_out : int;
  r_churned : int;  (** keep-alive churn of the global schedule *)
  r_p50_cycles : int;
  r_p95_cycles : int;
  r_p99_cycles : int;
  r_mean_cycles : float;
  r_aggregate_rps : float;
      (** total completions over the span to the last completion (virtual
          time) — the sharded analogue of [Netsim.achieved_load] *)
  r_wall_cycles : int;  (** max shard wall clock *)
  r_htm : Htm_sim.Stats.t;  (** per-shard stats merged in shard order *)
  r_stm : Stm.stats;
  r_fb_gil : int;
  r_fb_stm : int;
  r_metrics : Obs.Metrics.t;  (** merged registries, shard order *)
  r_per_shard : shard_slice list;
  r_session : session_stats option;
}

val run : ?jobs:int -> config -> result
(** Generate the global schedule, boot the shards, balance, serve, merge.
    [jobs] overrides {!default_shard_jobs} (tests compare placements). *)
