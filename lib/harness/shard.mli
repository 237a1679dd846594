(** Sharded multi-domain serving: N complete VM+scheduler instances (full
    {!Core.Runner}s, each with its own Store/Htm/Stm/Gil and session
    interning context) behind a netsim load balancer that splits one
    globally-generated open-loop arrival schedule round-robin across
    per-shard [Netsim.Fed] sockets and merges the per-shard results
    deterministically in shard order. Each shard is one pool job that
    boots its VM, runs it once over a socket that holds its whole
    sub-schedule, and releases it, so at most min(jobs, shards) VMs are live
    at once. The shards run on the [BENCH_JOBS] worker pool, and results
    are bit-identical at any worker count, under any shard-to-domain
    placement, and across both schedulers. *)

type policy =
  | Round_robin
      (** arrival i goes to shard i mod N, assigned up front; the shards
          run to completion fully in parallel (the shared-nothing scaling
          path). The only policy: {!config} keeps [?policy] because the
          benchmark ledger (bench/ledger/) passes it, and that directory
          changes only together with the benchmark. *)

type config = private {
  point : Exp.point;
      (** what every shard boots, and the global schedule's clients
          ([point.threads]), arrivals and mix *)
  shards : int;
  requests : int;  (** total requests, split across the shards *)
  shared_session : bool;
      (** also replay the shards' completions against one shared session
          store mediated by the hybrid TM engine (the
          contended-vs-shared-nothing ablation) *)
}

val of_point :
  ?shared_session:bool -> shards:int -> requests:int -> Exp.point -> config
(** Serve [point]'s open-loop stream with [shards] VMs, each booted by
    {!Exp.boot} and so honouring every knob the point carries. The point
    must carry no tracer: the shards run on several domains at once.
    @raise Invalid_argument on [shards < 1] or closed-loop/fed arrivals. *)

val config :
  ?policy:policy ->
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
(** {!of_point} of a point with default knobs and [threads = clients]. Kept
    because the benchmark ledger (bench/ledger/) calls it, and that
    directory changes only together with the benchmark. *)

(** Counters of the shared session-store replay: per fixed virtual-time
    window, each shard with completions runs one hardware transaction over
    its completed clients' session slots; transactions overlap across
    shards (all access before any commits), so contended slots produce
    real requester-wins aborts, software retries, and commit-clock
    cascades — deterministically, in (window, shard, conn id) order. *)
type session_stats = {
  mutable sn_updates : int;  (** session-slot updates attempted *)
  mutable sn_waves : int;  (** replay waves (windows with activity) *)
  mutable sn_htm_commits : int;
  mutable sn_htm_aborts : int;
  mutable sn_stm_commits : int;
  mutable sn_stm_aborts : int;
  mutable sn_gil_falls : int;  (** waves that fell through to direct writes *)
}

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
(** Generate the global schedule, split it, then serve each shard in its
    own job (boot, run, release), and merge. The shards run on the global
    {!Pool} ([BENCH_JOBS] workers); [jobs] runs them on a pool of that many
    workers instead (tests compare placements). *)
