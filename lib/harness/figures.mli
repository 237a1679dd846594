(** One driver per figure family of the paper's evaluation section. Each
    runs its sweep, prints the series the paper plots, and returns the
    family's JSON; {!families} tabulates them for the CLI's [fig] and
    [digests] commands. *)

val wl : string -> Workloads.Workload.t

type panel = {
  workload : string;
  machine : string;
  baseline_wall : int;  (** 1-thread GIL *)
  cells : (string * int, float) Hashtbl.t;
      (** (scheme, threads) -> throughput normalised to 1-thread GIL *)
  aborts : (string * int, float) Hashtbl.t;
  metrics : Obs.Metrics.t;
      (** the points' registries, merged in (scheme, threads) grid order —
          deterministic regardless of the worker count *)
}

val run_panel :
  ?schemes:Core.Scheme.kind list ->
  ?size:Workloads.Size.t ->
  machine:Htm_sim.Machine.t ->
  threads_list:int list ->
  string ->
  panel

type fig6a_point = { iteration : int; written_kb : int; success_pct : float }

val fig6a : ?iters_per_phase:int -> Format.formatter -> fig6a_point list
(** The Haswell write-set shrink test (24/20/16/12 KB phases). *)

val hybrid_machine : Htm_sim.Machine.t
(** zEC12 with a quarter of the store-buffer budget, so capacity overflow
    (and therefore the fallback path) dominates. *)

val offered_loads : string -> float list
(** The offered-load sweep (req/s) for a workload name, chosen to straddle
    every scheme's closed-loop capacity. *)

val load_seed : int
(** The arrival-schedule seed shared by the whole load family: every scheme
    at a given rate sees the identical arrival schedule. *)

type load_point = {
  lp_scheme : string;
  lp_offered : float;
  lp_stats : Exp.load;
}

type load_panel = {
  lp_workload : string;
  lp_machine : string;
  lp_clients : int;
  lp_arrival : string;  (** "poisson" or "burst-N" *)
  lp_points : load_point list;  (** scheme-major, offered-load-minor *)
}

val run_load_panel :
  ?schemes:Core.Scheme.kind list ->
  ?size:Workloads.Size.t ->
  ?clients:int ->
  ?burst:int ->
  machine:Htm_sim.Machine.t ->
  string ->
  load_panel
(** Open-loop sweep of one server workload: schemes x {!offered_loads},
    Poisson arrivals (or bursts of [burst] when given). *)

val load_cell : load_panel -> string -> float -> load_point option
(** [load_cell panel scheme offered]: one grid cell, if present. *)

val load_json : load_panel -> Obs.Json.t
(** One panel of the results file's [load] member. *)

(** {2 The family table} *)

type family = {
  name : string;  (** the CLI's [fig] name, e.g. ["future-work"] *)
  member : string;
      (** the results-file member: ["figures"], or the family's own member
          (["hybrid"], ["load"], ["shard"], ["clock"]) *)
  key : string;
      (** the series key inside ["figures"] (["future_work"]), or the
          member name; also the family's key under [host] *)
  run : Workloads.Size.t -> Format.formatter -> Obs.Json.t;
      (** run the sweep, print its tables, return its JSON *)
}

val families : family list
(** Figures 4-9, the Section 5.4 ablations, the Section 5.6 overhead and
    future-work panels, the Section 7 refcount ablation, then the hybrid,
    load, shard and clock families, in results-file order. *)

val results :
  size:Workloads.Size.t ->
  (family * Obs.Json.t * float * int option) list ->
  Obs.Json.t
(** The results file for the given runs, each a family with its JSON, its
    host seconds and the process peak RSS in MB after it (if known):
    [producer], [size], [jobs], the ["figures"] object, each own member,
    then [host] (the seconds and [peak_rss_mb] by family key, outside
    every digest). *)

val digests : Obs.Json.t -> (string, string list) result
(** [Ok "figures=<hex> hybrid=<hex> load=<hex> shard=<hex> clock=<hex>"] —
    an FNV-1a digest of each simulated-data member, all byte-identical at
    any [BENCH_JOBS] — or [Error problems] naming every
    missing member and ["figures"] series. *)
