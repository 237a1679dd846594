(** The synchronisation schemes under evaluation (the legend of the paper's
    Figures 5-9). *)

type kind =
  | Gil_only  (** original CRuby: the Giant VM Lock *)
  | Htm_fixed of int  (** fixed transaction length (HTM-1/-16/-256) *)
  | Htm_dynamic  (** the paper's dynamic transaction-length adjustment *)
  | Hybrid
      (** HTM whose persistent/capacity aborts retry as software
          transactions; the GIL remains the last-resort escape *)
  | Stm_only  (** every window runs as a software transaction *)
  | Fine_grained  (** JRuby-style locking (Figure 9 baseline) *)
  | Free_parallel  (** Java-style free parallelism (Figure 9 baseline) *)

val to_string : kind -> string

val of_string : string -> kind
(** Case-insensitive; accepts "gil", "htm-N", "htm-dynamic", "hybrid",
    "stm", "fine-grained"/"jruby", "free-parallel"/"java" (so every
    {!to_string} form round-trips). @raise Invalid_argument with a message
    enumerating the accepted names otherwise. *)

val accepted_names : string
(** The list embedded in the [of_string] error message. *)

val uses_htm : kind -> bool
val uses_stm : kind -> bool
val htm_mode : kind -> Htm_sim.Htm.mode

val adjust_options : kind -> Rvm.Options.t -> Rvm.Options.t
(** Align VM options with the execution model (TLAB allocation and no GC for
    the Figure 9 baselines; JRuby's residual allocation accounting). *)
