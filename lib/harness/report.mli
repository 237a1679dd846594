(** Plain-text table rendering for experiment results. *)

val hr : Format.formatter -> int -> unit
val header : Format.formatter -> string -> unit

val series_table :
  Format.formatter ->
  title:string ->
  xlabel:string ->
  rows:string list ->
  xs:string list ->
  cell:(string -> int -> float option) ->
  unit
