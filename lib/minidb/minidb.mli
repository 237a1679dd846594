(** A tiny embedded relational store standing in for SQLite3. Like the real
    SQLite3 extension under CRuby, statements execute as C code protected by
    the GIL; the [pages_touched] cost lets the VM charge footprint and
    cycles per statement. *)

type value = Int of int | Text of string

type table = {
  name : string;
  columns : string array;
  mutable rows : value array list;
  mutable n_rows : int;
}

type t

val create : ?page_rows:int -> unit -> t
val create_table : t -> string -> string array -> table
val table : t -> string -> table option

val insert : t -> string -> value array -> unit
(** @raise Invalid_argument on unknown table or column-count mismatch. *)

type query_result = {
  rows : value array list;  (** insertion order *)
  pages_touched : int;  (** full-scan cost for the VM's footprint model *)
}

val select :
  t -> string -> ?where:string * value -> ?limit:int -> unit -> query_result
(** SELECT * FROM t [WHERE col = v] [LIMIT n]; always a table scan, like
    SQLite with no index. *)

val count : t -> string -> int
