(* A tiny embedded relational store standing in for SQLite3.

   Like the real SQLite3 extension under CRuby, calls into it execute as
   C code protected by the GIL; the cost model below reports how many
   "pages" a statement touched so the VM can charge footprint and cycles. *)

type value = Int of int | Text of string

type table = {
  name : string;
  columns : string array;
  mutable rows : value array list;  (** newest first *)
  mutable n_rows : int;
}

type t = { tables : (string, table) Hashtbl.t; page_rows : int }

let create ?(page_rows = 16) () = { tables = Hashtbl.create 8; page_rows }

let create_table db name columns =
  let table = { name; columns; rows = []; n_rows = 0 } in
  Hashtbl.replace db.tables name table;
  table

let table db name = Hashtbl.find_opt db.tables name

let insert db name values =
  match table db name with
  | None -> invalid_arg ("minidb: no table " ^ name)
  | Some t ->
      if Array.length values <> Array.length t.columns then
        invalid_arg "minidb: column count mismatch";
      t.rows <- values :: t.rows;
      t.n_rows <- t.n_rows + 1

let column_index t col =
  let rec go i =
    if i >= Array.length t.columns then None
    else if t.columns.(i) = col then Some i
    else go (i + 1)
  in
  go 0

type query_result = {
  rows : value array list;
  pages_touched : int;  (** full scan cost, for the VM's footprint model *)
}

(* SELECT * FROM name [WHERE col = v] [LIMIT n]. Always a scan: SQLite with
   no index behaves the same and that is what Rails' findAll does. *)
let select db name ?where ?limit () =
  match table db name with
  | None -> invalid_arg ("minidb: no table " ^ name)
  | Some t ->
      let pred =
        match where with
        | None -> fun _ -> true
        | Some (col, v) -> (
            match column_index t col with
            | None -> invalid_arg ("minidb: no column " ^ col)
            | Some i -> fun row -> row.(i) = v)
      in
      let limit = Option.value limit ~default:max_int in
      let picked = ref [] and count = ref 0 in
      (* scan in insertion order, like a table scan over the pages *)
      List.iter
        (fun row ->
          if !count < limit && pred row then begin
            picked := row :: !picked;
            incr count
          end)
        (List.rev t.rows);
      {
        rows = List.rev !picked;
        pages_touched = 1 + (t.n_rows / db.page_rows);
      }

let count db name = match table db name with Some t -> t.n_rows | None -> 0
