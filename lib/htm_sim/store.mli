(** The simulated memory: a growable array of cells addressed by integers.
    One cell models 8 bytes; a cache line of [line_cells] cells. [reserve]
    hands out address ranges like sbrk; callers build their own allocators
    on top.

    The backing is paged: every page that has never been written is one
    shared all-dummy page, so an untouched reservation costs one page-table
    slot and no cells. Addresses and line ids do not depend on the paging. *)

type 'a t

val create :
  ?recycled:'a array list -> dummy:'a -> line_cells:int -> int -> 'a t
(** [create ~dummy ~line_cells initial] makes a store whose unwritten cells
    read as [dummy], with a page table spanning at least [initial] cells.
    [?recycled] are pages from {!retire}: first writes take them (re-filled
    with [dummy]) before allocating fresh ones. *)

val capacity : 'a t -> int
(** The page table's span, in cells: addresses below it need no growth. *)

val page_cells : int
(** Cells per page of the backing. *)

val resident_cells : 'a t -> int
(** Cells backed by pages of their own (pages that have been written): a
    multiple of {!page_cells}. *)

val brk : 'a t -> int
(** First unreserved address. *)

val dummy : 'a t -> 'a
(** The filler value unreserved cells read as. *)

val set_on_grow : 'a t -> (int -> unit) -> unit
(** Install the capacity-growth hook and invoke it immediately with the
    current capacity (in cells); it is called again with the new span each
    time the page table grows. Single consumer: the HTM engine uses it to
    grow the page tables of its paged per-line metadata in lockstep with
    the store, so its hot path never bounds-checks a line id. Installing a
    new hook replaces the previous one. *)

val line_cells : 'a t -> int
(** Cells per cache line. *)

val line_of : 'a t -> int -> int
(** Cache-line id of an address. *)

val reserve : 'a t -> int -> int
(** Reserve [n] cells; returns the base address. *)

val reserve_aligned : 'a t -> int -> int
(** Like {!reserve} but the base starts a cache line (for padded,
    false-sharing-free structures). *)

val get : 'a t -> int -> 'a
(** Bounds-checked read. @raise Invalid_argument outside reserved space. *)

val set : 'a t -> int -> 'a -> unit
(** Bounds-checked write. @raise Invalid_argument outside reserved space. *)

val get_unsafe : 'a t -> int -> 'a
(** Unchecked read for the interpreter's hot path. *)

val set_unsafe : 'a t -> int -> 'a -> unit
(** Unchecked write for the interpreter's hot path. The first write to a
    page gives it an array of its own. *)

val retire : 'a t -> 'a array list
(** Hand every page the store owns back for a later [create ~recycled] and
    neuter the store (subsequent checked accesses raise). *)
