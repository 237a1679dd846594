(* The simulated memory: a growable array of cells addressed by integers.
   One cell models 8 bytes. All guest-visible mutable state of the VM lives
   here so that transactional footprint tracking, conflict detection,
   rollback and false sharing are uniform.

   [reserve] hands out address ranges like sbrk; callers build their own
   allocators (slot arena, malloc pools, frame stacks) on top.

   The backing is paged: a page table of fixed [page_cells]-cell pages in
   which every page nobody has written yet is one shared all-dummy page. A
   reservation that is never touched (most of each thread's frame stack)
   therefore costs one page-table slot, not its cells; the first write to a
   page gives it an array of its own. Only the host representation is
   paged: addresses, and with them line ids, are the same as over a flat
   array.

   Pages are 1,024 cells (8 KB). The servers run a thread per request, and
   a request thread writes only its 8-cell struct and the first frame of
   its 32,768-cell stack reservation. The struct ends the reservation and
   the next thread's stack starts right after it, so each thread owns
   about one page. At 4,096 cells that page was 32 KB, and the request
   threads' pages set the serving cells' peak memory; 512-cell pages
   save only 1.2-1.4% more of it than 1,024.

   The HTM engine pages its per-line metadata the same way, so its tables
   too cost memory only for the lines transactions touch. Its page tables
   cover this store's capacity (the page table's span); [set_on_grow] lets
   it grow them in lockstep so its hot path never bounds-checks a line
   id. *)

let page_shift = 10
let page_cells = 1 lsl page_shift
let page_mask = page_cells - 1

type 'a t = {
  dummy : 'a;
  zero : 'a array;
      (** the shared all-dummy page every unwritten page-table slot points
          at; [set_unsafe] never writes into it *)
  mutable pages : 'a array array;
  mutable free : 'a array list;
      (** recycled pages ([create ~recycled]), refilled with the dummy when
          a first write takes one *)
  mutable resident : int;  (** pages with an array of their own *)
  mutable brk : int;  (** first unreserved address *)
  line_cells : int;
  line_shift : int;
      (** log2 line_cells: line ids are computed on every simulated memory
          access, so use a shift instead of a division *)
  mutable on_grow : int -> unit;
      (** called with the new capacity (in cells) after the page table
          grows; single consumer (the HTM engine's line page tables) *)
}

let create ?(recycled = []) ~dummy ~line_cells initial =
  if line_cells <= 0 || line_cells land (line_cells - 1) <> 0 then
    invalid_arg "Store.create: line_cells must be a power of two";
  let line_shift =
    let rec go s n = if n = 1 then s else go (s + 1) (n lsr 1) in
    go 0 line_cells
  in
  let n_pages = max 1 ((initial + page_mask) lsr page_shift) in
  let zero = Array.make page_cells dummy in
  {
    dummy;
    zero;
    pages = Array.make n_pages zero;
    free = recycled;
    resident = 0;
    brk = 0;
    line_cells;
    line_shift;
    on_grow = ignore;
  }

let capacity t = Array.length t.pages lsl page_shift
let brk t = t.brk
let dummy t = t.dummy
let resident_cells t = t.resident lsl page_shift
let line_cells t = t.line_cells
let line_of t addr = addr lsr t.line_shift

let set_on_grow t f =
  t.on_grow <- f;
  (* sync the consumer with the current capacity immediately *)
  f (capacity t)

(* Growth copies page pointers, never cells. *)
let ensure t n =
  let len = Array.length t.pages in
  if n > len lsl page_shift then begin
    let len' = ref len in
    while n > !len' lsl page_shift do
      len' := !len' * 2
    done;
    let pages = Array.make !len' t.zero in
    Array.blit t.pages 0 pages 0 len;
    t.pages <- pages;
    t.on_grow (!len' lsl page_shift)
  end

(* Reserve [n] cells and return the base address. *)
let reserve t n =
  if n < 0 then invalid_arg "Store.reserve";
  let base = t.brk in
  t.brk <- t.brk + n;
  ensure t t.brk;
  base

(* Reserve [n] cells starting on a cache-line boundary. Used for padded
   (false-sharing-free) structures, per Section 4.4 of the paper. *)
let reserve_aligned t n =
  let rem = t.brk mod t.line_cells in
  if rem <> 0 then ignore (reserve t (t.line_cells - rem));
  reserve t n

let[@inline] get_unsafe t addr =
  Array.unsafe_get
    (Array.unsafe_get t.pages (addr lsr page_shift))
    (addr land page_mask)

(* First write to page [i]: give it an array of its own, reusing a recycled
   page when there is one. Out of line so [set_unsafe] stays small. *)
let[@inline never] own_page t i =
  let page =
    match t.free with
    | p :: rest ->
        t.free <- rest;
        Array.fill p 0 page_cells t.dummy;
        p
    | [] -> Array.make page_cells t.dummy
  in
  t.pages.(i) <- page;
  t.resident <- t.resident + 1;
  page

let[@inline] set_unsafe t addr v =
  let i = addr lsr page_shift in
  let page = Array.unsafe_get t.pages i in
  let page = if page == t.zero then own_page t i else page in
  Array.unsafe_set page (addr land page_mask) v

let get t addr =
  if addr < 0 || addr >= t.brk then
    invalid_arg (Printf.sprintf "Store.get: address %d out of bounds" addr);
  get_unsafe t addr

let set t addr v =
  if addr < 0 || addr >= t.brk then
    invalid_arg (Printf.sprintf "Store.set: address %d out of bounds" addr);
  set_unsafe t addr v

(* Hand every page this store owns — written ones and recycled ones it never
   needed — back for reuse by a later [create ~recycled], and neuter the
   store: any subsequent checked access raises. *)
let retire t =
  let pages =
    Array.fold_left
      (fun acc p -> if p == t.zero then acc else p :: acc)
      t.free t.pages
  in
  t.pages <- [| t.zero |];
  t.free <- [];
  t.resident <- 0;
  t.brk <- 0;
  pages
