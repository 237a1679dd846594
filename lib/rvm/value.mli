(** Guest values and compiled code.

    [VRef addr] points at a heap slot header in the simulated store; every
    mutable guest datum lives behind such a reference so the HTM engine sees
    all shared state. [VCode] and [VStrData] only appear in internal cells
    (method caches, frame headers, string payloads), never as values a guest
    program can observe directly. *)

type t =
  | VNil
  | VTrue
  | VFalse
  | VInt of int
  | VFloat of float
  | VSym of int
  | VRef of int  (** heap object: store address of the slot header *)
  | VCode of code  (** internal: compiled method or block *)
  | VStrData of string  (** internal: string payload cell *)

and code = {
  code_name : string;
  uid : int;  (** unique id, keys the per-yield-point adjustment tables *)
  kind : code_kind;
  arity : int;
  nlocals : int;  (** parameters first, then other locals *)
  insns : insn array;
  dcode : dcode;
      (** decoded from [insns] when the code is made ([Compiler.make_code]) *)
}

(** What the runner consults before every instruction, per pc: the cost
    class and membership in both yield-point sets. pcs are the bytecode
    pcs, so txlen tables, abort attribution and yield decisions index the
    instructions the interpreter executes. *)
and dcode = {
  cost : int array;  (** cost class, an index into [Compiler.cost_table] *)
  yield_orig : Bytes.t;  (** '\001' where the original set yields *)
  yield_ext : Bytes.t;  (** '\001' where the extended set yields *)
}

and code_kind = Method | Block | Toplevel

and send_site = {
  ss_sym : int;
  ss_argc : int;
  ss_block : code option;
  ss_cache : int;  (** inline-cache slot index within the program *)
}

and insn =
  | Push of t
  | Pushself
  | Pop
  | Dup
  | Dup2  (** duplicate the two top stack cells (for [a[i] op= v]) *)
  | Getlocal of int * int  (** index, scope depth (0 = current) *)
  | Setlocal of int * int
  | Getivar of int * int  (** symbol, cache slot *)
  | Setivar of int * int
  | Getcvar of int
  | Setcvar of int
  | Getglobal of int
  | Setglobal of int
  | Getconst of int
  | Setconst of int
  | Newarray of int
  | Newarray_sized
  | Newhash of int
  | Newrange of bool
  | Newstring of string
  | Newinstance of send_site  (** Const.new(...) *)
  | Newthread of send_site  (** Thread.new(...) { ... } *)
  | Send of send_site
  | Invokeblock of int  (** yield with argc arguments *)
  | Opt_plus
  | Opt_minus
  | Opt_mult
  | Opt_div
  | Opt_mod
  | Opt_pow
  | Opt_eq
  | Opt_neq
  | Opt_lt
  | Opt_le
  | Opt_gt
  | Opt_ge
  | Opt_aref
  | Opt_aset
  | Opt_ltlt
  | Opt_not
  | Opt_neg
  | Jump of int
  | Branchif of int
  | Branchunless of int
  | Leave
  | Return_insn  (** explicit [return]: unwinds blocks to the method *)
  | Break_insn
  | Defmethod of int * code
  | Defclass of class_def
  | Nop

and class_def = {
  cd_name : int;
  cd_super : int option;
  cd_methods : (int * code) list;
  cd_attrs : (int * int * int) list;
      (** attr_accessor: (symbol, getter cache slot, setter cache slot) *)
}

type program = {
  main : code;
  n_caches : int;  (** inline-cache slots to reserve at load time *)
}

val small_int_min : int
val small_int_max : int

val vint : int -> t
(** [VInt n], served from a preallocated intern table for
    [small_int_min <= n <= small_int_max] (CPython-style small-int caching,
    sized to cover hot loop counters and array indices) and freshly boxed
    outside it. Only immutable immediate integers are interned — never
    [VRef]/[VFloat]/string data — so sharing is unobservable to guests.
    Interpreter and runner hot paths construct ints through this instead of
    [VInt] to keep the per-instruction step loop allocation-free. *)

type uid_state = int ref
(** A per-session code-uid counter. The domain-local slot holds the
    {e active} one; sessions own theirs and re-activate it on runner entry
    (uids are drawn at runtime too — [defclass] synthesizes accessor
    codes). *)

val fresh_uid_state : unit -> uid_state
val activate_uid_state : uid_state -> unit
val current_uid_state : unit -> uid_state

val fresh_code_uid : unit -> int

val truthy : t -> bool
val type_name : t -> string
val pp : Format.formatter -> t -> unit
val to_string : t -> string

exception Guest_error of string
(** A guest-level runtime error (undefined method, type error, ...). *)

val guest_error : ('a, Format.formatter, unit, 'b) format4 -> 'a
