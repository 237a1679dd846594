(* Slot and object layouts. Every heap object is one 8-cell slot:
   cell 0 is the header, cells 1..7 the payload. The header is
   [VInt (class_id * 2 + mark)] for a live object and [VInt (-1)] for a free
   slot (whose cell 1 then links the free list). *)

let slot_cells = 8
let n_fields = 7

(* Array *)
let a_len = 1
let a_cap = 2
let a_data = 3

(* String: payload text lives in [s_str] as an internal [VStrData]; a malloc
   region of [s_cap] cells backs its transactional footprint. *)
let s_len = 1
let s_str = 2
let s_data = 3
let s_cap = 4

(* Hash: open-addressed table of 2*cap cells (key, value pairs). *)
let h_count = 1
let h_cap = 2
let h_data = 3

(* Range *)
let r_lo = 1
let r_hi = 2
let r_excl = 3

(* Proc *)
let p_code = 1
let p_fp = 2
let p_self = 3

(* Thread *)
let t_tid = 1

(* Mutex *)
let m_locked = 1
let m_owner = 2
let m_waiters = 3

(* ConditionVariable *)
let c_waiters = 1

(* Reified class object *)
let k_class_id = 1

let header_of_class class_id = Value.vint (class_id * 2)
let free_header = Value.VInt (-1)

(* Bits 24+ of a live header are scratch: the CPython-style refcount mode
   toggles them to model per-object reference-count write traffic. *)
let header_meta_bit = 1 lsl 24

let class_id_of_header = function
  | Value.VInt h when h >= 0 -> (h land (header_meta_bit - 1)) / 2
  | _ -> Value.guest_error "corrupt or free slot header"

let is_free_header = function Value.VInt -1 -> true | _ -> false
let is_marked = function Value.VInt h -> h >= 0 && h land 1 = 1 | _ -> false

(* Through [Value.vint]: class headers sit inside its intern range unless
   the refcount meta bit is set, so marking and unmarking allocate nothing. *)
let with_mark = function
  | Value.VInt h when h >= 0 -> Value.vint (h lor 1)
  | v -> v

let without_mark = function
  | Value.VInt h when h >= 0 -> Value.vint (h land lnot 1)
  | v -> v

(* Cells needed to back [len] bytes of string payload. *)
let string_region_cells len = max 1 ((len + 7) / 8)
