(* The bytecode interpreter. [step] executes exactly one instruction for one
   thread and is the VM's only opcode handler: it matches the tagged
   bytecode directly, and each arm's sequence of simulated reads and writes
   is what the HTM engine sees (test/test_interp.ml's guest-corpus digest
   pins it). The runner owns scheduling, yield points and transactions.

   Invariants that make aborts and blocking safe:
   - all guest-visible mutations go through the HTM engine (rolled back on
     abort) or the thread registers (snapshotted at transaction begin and at
     each instruction by the runner);
   - an instruction performs heap allocation before any other guest-visible
     write, so a GC pause or an [Htm.Abort_now]/[Vmthread.Block] raised from
     the allocator never leaves a half-executed instruction behind. *)

open Htm_sim
open Value

type step_result = Continue | Done of Value.t

let rd vm (th : Vmthread.t) addr = Htm.read vm.Vm.htm ~ctx:th.ctx addr
let wr vm (th : Vmthread.t) addr v = Htm.write vm.Vm.htm ~ctx:th.ctx addr v

let push vm (th : Vmthread.t) v =
  if th.sp >= th.stack_limit then guest_error "stack level too deep";
  wr vm th th.sp v;
  th.sp <- th.sp + 1

let pop vm (th : Vmthread.t) =
  th.sp <- th.sp - 1;
  rd vm th th.sp

let peek vm (th : Vmthread.t) k = rd vm th (th.sp - 1 - k)

let int_cell vm th addr =
  match rd vm th addr with
  | VInt i -> i
  | v -> guest_error "expected int cell, got %s" (to_string v)

let frame_flags vm th fp = int_cell vm th (fp + Vmthread.f_flags)
let frame_self vm th fp = rd vm th (fp + Vmthread.f_self)

let code_of_cell vm th fp =
  match rd vm th (fp + Vmthread.f_code) with
  | VCode c -> c
  | v -> guest_error "corrupt frame: %s" (to_string v)

(* Walk from [fp] to the nearest non-block (method or toplevel) frame. *)
let rec method_frame vm th fp =
  if frame_flags vm th fp land Vmthread.flag_block <> 0 then
    method_frame vm th (int_cell vm th (fp + Vmthread.f_defining_fp))
  else fp

(* Push a new frame. Arguments are the [argc] cells below [th.sp]; the
   caller's sp after return is [th.sp - argc - extra_pop]. *)
let push_frame vm (th : Vmthread.t) ~(code : code) ~self ~block ~defining_fp
    ~flags ~argc ~extra_pop =
  let base = th.sp in
  if base + Vmthread.frame_hdr + code.nlocals >= th.stack_limit then
    guest_error "stack level too deep";
  let caller_sp = th.sp - argc - extra_pop in
  let arg_base = th.sp - argc in
  wr vm th (base + Vmthread.f_code) (VCode code);
  wr vm th (base + Vmthread.f_self) self;
  (match block with
  | None ->
      wr vm th (base + Vmthread.f_block_code) VNil;
      wr vm th (base + Vmthread.f_block_fp) (vint (-1));
      wr vm th (base + Vmthread.f_block_self) VNil
  | Some (bcode, bfp, bself) ->
      wr vm th (base + Vmthread.f_block_code) (VCode bcode);
      wr vm th (base + Vmthread.f_block_fp) (vint bfp);
      wr vm th (base + Vmthread.f_block_self) bself);
  wr vm th (base + Vmthread.f_caller_fp) (vint th.fp);
  wr vm th (base + Vmthread.f_caller_pc) (vint (th.pc + 1));
  wr vm th (base + Vmthread.f_caller_sp) (vint caller_sp);
  wr vm th (base + Vmthread.f_defining_fp) (vint defining_fp);
  wr vm th (base + Vmthread.f_flags) (vint flags);
  let locals = base + Vmthread.frame_hdr in
  let n_copy = min argc code.arity in
  for i = 0 to n_copy - 1 do
    wr vm th (locals + i) (rd vm th (arg_base + i))
  done;
  for i = n_copy to code.nlocals - 1 do
    wr vm th (locals + i) VNil
  done;
  th.fp <- base;
  th.sp <- locals + code.nlocals;
  th.pc <- 0;
  th.code <- code

(* Return from frame [fp] with value [ret]. *)
let leave_from vm (th : Vmthread.t) fp ret =
  let caller_fp = int_cell vm th (fp + Vmthread.f_caller_fp) in
  if caller_fp < 0 then begin
    th.result <- ret;
    th.status <- Vmthread.Finished;
    Some ret
  end
  else begin
    let caller_pc = int_cell vm th (fp + Vmthread.f_caller_pc) in
    let caller_sp = int_cell vm th (fp + Vmthread.f_caller_sp) in
    th.fp <- caller_fp;
    th.code <- code_of_cell vm th caller_fp;
    th.pc <- caller_pc;
    th.sp <- caller_sp;
    push vm th ret;
    None
  end

(* ---- method dispatch --------------------------------------------------- *)

let encode_meth = function
  | Klass.Bytecode c -> VCode c
  | Klass.Prim p -> VInt p

(* Touch the method-table regions along a lookup chain: models CRuby's
   hash probes during method resolution. *)
let charge_lookup vm th (k : Klass.t) depth =
  let rec go (k : Klass.t) d =
    if d > 0 then begin
      ignore (rd vm th k.mtbl_base);
      ignore (rd vm th (k.mtbl_base + 1));
      match k.super with Some s -> go s (d - 1) | None -> ()
    end
  in
  go k depth

(* Resolve [sym] on receiver [recv]; returns the method plus the cache guard
   id (distinguishing class objects from ordinary instances). *)
let resolve vm th recv sym =
  let k = Vm.class_of vm recv in
  match (k.kind, recv) with
  | Klass.K_class_obj, VRef a ->
      let target =
        Klass.get vm.Vm.classes (int_cell vm th (a + Layout.k_class_id))
      in
      let guard = (2 * target.id) + 1 in
      (match Klass.lookup_static target sym with
      | Some (m, depth) ->
          charge_lookup vm th target depth;
          (Some m, guard, target)
      | None -> (None, guard, target))
  | _ ->
      let guard = 2 * k.id in
      (match Klass.lookup k sym with
      | Some (m, depth) ->
          charge_lookup vm th k depth;
          (Some m, guard, k)
      | None -> (None, guard, k))

(* CPython-style reference counting: touching an object INCREF/DECREFs it,
   i.e. writes its header. Modelled as one header write (a bit toggle:
   class id and mark live in the low bits). *)
let refcount_touch vm th recv =
  match recv with
  | VRef a when vm.Vm.opts.refcount_writes -> (
      let hd = rd vm th a in
      match hd with
      | VInt h when h >= 0 -> wr vm th a (vint (h lxor Layout.header_meta_bit))
      | _ -> ())
  | _ -> ()

(* The two invocation halves of a send, shared by the generic resolver
   path and the specialized monomorphic cache-hit path. *)
let invoke_bytecode vm (th : Vmthread.t) ~sym ~argc ~block ~recv (code : code)
    =
  if argc <> code.arity then
    guest_error "wrong number of arguments for %s (%d for %d)" (Sym.name sym)
      argc code.arity;
  let blk =
    match block with
    | None -> None
    | Some bcode -> Some (bcode, th.fp, frame_self vm th th.fp)
  in
  push_frame vm th ~code ~self:recv ~block:blk ~defining_fp:(-1) ~flags:0
    ~argc ~extra_pop:1

let invoke_prim vm (th : Vmthread.t) ~sym ~argc ~block ~recv p =
  if block <> None then
    guest_error "builtin method '%s' does not accept a block" (Sym.name sym);
  let args = Array.init argc (fun i -> peek vm th (argc - 1 - i)) in
  th.sp <- th.sp - argc - 1;
  let result = vm.Vm.prims.(p) vm th recv args in
  push vm th result;
  th.pc <- th.pc + 1

let undefined_method vm sym recv =
  guest_error "undefined method '%s' for %s" (Sym.name sym)
    (Vm.class_of vm recv).name

let invoke_meth vm th ~sym ~argc ~block ~recv = function
  | None -> undefined_method vm sym recv
  | Some (Klass.Bytecode code) ->
      invoke_bytecode vm th ~sym ~argc ~block ~recv code
  | Some (Klass.Prim p) -> invoke_prim vm th ~sym ~argc ~block ~recv p

(* Full send. The receiver is at sp-argc-1 and the arguments above it.
   [slot] is the send site's inline-cache slot; opt_* fallbacks pass -1 and
   resolve without the cache. On a monomorphic hit the method dispatches
   straight off the cached cell, allocating no option or constructor, which
   makes cached sends steady-state allocation-free. *)
let dispatch_slot vm (th : Vmthread.t) ~sym ~argc ~block ~slot =
  let recv = peek vm th argc in
  refcount_touch vm th recv;
  if slot < 0 then begin
    let m, _, _ = resolve vm th recv sym in
    invoke_meth vm th ~sym ~argc ~block ~recv m
  end
  else begin
    let cache = Vm.cache_addr vm slot in
    let guard_cell = rd vm th cache in
    let k = Vm.class_of vm recv in
    let quick_guard =
      match (k.kind, recv) with
      | Klass.K_class_obj, VRef a ->
          (2 * int_cell vm th (a + Layout.k_class_id)) + 1
      | _ -> 2 * k.id
    in
    match guard_cell with
    | VInt g when g = quick_guard -> (
        Obs.Metrics.incr vm.Vm.m_cache_hits;
        match rd vm th (cache + 1) with
        | VCode code -> invoke_bytecode vm th ~sym ~argc ~block ~recv code
        | VInt p when p >= 0 -> invoke_prim vm th ~sym ~argc ~block ~recv p
        | _ -> undefined_method vm sym recv)
    | _ ->
        Obs.Metrics.incr vm.Vm.m_cache_misses;
        let m, guard, _ = resolve vm th recv sym in
        (match m with
        | Some m' ->
            let already_filled = guard_cell <> VInt (-1) in
            (* Section 4.4: fill-once method caches avoid transactional
               cache-line ping-pong at polymorphic sites *)
            if not (vm.Vm.opts.conflict_removal && already_filled) then begin
              wr vm th cache (vint guard);
              wr vm th (cache + 1) (encode_meth m')
            end
        | None -> ());
        invoke_meth vm th ~sym ~argc ~block ~recv m
  end

(* Section 4.4: instance-variable caches guard on the ivar table, which a
   subclass shares until it adds an ivar of its own; original CRuby guards
   on the class. *)
let ivar_cache_guard vm (k : Klass.t) =
  if vm.Vm.opts.conflict_removal then k.ivar_tbl_id else k.id

(* ---- operators ---------------------------------------------------------- *)

let is_string vm v =
  match v with VRef _ -> (Vm.class_of vm v).kind = Klass.K_string | _ -> false

let box vm th v = Heap.alloc_box vm.Vm.heap th ~float_class_id:vm.Vm.c_float.id v

let ruby_div_int a b =
  if b = 0 then guest_error "divided by 0";
  let q = a / b and r = a mod b in
  if r <> 0 && (a < 0) <> (b < 0) then q - 1 else q

let ruby_mod_int a b =
  if b = 0 then guest_error "divided by 0";
  let r = a mod b in
  if r <> 0 && (r < 0) <> (b < 0) then r + b else r

(* Exponentiation by squaring. Int arithmetic wraps modulo 2^63, a ring, so
   this is the same product as [exp] successive multiplications, but takes
   O(log exp) steps: a guest exponent of 10^17 must not stall the host. *)
let rec int_pow base exp acc =
  if exp = 0 then acc
  else
    int_pow (base * base) (exp lsr 1)
      (if exp land 1 = 1 then acc * base else acc)

(* Arithmetic fast paths; fall back to a dynamic send for objects. *)
let arith vm th sym finsn =
  let b = peek vm th 0 and a = peek vm th 1 in
  match (a, b) with
  | VInt x, VInt y ->
      th.sp <- th.sp - 2;
      let v =
        match finsn with
        | Opt_plus -> vint (x + y)
        | Opt_minus -> vint (x - y)
        | Opt_mult -> vint (x * y)
        | Opt_div -> vint (ruby_div_int x y)
        | Opt_mod -> vint (ruby_mod_int x y)
        | Opt_pow ->
            if y >= 0 then vint (int_pow x y 1)
            else begin
              let f = float_of_int x ** float_of_int y in
              box vm th (VFloat f);
              VFloat f
            end
        | _ -> assert false
      in
      push vm th v;
      th.pc <- th.pc + 1
  | (VFloat _ | VInt _), (VFloat _ | VInt _) ->
      th.sp <- th.sp - 2;
      let fx = match a with VFloat f -> f | VInt i -> float_of_int i | _ -> 0.
      and fy = match b with VFloat f -> f | VInt i -> float_of_int i | _ -> 0. in
      let f =
        match finsn with
        | Opt_plus -> fx +. fy
        | Opt_minus -> fx -. fy
        | Opt_mult -> fx *. fy
        | Opt_div -> fx /. fy
        | Opt_mod -> Float.rem fx fy
        | Opt_pow -> fx ** fy
        | _ -> assert false
      in
      box vm th (VFloat f);
      push vm th (VFloat f);
      th.pc <- th.pc + 1
  | VRef _, _ -> dispatch_slot vm th ~sym ~argc:1 ~block:None ~slot:(-1)
  | _ ->
      guest_error "%s cannot be coerced (%s %s %s)" (type_name b)
        (to_string a) (Sym.name sym) (to_string b)

let compare_fast vm th finsn =
  let b = peek vm th 0 and a = peek vm th 1 in
  match (a, b) with
  | VInt x, VInt y ->
      (* int-int dominates the loop workloads: compare without boxing
         floats or allocating options *)
      th.sp <- th.sp - 2;
      let r =
        match finsn with
        | Opt_lt -> x < y
        | Opt_le -> x <= y
        | Opt_gt -> x > y
        | Opt_ge -> x >= y
        | _ -> assert false
      in
      push vm th (if r then VTrue else VFalse);
      th.pc <- th.pc + 1
  | _ -> (
  let num = function VInt i -> Some (float_of_int i) | VFloat f -> Some f | _ -> None in
  match (num a, num b) with
  | Some x, Some y ->
      th.sp <- th.sp - 2;
      let r =
        match finsn with
        | Opt_lt -> x < y
        | Opt_le -> x <= y
        | Opt_gt -> x > y
        | Opt_ge -> x >= y
        | _ -> assert false
      in
      push vm th (if r then VTrue else VFalse);
      th.pc <- th.pc + 1
  | _ ->
      let sym =
        match finsn with
        | Opt_lt -> Sym.s_lt
        | Opt_le -> Sym.s_le
        | Opt_gt -> Sym.s_gt
        | Opt_ge -> Sym.s_ge
        | _ -> assert false
      in
      if is_string vm a && is_string vm b then begin
        let sa = match a with VRef ra -> Objects.string_content vm th ra | _ -> ""
        and sb = match b with VRef rb -> Objects.string_content vm th rb | _ -> "" in
        th.sp <- th.sp - 2;
        let c = String.compare sa sb in
        let r =
          match finsn with
          | Opt_lt -> c < 0
          | Opt_le -> c <= 0
          | Opt_gt -> c > 0
          | Opt_ge -> c >= 0
          | _ -> assert false
        in
        push vm th (if r then VTrue else VFalse);
        th.pc <- th.pc + 1
      end
      else dispatch_slot vm th ~sym ~argc:1 ~block:None ~slot:(-1))

let equality vm th ~negate =
  let b = peek vm th 0 and a = peek vm th 1 in
  let direct r =
    th.sp <- th.sp - 2;
    let r = if negate then not r else r in
    push vm th (if r then VTrue else VFalse);
    th.pc <- th.pc + 1
  in
  match (a, b) with
  | VInt x, VInt y -> direct (x = y)
  | VFloat x, VFloat y -> direct (x = y)
  | VInt x, VFloat y | VFloat y, VInt x -> direct (float_of_int x = y)
  | VSym x, VSym y -> direct (x = y)
  | (VNil | VTrue | VFalse), _ | _, (VNil | VTrue | VFalse) -> direct (a = b)
  | VRef x, VRef y when is_string vm a && is_string vm b ->
      direct
        (String.equal (Objects.string_content vm th x) (Objects.string_content vm th y))
  | VRef _, _ ->
      let pc = th.pc in
      dispatch_slot vm th ~sym:Sym.s_eq ~argc:1 ~block:None ~slot:(-1);
      (* a != b: a prim [==] has pushed its result and advanced the pc;
         negate that result in place *)
      if negate && th.pc = pc + 1 then
        push vm th (if truthy (pop vm th) then VFalse else VTrue)
  | _ -> direct (a = b)

(* ---- the main step ------------------------------------------------------ *)

(* Frame base [depth] lexical levels up. Top-level (not a closure inside
   [step]): Getlocal/Setlocal run on every other instruction and must not
   allocate. *)
let rec local_base vm th fp d =
  if d = 0 then fp
  else local_base vm th (int_cell vm th (fp + Vmthread.f_defining_fp)) (d - 1)

let rec step vm (th : Vmthread.t) : step_result =
  Htm.set_cur_ctx vm.Vm.htm th.ctx;
  match th.code.insns.(th.pc) with
  | Nop ->
      th.pc <- th.pc + 1;
      Continue
  | Push v ->
      push vm th v;
      th.pc <- th.pc + 1;
      Continue
  | Pushself ->
      push vm th (frame_self vm th th.fp);
      th.pc <- th.pc + 1;
      Continue
  | Pop ->
      th.sp <- th.sp - 1;
      th.pc <- th.pc + 1;
      Continue
  | Dup ->
      push vm th (peek vm th 0);
      th.pc <- th.pc + 1;
      Continue
  | Dup2 ->
      let a = peek vm th 1 and b = peek vm th 0 in
      push vm th a;
      push vm th b;
      th.pc <- th.pc + 1;
      Continue
  | Getlocal (idx, depth) ->
      let fp = local_base vm th th.fp depth in
      push vm th (rd vm th (fp + Vmthread.frame_hdr + idx));
      th.pc <- th.pc + 1;
      Continue
  | Setlocal (idx, depth) ->
      let fp = local_base vm th th.fp depth in
      let v = pop vm th in
      wr vm th (fp + Vmthread.frame_hdr + idx) v;
      th.pc <- th.pc + 1;
      Continue
  | Getivar (sym, slot) ->
      let self = frame_self vm th th.fp in
      (match self with
      | VRef a ->
          let k = Vm.class_of vm self in
          let guard = ivar_cache_guard vm k in
          let cache = Vm.cache_addr vm slot in
          let idx =
            match (rd vm th cache, rd vm th (cache + 1)) with
            | VInt g, VInt i when g = guard -> Some i
            | _ -> (
                match Klass.ivar_index k sym with
                | Some i ->
                    wr vm th cache (vint guard);
                    wr vm th (cache + 1) (vint i);
                    Some i
                | None -> None)
          in
          (match idx with
          | Some i -> push vm th (rd vm th (a + i))
          | None -> push vm th VNil)
      | _ -> guest_error "instance variable access on %s" (type_name self));
      th.pc <- th.pc + 1;
      Continue
  | Setivar (sym, slot) ->
      let self = frame_self vm th th.fp in
      (match self with
      | VRef a ->
          let k = Vm.class_of vm self in
          let idx =
            match Klass.ivar_index ~create:true k sym with
            | Some i -> i
            | None -> assert false
          in
          let cache = Vm.cache_addr vm slot in
          wr vm th cache (vint (ivar_cache_guard vm k));
          wr vm th (cache + 1) (vint idx);
          let v = pop vm th in
          wr vm th (a + idx) v
      | _ -> guest_error "instance variable assignment on %s" (type_name self));
      th.pc <- th.pc + 1;
      Continue
  | Getcvar sym ->
      let k = Vm.class_of vm (frame_self vm th th.fp) in
      push vm th (rd vm th (Vm.cvar_cell vm k.id sym));
      th.pc <- th.pc + 1;
      Continue
  | Setcvar sym ->
      let k = Vm.class_of vm (frame_self vm th th.fp) in
      let v = pop vm th in
      wr vm th (Vm.cvar_cell vm k.id sym) v;
      th.pc <- th.pc + 1;
      Continue
  | Getglobal sym ->
      push vm th (rd vm th (Vm.gvar_cell vm sym));
      th.pc <- th.pc + 1;
      Continue
  | Setglobal sym ->
      let v = pop vm th in
      wr vm th (Vm.gvar_cell vm sym) v;
      th.pc <- th.pc + 1;
      Continue
  | Getconst sym ->
      let v = rd vm th (Vm.const_cell vm sym) in
      if v = VNil then guest_error "uninitialized constant %s" (Sym.name sym);
      push vm th v;
      th.pc <- th.pc + 1;
      Continue
  | Setconst sym ->
      let v = pop vm th in
      wr vm th (Vm.const_cell vm sym) v;
      th.pc <- th.pc + 1;
      Continue
  | Newarray n ->
      let slot = Objects.new_array vm th ~len:n ~fill:VNil in
      let data = Objects.array_data vm th slot in
      for i = 0 to n - 1 do
        wr vm th (data + i) (peek vm th (n - 1 - i))
      done;
      th.sp <- th.sp - n;
      push vm th (VRef slot);
      th.pc <- th.pc + 1;
      Continue
  | Newarray_sized ->
      (* stack: [n, fill] *)
      let fill = peek vm th 0 and n = peek vm th 1 in
      let n = match n with VInt i -> i | VNil -> 0 | _ -> guest_error "Array.new size" in
      let slot = Objects.new_array vm th ~len:n ~fill in
      th.sp <- th.sp - 2;
      push vm th (VRef slot);
      th.pc <- th.pc + 1;
      Continue
  | Newhash n ->
      let slot = Objects.new_hash vm th ~cap:(max 8 (2 * n)) in
      for i = n - 1 downto 0 do
        let v = peek vm th (2 * (n - 1 - i))
        and k = peek vm th ((2 * (n - 1 - i)) + 1) in
        Objects.hash_set vm th slot k v
      done;
      th.sp <- th.sp - (2 * n);
      push vm th (VRef slot);
      th.pc <- th.pc + 1;
      Continue
  | Newrange excl ->
      let slot =
        Objects.new_range vm th ~lo:(peek vm th 1) ~hi:(peek vm th 0) ~excl
      in
      th.sp <- th.sp - 2;
      push vm th (VRef slot);
      th.pc <- th.pc + 1;
      Continue
  | Newstring s ->
      let slot = Objects.new_string vm th s in
      push vm th (VRef slot);
      th.pc <- th.pc + 1;
      Continue
  | Newinstance site -> new_instance vm th site
  | Newthread site -> new_thread_insn vm th site
  | Send site ->
      dispatch_slot vm th ~sym:site.ss_sym ~argc:site.ss_argc
        ~block:site.ss_block ~slot:site.ss_cache;
      Continue
  | Invokeblock argc -> invoke_block vm th argc
  | Opt_plus ->
      (* strings: "+" concatenates *)
      if is_string vm (peek vm th 1) then
        dispatch_slot vm th ~sym:Sym.s_plus ~argc:1 ~block:None ~slot:(-1)
      else arith vm th Sym.s_plus Opt_plus;
      Continue
  | (Opt_minus | Opt_mult | Opt_div | Opt_mod | Opt_pow) as op ->
      let sym =
        match op with
        | Opt_minus -> Sym.s_minus
        | Opt_mult -> Sym.s_mult
        | Opt_div -> Sym.s_div
        | Opt_mod -> Sym.s_mod
        | _ -> Sym.s_pow
      in
      (* the same left-operand read [Opt_plus] charges for its string test *)
      ignore (peek vm th 1);
      arith vm th sym op;
      Continue
  | (Opt_lt | Opt_le | Opt_gt | Opt_ge) as op ->
      compare_fast vm th op;
      Continue
  | Opt_eq ->
      equality vm th ~negate:false;
      Continue
  | Opt_neq ->
      let b = peek vm th 0 and a = peek vm th 1 in
      (match (a, b) with
      | VRef _, _ when not (is_string vm a) ->
          (* dynamic: a != b is !(a == b); keep it simple with identity *)
          th.sp <- th.sp - 2;
          push vm th (if a = b then VFalse else VTrue);
          th.pc <- th.pc + 1
      | _ -> equality vm th ~negate:true);
      Continue
  | Opt_aref -> opt_aref vm th
  | Opt_aset -> opt_aset vm th
  | Opt_ltlt -> opt_ltlt vm th
  | Opt_not ->
      let v = pop vm th in
      push vm th (if truthy v then VFalse else VTrue);
      th.pc <- th.pc + 1;
      Continue
  | Opt_neg ->
      let v = pop vm th in
      (match v with
      | VInt i -> push vm th (vint (-i))
      | VFloat f ->
          box vm th (VFloat (-.f));
          push vm th (VFloat (-.f))
      | _ -> guest_error "cannot negate %s" (type_name v));
      th.pc <- th.pc + 1;
      Continue
  | Jump t ->
      th.pc <- t;
      Continue
  | Branchif t ->
      let v = pop vm th in
      th.pc <- (if truthy v then t else th.pc + 1);
      Continue
  | Branchunless t ->
      let v = pop vm th in
      th.pc <- (if truthy v then th.pc + 1 else t);
      Continue
  | Leave ->
      let ret = pop vm th in
      let flags = frame_flags vm th th.fp in
      let ret =
        if flags land Vmthread.flag_constructor <> 0 then frame_self vm th th.fp
        else ret
      in
      (match leave_from vm th th.fp ret with
      | Some v -> Done v
      | None -> Continue)
  | Return_insn ->
      let ret = pop vm th in
      let m = method_frame vm th th.fp in
      (match leave_from vm th m ret with Some v -> Done v | None -> Continue)
  | Break_insn -> do_break vm th
  | Defmethod (sym, code) ->
      if Htm.in_txn vm.Vm.htm th.ctx then
        Htm.tabort vm.Vm.htm ~ctx:th.ctx Txn.Explicit
      else if Htm.software_active vm.Vm.htm th.ctx then
        Htm.software_abort vm.Vm.htm th.ctx Txn.Explicit;
      let k = Vm.class_of vm (frame_self vm th th.fp) in
      Klass.define_method k sym (Klass.Bytecode code);
      wr vm th k.mtbl_base (vint sym);
      push vm th (VSym sym);
      th.pc <- th.pc + 1;
      Continue
  | Defclass cd -> defclass vm th cd

and new_instance vm th (site : send_site) =
  let argc = site.ss_argc in
  let cls = peek vm th argc in
  let target =
    match cls with
    | VRef a when (Vm.class_of vm cls).kind = Klass.K_class_obj ->
        Klass.get vm.Vm.classes (int_cell vm th (a + Layout.k_class_id))
    | _ -> guest_error "new on non-class %s" (to_string cls)
  in
  let finish_value v =
    th.sp <- th.sp - argc - 1;
    push vm th v;
    th.pc <- th.pc + 1;
    Continue
  in
  match target.kind with
  | Klass.K_array ->
      let n = if argc >= 1 then peek vm th (argc - 1) else VInt 0 in
      let fill = if argc >= 2 then peek vm th (argc - 2) else VNil in
      let n = match n with VInt i -> i | _ -> guest_error "Array.new size" in
      let slot = Objects.new_array vm th ~len:n ~fill in
      finish_value (VRef slot)
  | Klass.K_hash -> finish_value (VRef (Objects.new_hash vm th ~cap:8))
  | Klass.K_string ->
      let s =
        if argc >= 1 then
          match peek vm th (argc - 1) with
          | VRef a -> Objects.string_content vm th a
          | v -> Objects.display vm th v
        else ""
      in
      finish_value (VRef (Objects.new_string vm th s))
  | Klass.K_range ->
      if argc < 2 then guest_error "Range.new needs lo, hi";
      let lo = peek vm th (argc - 1) and hi = peek vm th (argc - 2) in
      finish_value (VRef (Objects.new_range vm th ~lo ~hi ~excl:false))
  | Klass.K_mutex ->
      let slot = Objects.new_plain vm th target in
      wr vm th (slot + Layout.m_locked) (vint 0);
      wr vm th (slot + Layout.m_owner) (vint (-1));
      wr vm th (slot + Layout.m_waiters) (vint 0);
      finish_value (VRef slot)
  | Klass.K_condvar ->
      let slot = Objects.new_plain vm th target in
      wr vm th (slot + Layout.c_waiters) (vint 0);
      finish_value (VRef slot)
  | _ -> (
      let slot = Objects.new_plain vm th target in
      match Klass.lookup target Sym.s_initialize with
      | Some (Klass.Bytecode code, depth) ->
          charge_lookup vm th target depth;
          if argc <> code.arity then
            guest_error "wrong number of arguments for initialize (%d for %d)"
              argc code.arity;
          let blk =
            match site.ss_block with
            | None -> None
            | Some bcode -> Some (bcode, th.fp, frame_self vm th th.fp)
          in
          push_frame vm th ~code ~self:(VRef slot) ~block:blk ~defining_fp:(-1)
            ~flags:Vmthread.flag_constructor ~argc ~extra_pop:1;
          (* the constructor frame returns self; the class object beneath the
             args was accounted for via extra_pop *)
          Continue
      | Some (Klass.Prim p, _) ->
          let args = Array.init argc (fun i -> peek vm th (argc - 1 - i)) in
          th.sp <- th.sp - argc - 1;
          ignore (vm.Vm.prims.(p) vm th (VRef slot) args);
          push vm th (VRef slot);
          th.pc <- th.pc + 1;
          Continue
      | None ->
          if argc > 0 then
            guest_error "wrong number of arguments for %s.new" target.name;
          finish_value (VRef slot))

and new_thread_insn vm th (site : send_site) =
  if Htm.in_txn vm.Vm.htm th.ctx then Htm.tabort vm.Vm.htm ~ctx:th.ctx Txn.Explicit
  else if Htm.software_active vm.Vm.htm th.ctx then
    Htm.software_abort vm.Vm.htm th.ctx Txn.Explicit;
  let argc = site.ss_argc in
  let bcode =
    match site.ss_block with
    | Some c -> c
    | None -> guest_error "Thread.new requires a block"
  in
  let obj = Heap.alloc_slot vm.Vm.heap th ~class_id:vm.Vm.c_thread.id in
  let nt = Vm.new_thread vm ~code:bcode ~obj in
  wr vm th (obj + Layout.t_tid) (vint nt.tid);
  (* build the new thread's first frame (spawner does the work) *)
  let base = nt.stack_base in
  let self = frame_self vm th th.fp in
  wr vm th (base + Vmthread.f_code) (VCode bcode);
  wr vm th (base + Vmthread.f_self) self;
  wr vm th (base + Vmthread.f_block_code) VNil;
  wr vm th (base + Vmthread.f_block_fp) (vint (-1));
  wr vm th (base + Vmthread.f_block_self) VNil;
  wr vm th (base + Vmthread.f_caller_fp) (vint (-1));
  wr vm th (base + Vmthread.f_caller_pc) (vint 0);
  wr vm th (base + Vmthread.f_caller_sp) (vint base);
  wr vm th (base + Vmthread.f_defining_fp) (vint th.fp);
  wr vm th (base + Vmthread.f_flags) (vint Vmthread.flag_block);
  let locals = base + Vmthread.frame_hdr in
  let n_copy = min argc bcode.arity in
  for i = 0 to n_copy - 1 do
    wr vm th (locals + i) (peek vm th (argc - 1 - i))
  done;
  for i = n_copy to bcode.nlocals - 1 do
    wr vm th (locals + i) VNil
  done;
  nt.fp <- base;
  nt.sp <- locals + bcode.nlocals;
  nt.pc <- 0;
  nt.clock <- th.clock;
  th.sp <- th.sp - argc;
  (* one more live thread *)
  let live = int_cell vm th vm.Vm.g_live in
  wr vm th vm.Vm.g_live (vint (live + 1));
  push vm th (VRef obj);
  th.pc <- th.pc + 1;
  Continue

and invoke_block vm th argc =
  let m = method_frame vm th th.fp in
  match rd vm th (m + Vmthread.f_block_code) with
  | VCode bcode ->
      let bfp = int_cell vm th (m + Vmthread.f_block_fp) in
      let bself = rd vm th (m + Vmthread.f_block_self) in
      push_frame vm th ~code:bcode ~self:bself ~block:None ~defining_fp:bfp
        ~flags:Vmthread.flag_block ~argc ~extra_pop:0;
      Continue
  | _ -> guest_error "no block given (yield)"

and do_break vm th =
  let ret = pop vm th in
  let cur_code = th.code in
  let cur_def = int_cell vm th (th.fp + Vmthread.f_defining_fp) in
  (* find the frame that received this block and return from it *)
  let rec find fp =
    if fp < 0 then guest_error "break from orphan block"
    else
      match rd vm th (fp + Vmthread.f_block_code) with
      | VCode c when c == cur_code && int_cell vm th (fp + Vmthread.f_block_fp) = cur_def ->
          fp
      | _ -> find (int_cell vm th (fp + Vmthread.f_caller_fp))
  in
  let target = find (int_cell vm th (th.fp + Vmthread.f_caller_fp)) in
  match leave_from vm th target ret with Some v -> Done v | None -> Continue

and defclass vm th (cd : class_def) =
  if Htm.in_txn vm.Vm.htm th.ctx then Htm.tabort vm.Vm.htm ~ctx:th.ctx Txn.Explicit
  else if Htm.software_active vm.Vm.htm th.ctx then
    Htm.software_abort vm.Vm.htm th.ctx Txn.Explicit;
  let name = Sym.name cd.cd_name in
  let k =
    match Klass.find vm.Vm.classes name with
    | Some k -> k
    | None ->
        let super =
          match cd.cd_super with
          | None -> vm.Vm.c_object
          | Some s -> (
              match Klass.find vm.Vm.classes (Sym.name s) with
              | Some sk -> sk
              | None -> guest_error "unknown superclass %s" (Sym.name s))
        in
        Vm.define_class vm ~super ~kind:Klass.K_object name
  in
  List.iter (fun (sym, code) -> Klass.define_method k sym (Klass.Bytecode code)) cd.cd_methods;
  List.iter
    (fun (sym, get_slot, set_slot) ->
      let getter =
        Compiler.make_code ~name:(Sym.name sym) ~kind:Method ~arity:0 ~nlocals:0
          [| Getivar (sym, get_slot); Leave |]
      in
      let setter =
        Compiler.make_code ~name:(Sym.name sym ^ "=") ~kind:Method ~arity:1 ~nlocals:1
          [| Getlocal (0, 0); Setivar (sym, set_slot); Getlocal (0, 0); Leave |]
      in
      Klass.define_method k sym (Klass.Bytecode getter);
      Klass.define_method k (Sym.intern (Sym.name sym ^ "=")) (Klass.Bytecode setter))
    cd.cd_attrs;
  wr vm th k.mtbl_base (vint cd.cd_name);
  Vm.bind_class_const vm k;
  push vm th (rd vm th (Vm.const_cell vm cd.cd_name));
  th.pc <- th.pc + 1;
  Continue

and opt_aref vm th =
  let i = peek vm th 0 and a = peek vm th 1 in
  refcount_touch vm th a;
  match a with
  | VRef slot -> (
      let k = Vm.class_of vm a in
      match (k.kind, i) with
      | Klass.K_array, VInt idx ->
          th.sp <- th.sp - 2;
          push vm th (Objects.array_get vm th slot idx);
          th.pc <- th.pc + 1;
          Continue
      | Klass.K_hash, _ ->
          th.sp <- th.sp - 2;
          push vm th (Objects.hash_get vm th slot i);
          th.pc <- th.pc + 1;
          Continue
      | Klass.K_string, VInt idx ->
          let s = Objects.string_content vm th slot in
          th.sp <- th.sp - 2;
          let len = String.length s in
          let idx = if idx < 0 then len + idx else idx in
          if idx < 0 || idx >= len then push vm th VNil
          else push vm th (VRef (Objects.new_string vm th (String.make 1 s.[idx])));
          th.pc <- th.pc + 1;
          Continue
      | _ ->
          dispatch_slot vm th ~sym:Sym.s_aref ~argc:1 ~block:None ~slot:(-1);
          Continue)
  | _ -> guest_error "cannot index %s" (type_name a)

and opt_aset vm th =
  let v = peek vm th 0 and i = peek vm th 1 and a = peek vm th 2 in
  refcount_touch vm th a;
  match a with
  | VRef slot -> (
      let k = Vm.class_of vm a in
      match (k.kind, i) with
      | Klass.K_array, VInt idx ->
          th.sp <- th.sp - 3;
          Objects.array_set vm th slot idx v;
          push vm th v;
          th.pc <- th.pc + 1;
          Continue
      | Klass.K_hash, _ ->
          th.sp <- th.sp - 3;
          Objects.hash_set vm th slot i v;
          push vm th v;
          th.pc <- th.pc + 1;
          Continue
      | _ ->
          dispatch_slot vm th ~sym:Sym.s_aset ~argc:2 ~block:None ~slot:(-1);
          Continue)
  | _ -> guest_error "cannot index-assign %s" (type_name a)

and opt_ltlt vm th =
  let b = peek vm th 0 and a = peek vm th 1 in
  match a with
  | VInt x ->
      (match b with
      | VInt y ->
          th.sp <- th.sp - 2;
          push vm th (vint (x lsl y));
          th.pc <- th.pc + 1
      | _ -> guest_error "bad shift amount");
      Continue
  | VRef slot when (Vm.class_of vm a).kind = Klass.K_array ->
      th.sp <- th.sp - 2;
      Objects.array_push vm th slot b;
      push vm th a;
      th.pc <- th.pc + 1;
      Continue
  | VRef slot when (Vm.class_of vm a).kind = Klass.K_string ->
      let s = Objects.string_content vm th slot in
      let extra =
        match b with
        | VRef rb when is_string vm b -> Objects.string_content vm th rb
        | v -> Objects.display vm th v
      in
      th.sp <- th.sp - 2;
      Objects.string_set_content vm th slot (s ^ extra);
      push vm th a;
      th.pc <- th.pc + 1;
      Continue
  | _ ->
      dispatch_slot vm th ~sym:Sym.s_ltlt ~argc:1 ~block:None ~slot:(-1);
      Continue
