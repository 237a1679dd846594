(* AST -> bytecode compiler. One lexical scope per method/block; blocks see
   the enclosing scope's locals through (index, depth) pairs like YARV. *)

open Value

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

(* ---- bytecode pre-decode: the runner's per-pc tables ----

   [Value.dcode] holds, per pc of a code, what the runner consults before
   every instruction: the cost class ([cost_table] turns it into cycles)
   and membership in both yield-point sets. This section is the only
   definition of both, and [make_code] attaches the tables to every code
   when it is made. *)

(* Cost classes; [cost_table] gives each one's cycles on a machine. *)
let cost_plain = 0
let cost_send = 1
let cost_thread = 2
let cost_alloc = 3
let cost_def = 4

let cost_class_of : insn -> int = function
  | Send _ | Invokeblock _ | Newinstance _ -> cost_send
  | Newthread _ -> cost_thread
  | Newarray _ | Newarray_sized | Newhash _ | Newstring _ | Newrange _ ->
      cost_alloc
  | Defclass _ | Defmethod _ -> cost_def
  | _ -> cost_plain

(* Base interpreter cycles per cost class, before memory-access charges;
   indexed by the [cost_*] ids above. *)
let cost_table (c : Htm_sim.Machine.costs) =
  [|
    c.cyc_insn;
    c.cyc_insn + c.cyc_send;
    c.cyc_insn + (10 * c.cyc_send);
    c.cyc_insn + c.cyc_alloc;
    4 * c.cyc_insn;
  |]

(* Yield-point sets (Sections 3.2 and 4.2). Original CRuby places yield
   points at loop back-edges and method/block exits. The paper adds
   getlocal, getinstancevariable, getclassvariable, send and the
   opt_plus/minus/mult/aref bytecodes, because the original points are too
   coarse for the HTM footprint — with the extended set, more than half of
   all executed bytecodes are yield points in the NPB. *)
let yields_original : insn -> bool = function
  | Jump _ | Branchif _ | Branchunless _ -> true  (* loop back-edges *)
  | Leave | Return_insn | Break_insn -> true  (* method/block exits *)
  | _ -> false

let yields_extended (i : insn) =
  match i with
  | Getlocal _ | Getivar _ | Getcvar _ -> true
  | Send _ | Newinstance _ | Invokeblock _ -> true
  | Opt_plus | Opt_minus | Opt_mult | Opt_aref -> true
  | _ -> yields_original i

(* Tabulate one bytecode array. O(n). *)
let decode_insns insns =
  let n = Array.length insns in
  let cost = Array.make n 0
  and yield_orig = Bytes.make n '\000'
  and yield_ext = Bytes.make n '\000' in
  for pc = 0 to n - 1 do
    let i = insns.(pc) in
    cost.(pc) <- cost_class_of i;
    if yields_original i then Bytes.set yield_orig pc '\001';
    if yields_extended i then Bytes.set yield_ext pc '\001'
  done;
  { cost; yield_orig; yield_ext }

let decode (code : code) = decode_insns code.insns

(* Every code object is made here: a fresh uid and its decoded tables,
   which never go stale because [insns] never changes. *)
let make_code ~name ~kind ~arity ~nlocals insns =
  {
    code_name = name;
    uid = Value.fresh_code_uid ();
    kind;
    arity;
    nlocals;
    insns;
    dcode = decode_insns insns;
  }

type scope = {
  parent : scope option;
  locals : (string, int) Hashtbl.t;
  mutable n_locals : int;
  kind : code_kind;
}

type loop_ctx = { mutable breaks : int list; mutable nexts : int list }

type emitter = {
  mutable insns : insn array;
  mutable count : int;
  scope : scope;
  caches : int ref;  (** program-wide inline-cache slot counter *)
  mutable loop_stack : loop_ctx list;
      (** enclosing [while]s in this scope; break/next jumps are recorded
          here and patched when the loop closes *)
}

let new_scope ?parent kind = { parent; locals = Hashtbl.create 8; n_locals = 0; kind }

let new_emitter ?parent ~caches kind =
  {
    insns = Array.make 16 Nop;
    count = 0;
    scope = new_scope ?parent kind;
    caches;
    loop_stack = [];
  }

let emit e insn =
  if e.count = Array.length e.insns then begin
    let bigger = Array.make (2 * e.count) Nop in
    Array.blit e.insns 0 bigger 0 e.count;
    e.insns <- bigger
  end;
  e.insns.(e.count) <- insn;
  e.count <- e.count + 1

let here e = e.count

(* Emit a branch with a to-be-patched target; returns the patch position. *)
let emit_branch e mk =
  let pos = e.count in
  emit e (mk (-1));
  pos

let patch e pos target =
  e.insns.(pos) <-
    (match e.insns.(pos) with
    | Jump _ -> Jump target
    | Branchif _ -> Branchif target
    | Branchunless _ -> Branchunless target
    | _ -> assert false)

let fresh_cache e =
  let c = !(e.caches) in
  e.caches := c + 1;
  c

(* Locals -------------------------------------------------------------- *)

let rec lookup_local scope name depth =
  match Hashtbl.find_opt scope.locals name with
  | Some idx -> Some (idx, depth)
  | None -> (
      match scope.parent with
      | Some p -> lookup_local p name (depth + 1)
      | None -> None)

let declare_local scope name =
  match Hashtbl.find_opt scope.locals name with
  | Some idx -> (idx, 0)
  | None ->
      let idx = scope.n_locals in
      scope.n_locals <- idx + 1;
      Hashtbl.add scope.locals name idx;
      (idx, 0)

(* Expressions ---------------------------------------------------------- *)

let binop_insn : Ast.binop -> insn = function
  | Add -> Opt_plus
  | Sub -> Opt_minus
  | Mul -> Opt_mult
  | Div -> Opt_div
  | Mod -> Opt_mod
  | Pow -> Opt_pow
  | Eq -> Opt_eq
  | Neq -> Opt_neq
  | Lt -> Opt_lt
  | Le -> Opt_le
  | Gt -> Opt_gt
  | Ge -> Opt_ge
  | Shl -> Opt_ltlt

let rec compile_expr e (expr : Ast.expr) =
  match expr with
  | Int i -> emit e (Push (VInt i))
  | Float f -> emit e (Push (VFloat f))
  | Str s -> emit e (Newstring s)
  | Str_interp parts ->
      (* "a#{x}b": build a fresh string and append each part with <<
         (non-strings render via their display form, like to_s) *)
      emit e (Newstring "");
      List.iter
        (fun part ->
          (match part with
          | Ast.Lit_part "" -> emit e (Push VNil)
          | Ast.Lit_part l -> emit e (Newstring l)
          | Ast.Expr_part ex -> compile_expr e ex);
          emit e Opt_ltlt)
        parts
  | Sym_lit s -> emit e (Push (VSym (Sym.intern s)))
  | Nil -> emit e (Push VNil)
  | True -> emit e (Push VTrue)
  | False -> emit e (Push VFalse)
  | Self -> emit e Pushself
  | Array_lit els ->
      List.iter (compile_expr e) els;
      emit e (Newarray (List.length els))
  | Hash_lit pairs ->
      List.iter
        (fun (k, v) ->
          compile_expr e k;
          compile_expr e v)
        pairs;
      emit e (Newhash (List.length pairs))
  | Range_lit (lo, hi, excl) ->
      compile_expr e lo;
      compile_expr e hi;
      emit e (Newrange excl)
  | Name n -> (
      match lookup_local e.scope n 0 with
      | Some (idx, depth) -> emit e (Getlocal (idx, depth))
      | None ->
          (* bare identifier with no local: a self-call *)
          emit e Pushself;
          emit e
            (Send { ss_sym = Sym.intern n; ss_argc = 0; ss_block = None; ss_cache = fresh_cache e }))
  | Ivar n -> emit e (Getivar (Sym.intern n, fresh_cache e))
  | Cvar n -> emit e (Getcvar (Sym.intern n))
  | Gvar n -> emit e (Getglobal (Sym.intern n))
  | Const n -> emit e (Getconst (Sym.intern n))
  | Asgn (lhs, rhs) -> compile_asgn e lhs rhs
  | Op_asgn (lhs, op, rhs) -> compile_op_asgn e lhs op rhs
  | Binop (op, a, b) ->
      compile_expr e a;
      compile_expr e b;
      emit e (binop_insn op)
  | Unop (Neg, Int i) -> emit e (Push (VInt (-i)))
  | Unop (Neg, Float f) -> emit e (Push (VFloat (-.f)))
  | Unop (Neg, a) ->
      compile_expr e a;
      emit e Opt_neg
  | Unop (Not, a) ->
      compile_expr e a;
      emit e Opt_not
  | And (a, b) ->
      compile_expr e a;
      emit e Dup;
      let j = emit_branch e (fun l -> Branchunless l) in
      emit e Pop;
      compile_expr e b;
      patch e j (here e)
  | Or (a, b) ->
      compile_expr e a;
      emit e Dup;
      let j = emit_branch e (fun l -> Branchif l) in
      emit e Pop;
      compile_expr e b;
      patch e j (here e)
  | Ternary (c, a, b) | If_expr (c, [ Expr_stmt a ], [ Expr_stmt b ]) ->
      compile_expr e c;
      let jelse = emit_branch e (fun l -> Branchunless l) in
      compile_expr e a;
      let jend = emit_branch e (fun l -> Jump l) in
      patch e jelse (here e);
      compile_expr e b;
      patch e jend (here e)
  | If_expr (c, t, f) ->
      compile_expr e c;
      let jelse = emit_branch e (fun l -> Branchunless l) in
      compile_body_value e t;
      let jend = emit_branch e (fun l -> Jump l) in
      patch e jelse (here e);
      compile_body_value e f;
      patch e jend (here e)
  | Yield args ->
      List.iter (compile_expr e) args;
      emit e (Invokeblock (List.length args))
  | Call (recv, name, args, block) -> compile_call e recv name args block

and compile_call e recv name args block =
  let blk = Option.map (compile_block e) block in
  let argc = List.length args in
  let site () =
    { ss_sym = Sym.intern name; ss_argc = argc; ss_block = blk; ss_cache = fresh_cache e }
  in
  match (recv, name) with
  | Some r, "[]" when argc = 1 && blk = None ->
      compile_expr e r;
      List.iter (compile_expr e) args;
      emit e Opt_aref
  | Some (Ast.Const "Thread"), "new" ->
      List.iter (compile_expr e) args;
      if blk = None then error "Thread.new requires a block";
      emit e (Newthread (site ()))
  | Some r, "new" ->
      compile_expr e r;
      List.iter (compile_expr e) args;
      emit e (Newinstance (site ()))
  | Some r, _ ->
      compile_expr e r;
      List.iter (compile_expr e) args;
      emit e (Send (site ()))
  | None, _ -> (
      (* a bare name with no args/block and a matching local is a variable *)
      match (args, blk, lookup_local e.scope name 0) with
      | [], None, Some (idx, depth) -> emit e (Getlocal (idx, depth))
      | _ ->
          emit e Pushself;
          List.iter (compile_expr e) args;
          emit e (Send (site ())))

and compile_block e (b : Ast.block) : code =
  let be = new_emitter ~parent:e.scope ~caches:e.caches Block in
  List.iter (fun p -> ignore (declare_local be.scope p)) b.blk_params;
  compile_body_value be b.blk_body;
  emit be Leave;
  make_code ~name:"block" ~kind:Block ~arity:(List.length b.blk_params)
    ~nlocals:be.scope.n_locals (Array.sub be.insns 0 be.count)

and compile_asgn e lhs rhs =
  match lhs with
  | L_name n ->
      compile_expr e rhs;
      let idx, depth =
        match lookup_local e.scope n 0 with
        | Some loc -> loc
        | None -> declare_local e.scope n
      in
      emit e Dup;
      emit e (Setlocal (idx, depth))
  | L_ivar n ->
      compile_expr e rhs;
      emit e Dup;
      emit e (Setivar (Sym.intern n, fresh_cache e))
  | L_cvar n ->
      compile_expr e rhs;
      emit e Dup;
      emit e (Setcvar (Sym.intern n))
  | L_gvar n ->
      compile_expr e rhs;
      emit e Dup;
      emit e (Setglobal (Sym.intern n))
  | L_const n ->
      compile_expr e rhs;
      emit e Dup;
      emit e (Setconst (Sym.intern n))
  | L_index (a, idxs) -> (
      match idxs with
      | [ i ] ->
          compile_expr e a;
          compile_expr e i;
          compile_expr e rhs;
          emit e Opt_aset
      | _ -> error "only single-index assignment is supported")
  | L_attr (r, m) ->
      compile_expr e r;
      compile_expr e rhs;
      emit e
        (Send
           { ss_sym = Sym.intern (m ^ "="); ss_argc = 1; ss_block = None; ss_cache = fresh_cache e })

and compile_op_asgn e lhs op rhs =
  match lhs with
  | L_name n ->
      let idx, depth =
        match lookup_local e.scope n 0 with
        | Some loc -> loc
        | None -> declare_local e.scope n
      in
      emit e (Getlocal (idx, depth));
      compile_expr e rhs;
      emit e (binop_insn op);
      emit e Dup;
      emit e (Setlocal (idx, depth))
  | L_ivar n ->
      let s = Sym.intern n in
      emit e (Getivar (s, fresh_cache e));
      compile_expr e rhs;
      emit e (binop_insn op);
      emit e Dup;
      emit e (Setivar (s, fresh_cache e))
  | L_cvar n ->
      let s = Sym.intern n in
      emit e (Getcvar s);
      compile_expr e rhs;
      emit e (binop_insn op);
      emit e Dup;
      emit e (Setcvar s)
  | L_gvar n ->
      let s = Sym.intern n in
      emit e (Getglobal s);
      compile_expr e rhs;
      emit e (binop_insn op);
      emit e Dup;
      emit e (Setglobal s)
  | L_const _ -> error "constant op-assign is not supported"
  | L_index (a, idxs) -> (
      match idxs with
      | [ i ] ->
          compile_expr e a;
          compile_expr e i;
          emit e Dup2;
          emit e Opt_aref;
          compile_expr e rhs;
          emit e (binop_insn op);
          emit e Opt_aset
      | _ -> error "only single-index op-assignment is supported")
  | L_attr (r, m) ->
      compile_expr e r;
      emit e Dup;
      emit e
        (Send { ss_sym = Sym.intern m; ss_argc = 0; ss_block = None; ss_cache = fresh_cache e });
      compile_expr e rhs;
      emit e (binop_insn op);
      emit e
        (Send
           { ss_sym = Sym.intern (m ^ "="); ss_argc = 1; ss_block = None; ss_cache = fresh_cache e })

(* Statements ----------------------------------------------------------- *)

(* Compile a statement, leaving no value on the stack. *)
and compile_stmt e (stmt : Ast.stmt) =
  match stmt with
  | Expr_stmt ex ->
      compile_expr e ex;
      emit e Pop
  | If (c, t, f) ->
      compile_expr e c;
      let jelse = emit_branch e (fun l -> Branchunless l) in
      List.iter (compile_stmt e) t;
      let jend = emit_branch e (fun l -> Jump l) in
      patch e jelse (here e);
      List.iter (compile_stmt e) f;
      patch e jend (here e)
  | While (c, body) -> compile_while e c body ~until:false
  | Until (c, body) -> compile_while e c body ~until:true
  | Case (subject, clauses, else_body) ->
      (* evaluate the subject once into a synthetic local, then an if-chain
         comparing with == (the supported subset of ===) *)
      let idx, depth = declare_local e.scope (Printf.sprintf "%%case%d" (fresh_cache e)) in
      compile_expr e subject;
      emit e (Setlocal (idx, depth));
      let end_jumps = ref [] in
      List.iter
        (fun (vals, body) ->
          (* one test per value: any match enters the body *)
          let body_jumps =
            List.map
              (fun v ->
                emit e (Getlocal (idx, depth));
                compile_expr e v;
                emit e Opt_eq;
                emit_branch e (fun l -> Branchif l))
              vals
          in
          let skip = emit_branch e (fun l -> Jump l) in
          let body_target = here e in
          List.iter (fun pos -> patch e pos body_target) body_jumps;
          List.iter (compile_stmt e) body;
          end_jumps := emit_branch e (fun l -> Jump l) :: !end_jumps;
          patch e skip (here e))
        clauses;
      List.iter (compile_stmt e) else_body;
      let the_end = here e in
      List.iter (fun pos -> patch e pos the_end) !end_jumps
  | Def (name, params, body) ->
      let code = compile_method e name params body in
      emit e (Defmethod (Sym.intern name, code))
  | Attr_accessor _ -> error "attr_accessor is only allowed inside a class body"
  | Class_def (name, super, body) ->
      let methods = ref [] and attrs = ref [] in
      List.iter
        (fun s ->
          match (s : Ast.stmt) with
          | Def (m, ps, b) -> methods := (Sym.intern m, compile_method e m ps b) :: !methods
          | Attr_accessor names ->
              attrs :=
                !attrs
                @ List.map
                    (fun n -> (Sym.intern n, fresh_cache e, fresh_cache e))
                    names
          | _ -> error "class bodies may only contain defs and attr_accessor")
        body;
      emit e
        (Defclass
           {
             cd_name = Sym.intern name;
             cd_super = Option.map Sym.intern super;
             cd_methods = List.rev !methods;
             cd_attrs = !attrs;
           })
  | Return None ->
      emit e (Push VNil);
      emit e (if e.scope.kind = Block then Return_insn else Leave)
  | Return (Some ex) ->
      compile_expr e ex;
      emit e (if e.scope.kind = Block then Return_insn else Leave)
  | Break ex_opt -> (
      match e.loop_stack with
      | ctx :: _ ->
          (match ex_opt with
          | Some ex ->
              compile_expr e ex;
              emit e Pop
          | None -> ());
          let pos = emit_branch e (fun l -> Jump l) in
          ctx.breaks <- pos :: ctx.breaks
      | [] ->
          (* break inside a block: terminate the yielding method call *)
          (match ex_opt with Some ex -> compile_expr e ex | None -> emit e (Push VNil));
          emit e Break_insn)
  | Next ex_opt -> (
      match e.loop_stack with
      | ctx :: _ ->
          (match ex_opt with
          | Some ex ->
              compile_expr e ex;
              emit e Pop
          | None -> ());
          let pos = emit_branch e (fun l -> Jump l) in
          ctx.nexts <- pos :: ctx.nexts
      | [] ->
          (* next inside a block: return from the block invocation *)
          (match ex_opt with Some ex -> compile_expr e ex | None -> emit e (Push VNil));
          emit e Leave)

and compile_while e c body ~until =
  let loop_top = here e in
  compile_expr e c;
  let jexit =
    if until then emit_branch e (fun l -> Branchif l)
    else emit_branch e (fun l -> Branchunless l)
  in
  let ctx = { breaks = []; nexts = [] } in
  e.loop_stack <- ctx :: e.loop_stack;
  List.iter (compile_stmt e) body;
  e.loop_stack <- List.tl e.loop_stack;
  emit e (Jump loop_top);
  let exit_target = here e in
  List.iter (fun pos -> patch e pos exit_target) ctx.breaks;
  List.iter (fun pos -> patch e pos loop_top) ctx.nexts;
  patch e jexit exit_target

(* Compile a statement list leaving exactly one value (the last expression's
   value, or nil). *)
and compile_body_value e stmts =
  match stmts with
  | [] -> emit e (Push VNil)
  | _ ->
      let rec go = function
        | [] -> assert false
        | [ last ] -> (
            match (last : Ast.stmt) with
            | Expr_stmt ex -> compile_expr e ex
            | If (c, t, f) ->
                compile_expr e c;
                let jelse = emit_branch e (fun l -> Branchunless l) in
                compile_body_value e t;
                let jend = emit_branch e (fun l -> Jump l) in
                patch e jelse (here e);
                compile_body_value e f;
                patch e jend (here e)
            | other ->
                compile_stmt e other;
                emit e (Push VNil))
        | s :: rest ->
            compile_stmt e s;
            go rest
      in
      go stmts

and compile_method e name params body =
  let me = new_emitter ~caches:e.caches Method in
  List.iter (fun p -> ignore (declare_local me.scope p)) params;
  compile_body_value me body;
  emit me Leave;
  make_code ~name ~kind:Method ~arity:(List.length params)
    ~nlocals:me.scope.n_locals (Array.sub me.insns 0 me.count)

let compile_program (prog : Ast.t) : program =
  let caches = ref 0 in
  let e = new_emitter ~caches Toplevel in
  compile_body_value e prog;
  emit e Leave;
  let main =
    make_code ~name:"<main>" ~kind:Toplevel ~arity:0 ~nlocals:e.scope.n_locals
      (Array.sub e.insns 0 e.count)
  in
  { main; n_caches = !caches }

let compile_string src = compile_program (Parser.parse src)
