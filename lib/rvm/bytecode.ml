(* Helpers over compiled code: naming and printing. *)

open Value

let insn_name = function
  | Push _ -> "putobject"
  | Pushself -> "putself"
  | Pop -> "pop"
  | Dup -> "dup"
  | Dup2 -> "dup2"
  | Getlocal _ -> "getlocal"
  | Setlocal _ -> "setlocal"
  | Getivar _ -> "getinstancevariable"
  | Setivar _ -> "setinstancevariable"
  | Getcvar _ -> "getclassvariable"
  | Setcvar _ -> "setclassvariable"
  | Getglobal _ -> "getglobal"
  | Setglobal _ -> "setglobal"
  | Getconst _ -> "getconstant"
  | Setconst _ -> "setconstant"
  | Newarray _ -> "newarray"
  | Newarray_sized -> "newarray_sized"
  | Newhash _ -> "newhash"
  | Newrange _ -> "newrange"
  | Newstring _ -> "putstring"
  | Newinstance _ -> "newinstance"
  | Newthread _ -> "newthread"
  | Send _ -> "send"
  | Invokeblock _ -> "invokeblock"
  | Opt_plus -> "opt_plus"
  | Opt_minus -> "opt_minus"
  | Opt_mult -> "opt_mult"
  | Opt_div -> "opt_div"
  | Opt_mod -> "opt_mod"
  | Opt_pow -> "opt_pow"
  | Opt_eq -> "opt_eq"
  | Opt_neq -> "opt_neq"
  | Opt_lt -> "opt_lt"
  | Opt_le -> "opt_le"
  | Opt_gt -> "opt_gt"
  | Opt_ge -> "opt_ge"
  | Opt_aref -> "opt_aref"
  | Opt_aset -> "opt_aset"
  | Opt_ltlt -> "opt_ltlt"
  | Opt_not -> "opt_not"
  | Opt_neg -> "opt_neg"
  | Jump _ -> "jump"
  | Branchif _ -> "branchif"
  | Branchunless _ -> "branchunless"
  | Leave -> "leave"
  | Return_insn -> "return"
  | Break_insn -> "break"
  | Defmethod _ -> "definemethod"
  | Defclass _ -> "defineclass"
  | Nop -> "nop"

let pp_insn fmt insn =
  match insn with
  | Push v -> Format.fprintf fmt "putobject %a" Value.pp v
  | Getlocal (i, d) -> Format.fprintf fmt "getlocal %d, %d" i d
  | Setlocal (i, d) -> Format.fprintf fmt "setlocal %d, %d" i d
  | Getivar (s, _) -> Format.fprintf fmt "getinstancevariable :%s" (Sym.name s)
  | Setivar (s, _) -> Format.fprintf fmt "setinstancevariable :%s" (Sym.name s)
  | Getcvar s -> Format.fprintf fmt "getclassvariable :%s" (Sym.name s)
  | Setcvar s -> Format.fprintf fmt "setclassvariable :%s" (Sym.name s)
  | Getglobal s -> Format.fprintf fmt "getglobal $%s" (Sym.name s)
  | Setglobal s -> Format.fprintf fmt "setglobal $%s" (Sym.name s)
  | Getconst s -> Format.fprintf fmt "getconstant %s" (Sym.name s)
  | Setconst s -> Format.fprintf fmt "setconstant %s" (Sym.name s)
  | Newarray n -> Format.fprintf fmt "newarray %d" n
  | Newhash n -> Format.fprintf fmt "newhash %d" n
  | Newstring s -> Format.fprintf fmt "putstring %S" s
  | Send ss ->
      Format.fprintf fmt "send :%s, %d%s" (Sym.name ss.ss_sym) ss.ss_argc
        (match ss.ss_block with None -> "" | Some _ -> ", <block>")
  | Newinstance ss -> Format.fprintf fmt "newinstance %d" ss.ss_argc
  | Newthread ss -> Format.fprintf fmt "newthread %d" ss.ss_argc
  | Invokeblock n -> Format.fprintf fmt "invokeblock %d" n
  | Jump l -> Format.fprintf fmt "jump %d" l
  | Branchif l -> Format.fprintf fmt "branchif %d" l
  | Branchunless l -> Format.fprintf fmt "branchunless %d" l
  | Defmethod (s, _) -> Format.fprintf fmt "definemethod :%s" (Sym.name s)
  | Defclass cd -> Format.fprintf fmt "defineclass %s" (Sym.name cd.cd_name)
  | i -> Format.pp_print_string fmt (insn_name i)

let rec pp_code fmt (c : code) =
  Format.fprintf fmt "== code %s (arity=%d, locals=%d)@." c.code_name c.arity
    c.nlocals;
  Array.iteri
    (fun i insn -> Format.fprintf fmt "%04d %a@." i pp_insn insn)
    c.insns;
  Array.iter
    (function
      | Send { ss_block = Some b; _ }
      | Newthread { ss_block = Some b; _ }
      | Newinstance { ss_block = Some b; _ } ->
          pp_code fmt b
      | Defmethod (_, body) -> pp_code fmt body
      | Defclass cd -> List.iter (fun (_, m) -> pp_code fmt m) cd.cd_methods
      | _ -> ())
    c.insns
