(* The verify line each NPB kernel prints, pinned per problem size. The
   lines are the same under every scheme and thread count (checked under
   GIL 1t/12t, HTM-dynamic 12t and hybrid 12t), so one pin covers every
   cell of a kernel. *)

open Workloads.Size

let pinned =
  [
    (("bt", S), "BT verify 54057785");
    (("cg", S), "CG verify 397323");
    (("ft", S), "FT verify 66051");
    (("is", S), "IS verify 40000 20154");
    (("lu", S), "LU verify 307422890");
    (("mg", S), "MG verify 92319480");
    (("sp", S), "SP verify 144841252");
    (("bt", Test), "BT verify 11487874");
    (("cg", Test), "CG verify 403999");
    (("ft", Test), "FT verify 1434893");
    (("is", Test), "IS verify 6000 3091");
    (("lu", Test), "LU verify 43211239");
    (("mg", Test), "MG verify 8000806");
    (("sp", Test), "SP verify 29885552");
  ]

let verify kernel size = List.assoc_opt (kernel, size) pinned
