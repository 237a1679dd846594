(* Yield-point classification (Sections 3.2 / 4.2), defined once in
   [Rvm.Compiler]. *)

open Rvm.Value
module C = Rvm.Compiler
module YP = Core.Yield_points

let site sym = { ss_sym = Rvm.Sym.intern sym; ss_argc = 0; ss_block = None; ss_cache = 0 }

let test_original () =
  List.iter
    (fun insn -> Alcotest.(check bool) "back-edge/exit" true (C.yields_original insn))
    [ Jump 0; Branchif 0; Branchunless 0; Leave; Return_insn ];
  List.iter
    (fun insn -> Alcotest.(check bool) "not original" false (C.yields_original insn))
    [ Getlocal (0, 0); Send (site "m"); Opt_plus; Opt_aref; Push VNil ]

let test_extended () =
  List.iter
    (fun insn -> Alcotest.(check bool) "paper's additions" true (C.yields_extended insn))
    [
      Getlocal (0, 0);
      Getivar (0, 0);
      Getcvar 0;
      Send (site "m");
      Opt_plus;
      Opt_minus;
      Opt_mult;
      Opt_aref;
      Jump 0;
      Leave;
    ];
  List.iter
    (fun insn -> Alcotest.(check bool) "still not yield points" false (C.yields_extended insn))
    [ Push VNil; Pop; Setlocal (0, 0); Opt_div; Opt_aset ]

let test_density () =
  (* "more than half of the bytecode instructions are now yield points"
     (Section 4.2) for NPB-like loop code *)
  let prog =
    Rvm.Compiler.compile_string
      {|x = 0.0
a = [1.0, 2.0]
i = 0
while i < 10
  x += a[0] * a[1]
  i += 1
end|}
  in
  let insns = prog.main.insns in
  let count p = Array.fold_left (fun acc i -> if p i then acc + 1 else acc) 0 insns in
  let ext = count C.yields_extended in
  let orig = count C.yields_original in
  Alcotest.(check bool) "extended much denser" true (ext > 2 * orig);
  Alcotest.(check bool) "about half of bytecodes" true
    (float_of_int ext /. float_of_int (Array.length insns) > 0.33)

(* The CLI's --yield-points value: exactly the two set names, in any case;
   a typo must fail instead of silently selecting the extended set. *)
let test_of_string () =
  List.iter
    (fun (s, set) ->
      Alcotest.(check string) s (YP.to_string set) (YP.to_string (YP.of_string s)))
    [
      ("original", YP.Original);
      ("Original", YP.Original);
      ("EXTENDED", YP.Extended);
      ("extended", YP.Extended);
    ];
  List.iter
    (fun s ->
      Alcotest.check_raises s
        (Invalid_argument
           (Printf.sprintf
              "Yield_points.of_string: %s (accepted: original, extended)" s))
        (fun () -> ignore (YP.of_string s)))
    [ "orignal"; ""; "ext"; "original " ]

let suite =
  [
    Alcotest.test_case "original set" `Quick test_original;
    Alcotest.test_case "extended set" `Quick test_extended;
    Alcotest.test_case "yield-point density" `Quick test_density;
    Alcotest.test_case "set names" `Quick test_of_string;
  ]
