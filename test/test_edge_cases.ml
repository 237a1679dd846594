(* Guest-language edge cases and failure injection. *)

let check = Tutil.check_output

let test_deep_recursion_guard () =
  try
    ignore (Tutil.output "def f(n)\n  f(n + 1)\nend\nf(0)");
    Alcotest.fail "unbounded recursion must fail"
  with Core.Runner.Guest_failure m ->
    Alcotest.(check bool) "stack message" true
      (String.length m > 0)

let test_bounded_deep_recursion () =
  check "1000-deep recursion works" "500500\n"
    {|def sum(n)
  if n == 0
    0
  else
    n + sum(n - 1)
  end
end
puts sum(1000)|}

let test_arity_errors () =
  (try
     ignore (Tutil.output "def f(a, b)\n  a\nend\nf(1)");
     Alcotest.fail "wrong arity must fail"
   with Core.Runner.Guest_failure _ -> ());
  try
    ignore (Tutil.output "def g\n  1\nend\ng(5)");
    Alcotest.fail "extra args must fail"
  with Core.Runner.Guest_failure _ -> ()

let test_yield_without_block () =
  try
    ignore (Tutil.output "def f\n  yield\nend\nf");
    Alcotest.fail "yield without block must fail"
  with Core.Runner.Guest_failure _ -> ()

let test_type_errors () =
  List.iter
    (fun src ->
      try
        ignore (Tutil.output src);
        Alcotest.failf "should fail: %s" src
      with Core.Runner.Guest_failure _ -> ())
    [ {|x = "s" * "t"|}; {|x = nil + 1|}; {|x = 4[2]|}; {|[].missing_method|} ]

let test_guest_raise () =
  try
    ignore (Tutil.output {|raise "boom"|});
    Alcotest.fail "raise must fail the run"
  with Core.Runner.Guest_failure m ->
    Alcotest.(check bool) "carries message" true
      (String.length m >= 4)

let test_integer_edge () =
  check "negative modulo like Ruby" "2\n-2\n0\n"
    "puts(-13 % 5)\nputs(13 % -5)\nputs(10 % 5)";
  check "power" "1\n1024\n" "puts 7 ** 0\nputs 2 ** 10";
  let naive b e =
    let r = ref 1 in
    for _ = 1 to e do
      r := !r * b
    done;
    !r
  in
  check "wrapped power is repeated multiplication"
    (Printf.sprintf "%d\n%d\n" (naive 3 41) (naive (-7) 31))
    "puts 3 ** 41\nx = 0 - 7\nputs x ** 31";
  (* 2 ** (9 ** 18) wraps to 0; a step per multiplication would never end *)
  check "huge exponent" "0\n" "a = 9 ** 9\nb = a * a\nputs 2 ** b";
  check "large values survive arithmetic" "true\n"
    "x = 1152921504606846976\nputs x + x != x";
  (try
     ignore (Tutil.output "x = 99999999999999999999999");
     Alcotest.fail "out-of-range literal must fail at lexing"
   with Rvm.Lexer.Error _ -> ())

let test_string_edge () =
  check "empty ops" "0\ntrue\n\n" {|s = ""
puts s.length
puts s.empty?
puts s|};
  check "index out of range" "\n" {|puts "abc"[99]|};
  check "negative index" "c\n" {|puts "abc"[-1]|};
  check "interpolation of nil" "x\n" {|v = nil
puts "x#{v}"|}

let test_shadowing_and_scope () =
  check "block param shadows nothing, new vars are block-local" "outer\n"
    {|x = "outer"
[1].each { |y| z = y }
puts x|};
  check "method locals independent" "1 9\n"
    {|def f
  v = 1
  v
end
v = 9
puts "#{f} #{v}"|}

let test_thread_edge () =
  check "join twice is fine" "ok\n" {|t = Thread.new { 1 }
t.join
t.join
puts "ok"|};
  check "value of finished thread" "7\n" {|t = Thread.new { 3 + 4 }
t.value
puts t.value|}

let test_empty_structures () =
  check "empty program parses" "" "";
  check "empty method" "\n" "def f\nend\nputs f";
  check "empty block" "[]\n" "p [].map { |x| x }"

let suite =
  [
    Alcotest.test_case "unbounded recursion fails cleanly" `Quick
      test_deep_recursion_guard;
    Alcotest.test_case "bounded deep recursion" `Quick test_bounded_deep_recursion;
    Alcotest.test_case "arity errors" `Quick test_arity_errors;
    Alcotest.test_case "yield without block" `Quick test_yield_without_block;
    Alcotest.test_case "type errors" `Quick test_type_errors;
    Alcotest.test_case "guest raise" `Quick test_guest_raise;
    Alcotest.test_case "integer edges" `Quick test_integer_edge;
    Alcotest.test_case "string edges" `Quick test_string_edge;
    Alcotest.test_case "scoping" `Quick test_shadowing_and_scope;
    Alcotest.test_case "thread edges" `Quick test_thread_edge;
    Alcotest.test_case "empty structures" `Quick test_empty_structures;
  ]
