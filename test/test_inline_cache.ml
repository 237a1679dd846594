(* Inline-cache behaviour: the Section 4.4 changes (fill-once method caches,
   ivar-table-equality guards, both part of the conflict removals) must
   preserve semantics at polymorphic sites and across inheritance. *)

(* Both cache policies: the conflict removals' and original CRuby's
   (refill on every miss, class-equality ivar guard). *)
let policies =
  [ ("removals", Rvm.Options.default); ("cruby baseline", Rvm.Options.cruby_baseline) ]

let poly_src =
  {|class A
  def tag
    "a"
  end
end
class B
  def tag
    "b"
  end
end
# one polymorphic call site, alternating receivers
objs = [A.new, B.new, A.new, B.new, A.new]
out = ""
objs.each { |o| out << o.tag }
puts out|}

let test_polymorphic_site () =
  List.iter
    (fun (label, opts) ->
      Alcotest.(check string) label "ababa\n" (Tutil.output ~opts poly_src))
    policies

let test_inherited_ivars () =
  (* a subclass without its own ivars shares the parent's ivar table: the
     table-equality guard may reuse the cache, the class guard may not —
     both must read the right slots. A subclass copies the ivars its
     parent has when it is defined, so Derived comes after Base's @v. *)
  let src =
    {|class Base
  def initialize(v)
    @v = v
  end
  def v
    @v
  end
end
first = Base.new(1)
class Derived < Base
end
objs = [first, Derived.new(2), Base.new(3), Derived.new(4)]
total = 0
objs.each { |o| total += o.v }
puts total|}
  in
  List.iter
    (fun (label, opts) ->
      Alcotest.(check string) label "10\n" (Tutil.output ~opts src))
    policies

let test_subclass_with_own_ivars () =
  (* once the subclass adds an ivar the layouts diverge: the table guard
     must stop sharing *)
  Tutil.check_output "diverged layouts" "7/9\n"
    {|class P
  def initialize
    @a = 7
  end
  def a
    @a
  end
end
class Q < P
  def initialize
    @a = 9
    @b = 1
  end
end
puts "#{P.new.a}/#{Q.new.a}"|}

let test_method_cache_under_htm () =
  (* shared inline caches filled concurrently: all threads get right answers *)
  Tutil.check_output ~scheme:Core.Scheme.Htm_dynamic "concurrent cache fill"
    "30\n"
    {|class W
  def ten
    10
  end
end
total = [0]
m = Mutex.new
ths = []
t = 0
while t < 3
  ths << Thread.new do
    w = W.new
    m.synchronize { total[0] += w.ten }
  end
  t += 1
end
ths.each { |th| th.join }
puts total[0]|}

let test_attr_cache_slots () =
  (* attr_accessor getters/setters carry their own cache slots *)
  Tutil.check_output "attrs across instances" "5 6\n"
    {|class Pt
  attr_accessor :x
end
a = Pt.new
b = Pt.new
a.x = 5
b.x = 6
puts "#{a.x} #{b.x}"|}

let suite =
  [
    Alcotest.test_case "polymorphic site, all cache policies" `Quick
      test_polymorphic_site;
    Alcotest.test_case "inherited ivar guards" `Quick test_inherited_ivars;
    Alcotest.test_case "diverged subclass layouts" `Quick
      test_subclass_with_own_ivars;
    Alcotest.test_case "concurrent cache fill under HTM" `Quick
      test_method_cache_under_htm;
    Alcotest.test_case "attr cache slots" `Quick test_attr_cache_slots;
  ]
