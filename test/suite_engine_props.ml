(* Differential testing: on the stratified Datalog fragment the top-down
   SLDNF engine and both bottom-up configurations — the default with
   index-driven reordered joins and the scan baseline
   ([Config.indexing = false]) — must derive exactly the same ground
   atoms, including negation as failure over lower strata and ground
   arithmetic guards. *)

open Gdp_logic

let db_of src =
  let db = Database.create () in
  List.iter (Database.assertz db) (Reader.program src);
  db

(* Engine databases carry the builtins ([<], [is], ...) and the prelude,
   so guards behave identically under both evaluators. *)
let engine_db_of src =
  let db = Engine.create () in
  Engine.consult db src;
  db

let test_bottom_up_basics () =
  let db = db_of "e(a, b). e(b, c). p(X, Y) :- e(X, Y). p(X, Y) :- e(X, Z), p(Z, Y)." in
  let fp = Bottom_up.run db in
  Alcotest.(check bool) "direct edge" true (Bottom_up.holds fp (Reader.term "p(a, b)"));
  Alcotest.(check bool) "transitive" true (Bottom_up.holds fp (Reader.term "p(a, c)"));
  Alcotest.(check bool) "absent" false (Bottom_up.holds fp (Reader.term "p(c, a)"));
  Alcotest.(check int) "2 edges + 3 paths" 5 (Bottom_up.count fp);
  Alcotest.(check bool) "took >1 pass" true (Bottom_up.iterations fp > 1)

let test_bottom_up_cycles_terminate () =
  (* left recursion and cycles are no problem bottom-up *)
  let db =
    db_of "e(a, b). e(b, a). r(X, Y) :- r(X, Z), e(Z, Y). r(X, Y) :- e(X, Y)."
  in
  let fp = Bottom_up.run db in
  Alcotest.(check bool) "cycle closed" true (Bottom_up.holds fp (Reader.term "r(a, a)"))

let test_unsupported_detected () =
  let rejects src =
    let db = engine_db_of src in
    (not (Bottom_up.supported db))
    &&
    match Bottom_up.run db with
    | exception Bottom_up.Unsupported _ -> true
    | _ -> false
  in
  let accepts src = Bottom_up.supported (engine_db_of src) in
  (* the fragment now includes stratified negation and ground guards *)
  Alcotest.(check bool) "stratified negation accepted" true
    (accepts "p(X) :- q(X), \\+ r(X). q(1).");
  Alcotest.(check bool) "arith guard accepted" true
    (accepts "p(X) :- q(X), X > 1. q(2).");
  Alcotest.(check bool) "is on bound args accepted" true
    (accepts "p(Y) :- q(X), Y is X + 1. q(2).");
  (* ... and still rejects what it cannot evaluate *)
  Alcotest.(check bool) "negation in a recursive stratum" true
    (rejects "p(X) :- q(X), \\+ p(X). q(1).");
  Alcotest.(check bool) "disjunction" true (rejects "p(X) :- q(X) ; r(X). q(1).");
  Alcotest.(check bool) "unification builtin" true
    (rejects "p(X) :- q(X), X = 1. q(1).");
  Alcotest.(check bool) "non-ground fact" true (rejects "p(X).");
  Alcotest.(check bool) "unrestricted head" true (rejects "p(X, Y) :- q(X). q(1).");
  Alcotest.(check bool) "unbound negated literal" true (rejects "p :- \\+ q(X).");
  Alcotest.(check bool) "unbound guard" true (rejects "p(X) :- q(X), Y < 2. q(1).");
  Alcotest.(check bool) "library predicate in body" true
    (rejects "p(X) :- member(X, l).");
  Alcotest.(check bool) "positive fragment accepted" true
    (Bottom_up.supported (db_of "p(1). q(X) :- p(X)."));
  (* classify names the offending construct *)
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  (match Bottom_up.classify (engine_db_of "p(X) :- q(X), \\+ p(X). q(1).") with
  | Error reason ->
      Alcotest.(check bool) "reason mentions the stratum" true
        (contains reason "stratum")
  | Ok () -> Alcotest.fail "recursion through negation not detected")

let test_stratified_negation () =
  let db =
    engine_db_of
      "b(1). b(2). g(1).\n\
       bad(X) :- b(X), \\+ g(X).\n\
       good(X) :- b(X), \\+ bad(X)."
  in
  let fp = Bottom_up.run db in
  Alcotest.(check bool) "bad(2)" true (Bottom_up.holds fp (Reader.term "bad(2)"));
  Alcotest.(check bool) "not bad(1)" false (Bottom_up.holds fp (Reader.term "bad(1)"));
  Alcotest.(check bool) "good(1)" true (Bottom_up.holds fp (Reader.term "good(1)"));
  Alcotest.(check bool) "not good(2)" false (Bottom_up.holds fp (Reader.term "good(2)"));
  Alcotest.(check int) "three strata" 3 (Bottom_up.strata_count fp)

let test_guards () =
  let db =
    engine_db_of
      "q(1). q(5). q(a).\n\
       p(X) :- q(X), X < 3.\n\
       d(Y) :- q(X), Y is X * 2."
  in
  let fp = Bottom_up.run db in
  Alcotest.(check bool) "p(1)" true (Bottom_up.holds fp (Reader.term "p(1)"));
  Alcotest.(check bool) "not p(5)" false (Bottom_up.holds fp (Reader.term "p(5)"));
  (* non-numeric argument: the guard fails like the top-down builtin does *)
  Alcotest.(check bool) "not p(a)" false (Bottom_up.holds fp (Reader.term "p(a)"));
  Alcotest.(check bool) "d(2)" true (Bottom_up.holds fp (Reader.term "d(2)"));
  Alcotest.(check bool) "d(10)" true (Bottom_up.holds fp (Reader.term "d(10)"))

let test_delta_refiring () =
  (* a 30-edge chain: after the opening pass fires both rules, each delta
     pass re-fires only the recursive rule, against the delta of r *)
  let buf = Buffer.create 512 in
  for i = 0 to 29 do
    Buffer.add_string buf (Printf.sprintf "e(n%d, n%d). " i (i + 1))
  done;
  Buffer.add_string buf "r(X, Y) :- e(X, Y). r(X, Y) :- e(X, Z), r(Z, Y).";
  let db = db_of (Buffer.contents buf) in
  let semi = Bottom_up.run db in
  (* 30 edges plus one r fact per ordered pair of the 31 chain nodes *)
  Alcotest.(check int) "closure size" (30 + (31 * 30 / 2))
    (Bottom_up.count semi);
  Alcotest.(check bool) "many passes" true (Bottom_up.iterations semi > 15);
  Alcotest.(check int) "one firing per delta pass"
    (Bottom_up.iterations semi + 1)
    (Bottom_up.rule_firings semi)

(* Probe every ground atom of the (finite) Herbrand base over the user
   predicates: top-down provability must coincide with bottom-up
   membership, and both bottom-up configurations — index-driven
   reordered joins (the default) and textual-order full scans — must
   compute the same fixpoint. Ground
   probes with the ancestor loop check keep each SLD search finite;
   prelude predicates are skipped (the fixpoint ignores their clauses,
   and e.g. [forall] succeeds vacuously top-down). *)
let agree ?(constants = [ "a"; "b"; "c" ]) db =
  let fp = Bottom_up.run db in
  let fp_scan =
    Bottom_up.run ~config:{ Bottom_up.Config.default with indexing = false } db
  in
  let opts = { Solve.default_options with loop_check = true } in
  (* A blown resolution budget is a verdict on neither side: the probe is
     Unknown and constrains nothing — without this, one pathological SLD
     search would crash the whole QCheck case instead of skipping. *)
  let succeeds_opt goal =
    match Solve.succeeds ~options:opts db [ goal ] with
    | b -> Some b
    | exception Solve.Depth_exhausted _ -> None
  in
  List.equal Term.equal (Bottom_up.facts fp) (Bottom_up.facts fp_scan)
  && (* every bottom-up consequence (including atoms outside the constant
        base) is provable top-down *)
  List.for_all
    (fun fact -> succeeds_opt fact <> Some false)
    (Bottom_up.facts fp)
  && List.for_all
       (fun (name, arity) ->
         let rec tuples n =
           if n = 0 then [ [] ]
           else
             List.concat_map
               (fun rest -> List.map (fun c -> Term.atom c :: rest) constants)
               (tuples (n - 1))
         in
         List.for_all
           (fun args ->
             let atom = Term.app name args in
             match succeeds_opt atom with
             | None -> true
             | Some proved -> proved = Bottom_up.holds fp atom)
           (tuples arity))
       (List.filter
          (fun fa -> not (List.mem fa Prelude.predicates))
          (Database.predicates db))

let test_differential_fixed_programs () =
  List.iter
    (fun src -> Alcotest.(check bool) src true (agree (db_of src)))
    [
      "e(a, b). e(b, c). e(c, d). p(X, Y) :- e(X, Y). p(X, Y) :- e(X, Z), p(Z, Y).";
      "n(z). n(s(z)). n(s(s(z))). even(z). even(s(s(X))) :- even(X), n(X).";
      "f(a). g(b). h(X, Y) :- f(X), g(Y).";
      "p(1). p(2). q(X, Y) :- p(X), p(Y).";
      "a(1). b(1). c(X) :- a(X), b(X). d(X) :- c(X).";
    ];
  (* negation and guards need the engine builtins on the top-down side *)
  List.iter
    (fun src -> Alcotest.(check bool) src true (agree (engine_db_of src)))
    [
      "q(a). q(b). m(a). p(X) :- q(X), \\+ m(X).";
      "v(a, 1). v(b, 4). big(X) :- v(X, N), N >= 3. small(X) :- v(X, N), \\+ big(X).";
      "q(1). q(5). q(a). p(X) :- q(X), X < 3.";
    ]

(* Random stratified (non-recursive) positive programs: base predicates
   q0/q1 hold facts, derived predicates p1/p2 are defined only from
   strictly lower strata — SLD is then complete without any loop guard,
   so equality with the fixpoint is the true specification. *)
let gen_program =
  let open QCheck.Gen in
  let const = oneofl [ "a"; "b"; "c" ] in
  let gen_fact =
    map2 (fun p args -> Printf.sprintf "%s(%s)." p (String.concat ", " args))
      (oneofl [ "q0"; "q1" ])
      (list_size (return 2) const)
  in
  let var = oneofl [ "X"; "Y"; "Z" ] in
  let gen_rule ~head_pred ~body_preds =
    let gen_atom vars =
      map2 (fun p args -> Printf.sprintf "%s(%s)" p (String.concat ", " args))
        (oneofl body_preds)
        (list_size (return 2) (oneof [ oneofl vars; const ]))
    in
    let* vars = list_size (return 2) var in
    let vars = List.sort_uniq compare vars in
    let* body_n = int_range 1 3 in
    let* body = list_size (return body_n) (gen_atom vars) in
    let occurring =
      List.filter
        (fun v ->
          List.exists
            (fun atom ->
              let rec find i =
                i + String.length v <= String.length atom
                && (String.sub atom i (String.length v) = v || find (i + 1))
              in
              find 0)
            body)
        vars
    in
    let head_pool = if occurring = [] then [ "a" ] else occurring in
    let* head_args = list_size (return 2) (oneofl head_pool) in
    return
      (Printf.sprintf "%s(%s) :- %s." head_pred
         (String.concat ", " head_args)
         (String.concat ", " body))
  in
  let* n_facts = int_range 1 6 in
  let* facts = list_size (return n_facts) gen_fact in
  let* n_p1 = int_range 1 2 in
  let* p1_rules =
    list_size (return n_p1) (gen_rule ~head_pred:"p1" ~body_preds:[ "q0"; "q1" ])
  in
  let* n_p2 = int_range 0 2 in
  let* p2_rules =
    list_size (return n_p2)
      (gen_rule ~head_pred:"p2" ~body_preds:[ "q0"; "q1"; "p1" ])
  in
  return (String.concat "\n" (facts @ p1_rules @ p2_rules))

let prop_differential =
  QCheck.Test.make ~name:"SLD and fixpoint agree on random positive programs"
    ~count:60 (QCheck.make ~print:(fun s -> s) gen_program) (fun src ->
      agree (db_of src))

(* Random stratified programs over the full fragment: a random edge
   relation, its (right-recursive, so SLD with the ancestor check stays
   complete on ground probes) transitive closure, negation over lower
   strata — sometimes two layers deep — and arithmetic guards. *)
let gen_stratified_program =
  let open QCheck.Gen in
  let const = oneofl [ "a"; "b"; "c"; "d" ] in
  let* n_edges = int_range 3 8 in
  let* edges =
    list_size (return n_edges)
      (map2 (fun x y -> Printf.sprintf "e(%s, %s)." x y) const const)
  in
  let nodes = List.map (Printf.sprintf "node(%s).") [ "a"; "b"; "c"; "d" ] in
  let* vals =
    list_size (return 4)
      (map2 (fun c n -> Printf.sprintf "val(%s, %d)." c n) const (int_range 0 5))
  in
  let reach = [ "r(X, Y) :- e(X, Y)."; "r(X, Y) :- e(X, Z), r(Z, Y)." ] in
  let* hub =
    oneofl
      [
        "hub(X) :- e(X, Y).";
        "hub(X) :- r(X, X).";
        "hub(X) :- r(X, Y), r(Y, X).";
      ]
  in
  let iso = "iso(X) :- node(X), \\+ hub(X)." in
  let* second_layer = oneofl [ []; [ "plain(X) :- node(X), \\+ iso(X)." ] ] in
  let* guards =
    oneofl
      [
        [];
        [ "big(X) :- val(X, N), N >= 3." ];
        [ "twice(X, M) :- val(X, N), M is N * 2." ];
        [ "big(X) :- val(X, N), N >= 3."; "small(X) :- node(X), \\+ big(X)." ];
      ]
  in
  return
    (String.concat "\n"
       (edges @ nodes @ vals @ reach @ [ hub; iso ] @ second_layer @ guards))

let prop_differential_stratified =
  QCheck.Test.make
    ~name:
      "semi-naive, scan-baseline and SLD agree on random stratified \
       programs with negation and guards"
    ~count:250
    (QCheck.make ~print:(fun s -> s) gen_stratified_program)
    (fun src ->
      agree ~constants:[ "a"; "b"; "c"; "d" ] (engine_db_of src))

(* Random programs over reified-shape atoms, the form the GDP compiler
   gives every user predicate: join variables sit inside lists and
   constructors, so hash probes key on argument paths rather than whole
   arguments. The base relation h/3 mixes facts of the rules' shape
   [h(p, [X, Y], s(Z))] with facts that lack it — a shorter list,
   another functor, an atom where a compound is expected — which a path
   index must leave out of its buckets without losing a match. The
   closure t/2 is right-recursive, so SLD with the ancestor check stays
   complete on ground probes. *)
let gen_nested_fact =
  let open QCheck.Gen in
  let const = oneofl [ "a"; "b"; "c" ] in
  frequency
    [
      (6, map3 (Printf.sprintf "h(p, [%s, %s], s(%s))") const const const);
      (1, map2 (Printf.sprintf "h(p, [%s], s(%s))") const const);
      (1, map3 (Printf.sprintf "h(p, f(%s, %s), s(%s))") const const const);
      (1, map2 (Printf.sprintf "h(p, %s, %s)") const const);
      (1, map3 (Printf.sprintf "h(q, [%s, %s], %s)") const const const);
    ]

let gen_nested_program =
  let open QCheck.Gen in
  let* n_facts = int_range 2 10 in
  let* facts = list_size (return n_facts) gen_nested_fact in
  let closure =
    [
      "t(X, Y) :- h(p, [X, Y], _).";
      "t(X, Y) :- h(p, [X, Z], _), t(Z, Y).";
    ]
  in
  let* joins =
    list_size (int_range 1 3)
      (oneofl
         [
           "m(X, Y) :- h(p, [X, Z], s(Y)), h(p, [Z, Y], s(_)).";
           "m(X, Y) :- t(X, Z), h(p, [Z, Y], s(Z)).";
           "m(X, Y) :- h(p, [X, Y], s(X)).";
           "m(X, Y) :- h(p, [X, b], s(Y)).";
           "m(X, Y) :- h(q, [X, Y], Y).";
           "m(X, Y) :- h(p, f(X, Y), s(X)).";
           "m(X, Y) :- h(p, [X], s(Y)).";
         ])
  in
  let* neg =
    oneofl [ []; [ "n(X) :- h(p, [X, _], _), \\+ t(X, X)." ] ]
  in
  return
    (String.concat "\n"
       (List.sort_uniq compare (List.map (fun f -> f ^ ".") facts)
       @ closure @ joins @ neg))

let prop_differential_nested =
  QCheck.Test.make
    ~name:
      "path-indexed, scan-baseline and SLD agree on random programs over \
       nested argument shapes"
    ~count:200
    (QCheck.make ~print:(fun s -> s) gen_nested_program)
    (fun src -> agree (engine_db_of src))

(* The incremental leg: assert and retract h/3 facts of every shape on a
   live fixpoint — so DRed removes facts from the path indexes the
   opening run built — and compare with a from-scratch run after each
   step, for the indexed engine and the scan baseline. *)
let prop_nested_incremental =
  let gen =
    let open QCheck.Gen in
    pair gen_nested_program
      (list_size (int_range 1 12) (pair bool gen_nested_fact))
  in
  let print (src, script) =
    src ^ "\n-- script --\n"
    ^ String.concat "\n"
        (List.map
           (fun (a, f) -> (if a then "assert " else "retract ") ^ f)
           script)
  in
  QCheck.Test.make
    ~name:"path indexes stay coherent through assert/retract scripts"
    ~count:150 (QCheck.make ~print gen) (fun (src, script) ->
      List.for_all
        (fun indexing ->
          let config = { Bottom_up.Config.default with indexing } in
          let db = engine_db_of src in
          let fp = Bottom_up.run ~config db in
          List.for_all
            (fun (asserted, f) ->
              let t = Reader.term f in
              (if asserted then begin
                 if Bottom_up.assert_fact fp t then Database.fact db t
               end
               else if Bottom_up.retract_fact fp t then
                 Stdlib.ignore (Database.retract_fact db t));
              List.equal Term.equal (Bottom_up.facts fp)
                (Bottom_up.facts (Bottom_up.run ~config db)))
            script)
        [ true; false ])

(* [Bottom_up.probe] narrows candidates through the path indexes; on
   any goal shape the unifiable subset must coincide with what filtering
   the goal's whole (sorted) relation yields. *)
let test_probe_consistency () =
  let db =
    db_of
      "e(a, b). e(b, c). e(c, d). e(a, d).\n\
       p(X, Y) :- e(X, Y). p(X, Y) :- e(X, Z), p(Z, Y).\n\
       p(a, [a, b]). p(b, [c, b]). p(a, [b]). p(a, [a, b, c]). p(a, f(a, b))."
  in
  let fp = Bottom_up.run db in
  let unifiable goal facts =
    List.filter (fun f -> Unify.unify Subst.empty goal f <> None) facts
    |> List.sort Term.compare
  in
  List.iter
    (fun goal_src ->
      let goal = Reader.term goal_src in
      Alcotest.(check (list string))
        goal_src
        (List.map Term.to_string (unifiable goal (Bottom_up.facts_matching fp goal)))
        (List.map Term.to_string (unifiable goal (Bottom_up.probe fp goal))))
    [
      "p(a, X)" (* bound first argument: probes the index on position 0 *);
      "p(X, d)" (* bound second argument *);
      "p(a, d)" (* ground: membership *);
      "p(X, Y)" (* open: falls back to the full relation *);
      "p(X, X)" (* repeated variable: superset is filtered by unification *);
      "p(a, [X, b])" (* nested key: paths [0] and [1; 1] *);
      "p(X, [c, Y])" (* nested keys only: [1; 0] and the tail [1; 1; 1] *);
      "p(X, [Y])" (* the list tail alone is ground *);
      "p(a, f(X, b))" (* another functor at the same paths *);
      "q(X)" (* unknown predicate: empty either way *);
    ]

let tests =
  [
    Alcotest.test_case "fixpoint basics" `Quick test_bottom_up_basics;
    Alcotest.test_case "cycles terminate bottom-up" `Quick
      test_bottom_up_cycles_terminate;
    Alcotest.test_case "fragment detection" `Quick test_unsupported_detected;
    Alcotest.test_case "stratified negation" `Quick test_stratified_negation;
    Alcotest.test_case "arithmetic guards" `Quick test_guards;
    Alcotest.test_case "semi-naive delta re-firing" `Quick test_delta_refiring;
    Alcotest.test_case "differential: fixed programs" `Quick
      test_differential_fixed_programs;
    Alcotest.test_case "probe matches filtered relation" `Quick
      test_probe_consistency;
    QCheck_alcotest.to_alcotest prop_differential;
    QCheck_alcotest.to_alcotest prop_differential_stratified;
    QCheck_alcotest.to_alcotest prop_differential_nested;
    QCheck_alcotest.to_alcotest prop_nested_incremental;
  ]
