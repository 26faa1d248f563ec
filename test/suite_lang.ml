open Gdp_core
module Lexer = Gdp_lang.Lexer
module Parser = Gdp_lang.Parser
module Elaborate = Gdp_lang.Elaborate
module Ast = Gdp_lang.Ast

let pat s = Elaborate.fact_to_pattern (Parser.fact s)

(* ---------- lexer ---------- *)

let test_lexer_tokens () =
  let toks = Lexer.tokens "road(s1) @ 3.5 // comment\n & %" in
  let kinds =
    List.map
      (fun t ->
        match t.Lexer.token with
        | Lexer.Ident s -> "i:" ^ s
        | Lexer.Var s -> "v:" ^ s
        | Lexer.Int n -> "n:" ^ string_of_int n
        | Lexer.Float f -> Printf.sprintf "f:%g" f
        | Lexer.Str s -> "s:" ^ s
        | Lexer.Punct p -> "p:" ^ p
        | Lexer.Raw _ -> "raw"
        | Lexer.Eof -> "eof")
      toks
  in
  Alcotest.(check (list string)) "token stream"
    [ "i:road"; "p:("; "i:s1"; "p:)"; "p:@"; "f:3.5"; "p:&"; "p:%"; "eof" ]
    kinds

let test_lexer_operators () =
  let toks = Lexer.tokens "<- => \\== =< X" in
  let ops =
    List.filter_map
      (fun t -> match t.Lexer.token with Lexer.Punct p -> Some p | _ -> None)
      toks
  in
  Alcotest.(check (list string)) "multi-char ops" [ "<-"; "=>"; "\\=="; "=<" ] ops

let test_lexer_comments_nested () =
  let toks = Lexer.tokens "a /* x /* y */ z */ b" in
  Alcotest.(check int) "two idents + eof" 3 (List.length toks)

let test_lexer_raw_block () =
  let toks =
    Lexer.tokens ~raw_after:[ "metamodel" ]
      "metamodel foo { p(X) :- q(X). } fact r(a)."
  in
  Alcotest.(check bool) "raw captured" true
    (List.exists
       (fun t ->
         match t.Lexer.token with
         | Lexer.Raw s -> String.trim s = "p(X) :- q(X)."
         | _ -> false)
       toks)

let test_lexer_positions () =
  match Lexer.tokens "a\n  b" with
  | [ _; b; _ ] ->
      Alcotest.(check int) "line" 2 b.Lexer.line;
      Alcotest.(check int) "col" 3 b.Lexer.col
  | _ -> Alcotest.fail "expected three tokens"

(* ---------- parser ---------- *)

let test_parse_fact_forms () =
  let f = Parser.fact "road(s1)" in
  Alcotest.(check string) "pred" "road" f.Ast.fa_pred;
  Alcotest.(check int) "objects only" 1 (List.length f.Ast.fa_objects);
  Alcotest.(check int) "no values" 0 (List.length f.Ast.fa_values);
  let f2 = Parser.fact "average_temperature(45)(saint_louis)" in
  Alcotest.(check int) "values group" 1 (List.length f2.Ast.fa_values);
  Alcotest.(check int) "objects group" 1 (List.length f2.Ast.fa_objects);
  let f3 = Parser.fact "celsius'freezing_point(0)(x)" in
  Alcotest.(check (option string)) "model prefix" (Some "celsius") f3.Ast.fa_model

let test_parse_spatial_qualifiers () =
  (match (Parser.fact "@(3.5, 0.5) vegetation(pine)(hill)").Ast.fa_space with
  | Ast.Sq_at [ Ast.E_float 3.5; Ast.E_float 0.5 ] -> ()
  | _ -> Alcotest.fail "at qualifier");
  (match (Parser.fact "@u[r1](1, 2) veg(pine)(land)").Ast.fa_space with
  | Ast.Sq_uniform ("r1", [ Ast.E_int 1; Ast.E_int 2 ]) -> ()
  | _ -> Alcotest.fail "uniform qualifier");
  (match (Parser.fact "@s[r2]P road(x)").Ast.fa_space with
  | Ast.Sq_sampled ("r2", [ Ast.E_var "P" ]) -> ()
  | _ -> Alcotest.fail "sampled with variable");
  match (Parser.fact "@P q(x)").Ast.fa_space with
  | Ast.Sq_at [ Ast.E_var "P" ] -> ()
  | _ -> Alcotest.fail "bare variable position"

let test_parse_temporal_qualifiers () =
  (match (Parser.fact "&1975 open(b)").Ast.fa_time with
  | Ast.Tq_at (Ast.E_float 1975.0) -> ()
  | _ -> Alcotest.fail "instant");
  (match (Parser.fact "&now open(b)").Ast.fa_time with
  | Ast.Tq_at (Ast.E_atom "now") -> ()
  | _ -> Alcotest.fail "now");
  (match (Parser.fact "&u[1970, 1980] open(b)").Ast.fa_time with
  | Ast.Tq_uniform { lower = Ast.B_num 1970.0; lower_closed = true;
                     upper = Ast.B_num 1980.0; upper_closed = true } -> ()
  | _ -> Alcotest.fail "closed interval");
  (match (Parser.fact "&u(1970, 1980] open(b)").Ast.fa_time with
  | Ast.Tq_uniform { lower_closed = false; upper_closed = true; _ } -> ()
  | _ -> Alcotest.fail "left-open interval");
  (match (Parser.fact "&u[now - 5, now + 5] open(b)").Ast.fa_time with
  | Ast.Tq_uniform { lower = Ast.B_now (-5.0); upper = Ast.B_now 5.0; _ } -> ()
  | _ -> Alcotest.fail "now offsets");
  match (Parser.fact "&s[inf, 0] old(b)").Ast.fa_time with
  | Ast.Tq_sampled { lower = Ast.B_inf; _ } -> ()
  | _ -> Alcotest.fail "inf bound"

let test_parse_rule_body () =
  match Parser.body "road(X), forall(bridge(Y, X) => open(Y))" with
  | Ast.B_and (Ast.B_atom _, Ast.B_forall (_, _)) -> ()
  | _ -> Alcotest.fail "body shape"

let test_parse_body_operators () =
  (match Parser.body "open(X) ; closed(X)" with
  | Ast.B_or _ -> ()
  | _ -> Alcotest.fail "or");
  (match Parser.body "not open(X)" with
  | Ast.B_not (Ast.B_atom _) -> ()
  | _ -> Alcotest.fail "not");
  (match Parser.body "X > 5" with
  | Ast.B_test (Ast.E_app (">", _)) -> ()
  | _ -> Alcotest.fail "comparison test");
  (match Parser.body "A is 1 - N / N0" with
  | Ast.B_test (Ast.E_app ("is", [ Ast.E_var "A"; Ast.E_app ("-", _) ])) -> ()
  | _ -> Alcotest.fail "is with arithmetic");
  (match Parser.body "test region_reps(r1, world, P)" with
  | Ast.B_test (Ast.E_app ("region_reps", _)) -> ()
  | _ -> Alcotest.fail "test keyword");
  match Parser.body "%[A] clear(img), A > 0.8" with
  | Ast.B_and (Ast.B_acc (_, Ast.E_var "A"), Ast.B_test _) -> ()
  | _ -> Alcotest.fail "accuracy atom"

let test_parse_errors_with_position () =
  let fails src =
    match Parser.program src with
    | exception Parser.Error msg -> Some msg
    | _ -> None
  in
  (match fails "fact road(s1)" (* missing dot *) with
  | Some msg -> Alcotest.(check bool) "mentions expectation" true
      (String.length msg > 3)
  | None -> Alcotest.fail "missing dot accepted");
  Alcotest.(check bool) "unknown keyword" true (fails "frobnicate x." <> None);
  Alcotest.(check bool) "bad domain" true (fails "domain d = foo." <> None)

(* The parser pulls tokens from the lexer as it goes, so each error is
   reported where it is met: the same line:col a whole-file tokenizer
   gave for a lexical error, and the earliest error in source order when
   a file has more than one. *)
let test_error_positions () =
  let error_of src =
    match Parser.program src with
    | exception Parser.Error msg -> msg
    | _ -> Alcotest.failf "accepted: %S" src
  in
  List.iter
    (fun (what, src, want) -> Alcotest.(check string) what want (error_of src))
    [
      ( "bad character",
        "objects a.\nfact road(a).\nfact road($a).",
        "3:11: unexpected character '$'" );
      ( "lone backslash",
        "fact x(a).\n  fact y(b) \\ z.",
        "2:13: unexpected character '\\\\'" );
      ( "unterminated string",
        "objects a.\nfact name(a) \"abc",
        "2:18: unterminated string" );
      ( "unterminated comment",
        "objects a.\n  /* open /* nested */ comment",
        "2:31: unterminated comment" );
      ("syntax error", "objects a.\nfact road(a)\nfact road(a).", "3:1: expected '.'");
      ( "syntax error before a bad character",
        "fact road(a) fact road(b).\nobjects $.",
        "1:14: expected '.'" );
      ( "syntax error before an unterminated string",
        "fact road(a) fact road(b).\nobjects \"x",
        "1:14: expected '.'" );
    ]

(* ---------- elaboration ---------- *)

(* Objects live in a hash set for the duplicate check and in a list for
   order; the compiled obj/1 generator facts keep the list's order,
   newest declaration first. *)
let test_elaborate_objects () =
  (match Elaborate.load_string "objects a, b. objects c, a." with
  | exception Elaborate.Error msg ->
      Alcotest.(check string) "duplicate" "Spec: duplicate object a" msg
  | _ -> Alcotest.fail "duplicate object accepted");
  let spec = (Elaborate.load_string "objects a, b, c.\nobjects d.").Elaborate.spec in
  Alcotest.(check (list string)) "newest first" [ "d"; "c"; "b"; "a" ]
    (Spec.objects spec);
  let db = (Compile.compile spec).Compile.db in
  Alcotest.(check (list string)) "obj/1 order"
    [ "obj(d)"; "obj(c)"; "obj(b)"; "obj(a)" ]
    (List.map
       (fun c -> Gdp_logic.Term.to_string c.Gdp_logic.Database.head)
       (Gdp_logic.Database.all_clauses db ("obj", 1)))

let test_elaborate_declarations () =
  let result =
    Elaborate.load_string
      {|
      coordinate geographic.
      clock 1990.
      fuzzy product.
      domain veg = { pine, oak }.
      objects a, b.
      predicate cover{veg}(1).
      space r1 = grid(4.0).
      space r2 = grid(1.0, 2.0) origin (0.5, 0.5).
      timespace years = line(1.0).
      region world = rect(0, 0, 10, 10).
      region lake = circle(5, 5, 2).
      region tri = polygon((0, 0), (4, 0), (0, 4)).
      model extra.
      |}
  in
  let spec = result.Elaborate.spec in
  Alcotest.(check bool) "coordinate" true (spec.Spec.coord = Gdp_space.Coord.Geographic);
  Alcotest.(check (float 1e-9)) "clock" 1990.0 (Gdp_temporal.Clock.now spec.Spec.clock);
  Alcotest.(check bool) "fuzzy family" true
    (spec.Spec.fuzzy_family = Gdp_fuzzy.Algebra.Product);
  Alcotest.(check bool) "domain declared" true
    (Gdp_domain.Semantic_domain.Registry.find spec.Spec.domains "veg" <> None);
  Alcotest.(check int) "objects" 2 (List.length (Spec.objects spec));
  Alcotest.(check bool) "anisotropic space" true
    (match Spec.find_space spec "r2" with
    | Some r -> r.Gdp_space.Resolution.dx = 1.0 && r.Gdp_space.Resolution.dy = 2.0
    | None -> false);
  Alcotest.(check bool) "tspace" true (Spec.find_tspace spec "years" <> None);
  Alcotest.(check int) "regions" 3 (List.length spec.Spec.regions);
  Alcotest.(check (list string)) "models" [ "w"; "extra" ] (Spec.model_names spec)

let test_elaborate_full_example () =
  let result =
    Elaborate.load_string
      {|
      objects s1, b1, b2.
      fact road(s1).
      fact bridge(b1, s1).
      fact bridge(b2, s1).
      fact open(b1).
      rule open_road(X) <- road(X), forall(bridge(Y, X) => open(Y)).
      rule closed(X) <- bridge(X, _), not open(X).
      constraint clash(X) <- open(X), closed(X).
      |}
  in
  let q = Elaborate.query result () in
  Alcotest.(check bool) "closed derived" true (Query.holds q (pat "closed(b2)"));
  Alcotest.(check bool) "road not open" false (Query.holds q (pat "open_road(s1)"));
  Alcotest.(check bool) "consistent" true (Query.consistent q)

let test_elaborate_model_blocks () =
  let result =
    Elaborate.load_string
      {|
      objects x.
      model celsius.
      in celsius {
        fact freezing_point(0)(x).
      }
      fact freezing_point(32)(x).
      |}
  in
  let q = Elaborate.query result () in
  Alcotest.(check bool) "celsius fact" true
    (Query.holds q (pat "celsius'freezing_point(0)(x)"));
  Alcotest.(check bool) "default model fact" true
    (Query.holds q (pat "freezing_point(32)(x)"));
  Alcotest.(check bool) "no cross-talk" false
    (Query.holds q (pat "celsius'freezing_point(32)(x)"))

let test_elaborate_acc_and_views () =
  let result =
    Elaborate.load_string
      {|
      objects img.
      acc 0.9 clear(img).
      model trusted.
      use fuzzy_unified_max.
      view strict = models { w } meta { fuzzy_unified_max }.
      |}
  in
  Alcotest.(check (list string)) "uses" [ "fuzzy_unified_max" ] result.Elaborate.uses;
  let q = Elaborate.query result ~view:"strict" () in
  Alcotest.(check (option (float 1e-9))) "accuracy via view" (Some 0.9)
    (Query.accuracy q (pat "clear(img)"));
  Alcotest.(check bool) "unknown view" true
    (try
       ignore (Elaborate.query result ~view:"nope" ());
       false
     with Elaborate.Error _ -> true)

let test_elaborate_metamodel_block () =
  let result =
    Elaborate.load_string
      {|
      objects x.
      fact repaired(x).
      metamodel optimism {
        holds(M, open, [], [X], S, T) :- holds(M, repaired, [], [X], S, T).
      }
      |}
  in
  let q = Elaborate.query result ~metas:[ "optimism" ] () in
  Alcotest.(check bool) "user meta-model applies" true (Query.holds q (pat "open(x)"));
  let q0 = Elaborate.query result ~metas:[] () in
  Alcotest.(check bool) "inactive without activation" false
    (Query.holds q0 (pat "open(x)"))

let test_elaborate_spatial_temporal_facts () =
  let result =
    Elaborate.load_string
      {|
      objects land, b.
      space r1 = grid(4.0).
      fact @u[r1](1, 1) wet(land).
      fact &u[1970, 1980] open(b).
      use spatial_uniform, temporal_uniform.
      |}
  in
  let q = Elaborate.query result () in
  Alcotest.(check bool) "spatial DSL fact" true
    (Query.holds q (pat "@(3.0, 3.0) wet(land)"));
  Alcotest.(check bool) "temporal DSL fact" true (Query.holds q (pat "&1975 open(b)"));
  Alcotest.(check bool) "outside patch" false
    (Query.holds q (pat "@(5.0, 3.0) wet(land)"))

let test_resolution_temporal_form () =
  (* &u[years] 1975 qualifies the fact over the whole logical-time cell *)
  let result =
    Elaborate.load_string
      {|
      objects b.
      timespace years = line(1.0).
      timespace decades = line(10.0).
      fact &u[decades] 1975 open(b).
      use temporal_uniform.
      |}
  in
  let q = Elaborate.query result () in
  Alcotest.(check bool) "same decade" true (Query.holds q (pat "&1972 open(b)"));
  Alcotest.(check bool) "next decade" false (Query.holds q (pat "&1981 open(b)"));
  (* subinterval inheritance across the forms *)
  Alcotest.(check bool) "explicit subinterval of the cell" true
    (Query.holds q (pat "&u[1972, 1978] open(b)"));
  (* resolution-form QUERY against an interval fact *)
  let result2 =
    Elaborate.load_string
      {|
      objects b.
      timespace years = line(1.0).
      fact &u[1970, 1980] open(b).
      use temporal_uniform.
      |}
  in
  let q2 = Elaborate.query result2 () in
  Alcotest.(check bool) "resolution-form query" true
    (Query.holds q2 (pat "&u[years] 1975.5 open(b)"))

let test_elaborate_accuracy_rule () =
  let result =
    Elaborate.load_string
      {|
      objects sensor.
      fact reading(10)(sensor).
      rule %A trusted_reading(V)(S) <- reading(V)(S), A is 1 / V.
      use fuzzy_unified_max.
      |}
  in
  let q = Elaborate.query result () in
  Alcotest.(check (option (float 1e-9))) "accuracy rule through DSL" (Some 0.1)
    (Query.accuracy q (pat "trusted_reading(V)(sensor)"))

let test_elaborate_error_reporting () =
  let fails src =
    match Elaborate.load_string src with
    | exception Elaborate.Error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "non-ground fact" true (fails "fact road(X).");
  Alcotest.(check bool) "unknown model" true (fails "fact nowhere'road(s).");
  Alcotest.(check bool) "unsafe rule" true (fails "objects s. rule p(X) <- q(Y).");
  Alcotest.(check bool) "duplicate object" true (fails "objects a, a.");
  Alcotest.(check bool) "utm without zone" true (fails "coordinate utm.");
  Alcotest.(check bool) "bad acc range" true (fails "objects i. acc 1.5 clear(i).")

let test_body_to_formula_shared_scope () =
  (* variables with equal names must unify across the whole rule *)
  let result =
    Elaborate.load_string
      {|
      objects a1, a2.
      fact p(a1).
      fact q(a1).
      fact q(a2).
      rule both(X) <- p(X), q(X).
      |}
  in
  let q = Elaborate.query result () in
  Alcotest.(check bool) "a1 satisfies both" true (Query.holds q (pat "both(a1)"));
  Alcotest.(check bool) "a2 lacks p" false (Query.holds q (pat "both(a2)"))

let tests =
  [
    Alcotest.test_case "lexer: tokens" `Quick test_lexer_tokens;
    Alcotest.test_case "lexer: operators" `Quick test_lexer_operators;
    Alcotest.test_case "lexer: nested comments" `Quick test_lexer_comments_nested;
    Alcotest.test_case "lexer: raw blocks" `Quick test_lexer_raw_block;
    Alcotest.test_case "lexer: positions" `Quick test_lexer_positions;
    Alcotest.test_case "parser: fact forms" `Quick test_parse_fact_forms;
    Alcotest.test_case "parser: spatial qualifiers" `Quick test_parse_spatial_qualifiers;
    Alcotest.test_case "parser: temporal qualifiers" `Quick test_parse_temporal_qualifiers;
    Alcotest.test_case "parser: rule bodies" `Quick test_parse_rule_body;
    Alcotest.test_case "parser: body operators" `Quick test_parse_body_operators;
    Alcotest.test_case "parser: errors" `Quick test_parse_errors_with_position;
    Alcotest.test_case "parser: error positions, first error first" `Quick
      test_error_positions;
    Alcotest.test_case "elaborate: declarations" `Quick test_elaborate_declarations;
    Alcotest.test_case "elaborate: objects, duplicates and obj/1 order" `Quick
      test_elaborate_objects;
    Alcotest.test_case "elaborate: full example" `Quick test_elaborate_full_example;
    Alcotest.test_case "elaborate: model blocks" `Quick test_elaborate_model_blocks;
    Alcotest.test_case "elaborate: accuracy and views" `Quick test_elaborate_acc_and_views;
    Alcotest.test_case "elaborate: metamodel blocks" `Quick test_elaborate_metamodel_block;
    Alcotest.test_case "elaborate: qualifiers" `Quick test_elaborate_spatial_temporal_facts;
    Alcotest.test_case "elaborate: resolution temporal form" `Quick
      test_resolution_temporal_form;
    Alcotest.test_case "elaborate: accuracy rules" `Quick test_elaborate_accuracy_rule;
    Alcotest.test_case "elaborate: error reporting" `Quick test_elaborate_error_reporting;
    Alcotest.test_case "elaborate: variable scoping" `Quick test_body_to_formula_shared_scope;
  ]
