(* Tests of the benchmark itself: seeded inputs are reproducible, the
   oracle agrees with the engine on real inputs, and the oracle rejects
   answers that were deliberately altered. *)

open Gdp_core
open Perfbench_lib

let failures = ref 0

let test name f =
  match f () with
  | () -> Printf.printf "ok   %s\n" name
  | exception e ->
      incr failures;
      Printf.printf "FAIL %s: %s\n" name (Printexc.to_string e)

let rejects f =
  match f () with
  | () -> failwith "the oracle accepted an altered answer"
  | exception Oracle.Wrong _ -> ()

let query ?(mode = Query.Materialized) text =
  let r = Gdp_lang.Elaborate.load_string text in
  Query.create ~mode ~meta_view:r.Gdp_lang.Elaborate.uses r.Gdp_lang.Elaborate.spec

let terrain = Gen.terrain ~seed:3 ~member:0

let pits_of q = List.map Oracle.violation_key (Query.violations q)

let flows_of q i j =
  Query.solutions q
    (Gfact.make "flows" ~objects:[ Gfact.pos_term (Gen.cell_pos i j); Gdp_logic.Term.var "X" ])
  |> List.filter_map (fun a ->
         match a.Gfact.objects with [ _; x ] -> Some (Oracle.term_string x) | _ -> None)

let () =
  test "same seed, byte-identical specs" (fun () ->
      assert ((Gen.terrain ~seed:3 ~member:0).Gen.terrain_text = terrain.Gen.terrain_text);
      assert ((Gen.paper ~seed:3 ~member:1 ()).Gen.paper_text = (Gen.paper ~seed:3 ~member:1 ()).Gen.paper_text));
  test "another seed or member, different specs" (fun () ->
      assert ((Gen.terrain ~seed:4 ~member:0).Gen.terrain_text <> terrain.Gen.terrain_text);
      assert ((Gen.terrain ~seed:3 ~member:1).Gen.terrain_text <> terrain.Gen.terrain_text);
      assert ((Gen.paper ~seed:4 ~member:1 ()).Gen.paper_text <> (Gen.paper ~seed:3 ~member:1 ()).Gen.paper_text));
  let q = query terrain.Gen.terrain_text in
  let g = Oracle.grid_of terrain in
  test "terrain: engine pits and flows equal the oracle" (fun () ->
      Oracle.check ~what:"pits" ~expected:(Oracle.pits g) ~got:(pits_of q);
      for j = 0 to g.Oracle.n - 1 do
        for i = 0 to g.Oracle.n - 1 do
          Oracle.check ~what:"flows" ~expected:(Oracle.flows_from g i j) ~got:(flows_of q i j)
        done
      done);
  test "terrain: top-down agrees on pits" (fun () ->
      Oracle.check ~what:"pits" ~expected:(Oracle.pits g)
        ~got:(pits_of (query ~mode:Query.Top_down terrain.Gen.terrain_text)));
  test "terrain: altered answers fail" (fun () ->
      let pits = pits_of q and flows = flows_of q 3 3 in
      assert (pits <> [] && flows <> []);
      rejects (fun () -> Oracle.check ~what:"pits" ~expected:(Oracle.pits g) ~got:(List.tl pits));
      rejects (fun () ->
          Oracle.check ~what:"pits" ~expected:(Oracle.pits g) ~got:("w: pit(pos(0.25, 0.25))" :: pits));
      rejects (fun () ->
          Oracle.check ~what:"flows" ~expected:(Oracle.flows_from g 3 3) ~got:(List.tl flows)));
  test "terrain: the grid alone is the printed terrain's grid" (fun () ->
      assert (Oracle.grid_of_heights (Gen.heights ~seed:3 ~member:0) = g));
  test "terrain: edit weights are (upstream + 1) * (downstream + 1)" (fun () ->
      let w = Oracle.edit_weights g in
      let cells = List.init (g.Oracle.n * g.Oracle.n) (fun k -> (k mod g.Oracle.n, k / g.Oracle.n)) in
      List.iter
        (fun (i, j) ->
          let me = Oracle.pos_string i j in
          let up = List.filter (fun (x, y) -> List.mem me (Oracle.flows_from g x y)) cells in
          assert (w.(j).(i) = (List.length up + 1) * (List.length (Oracle.flows_from g i j) + 1)))
        cells);
  test "terrain: the oracle follows a session write" (fun () ->
      let g = Oracle.grid_of terrain and q = query terrain.Gen.terrain_text in
      (* raise a cell above all its neighbours: it cannot be a pit *)
      let i, j = (2, 5) in
      let old = g.Oracle.elev.(j).(i) in
      ignore
        (Query.update q [ `Retract (Gen.elevation_fact i j old); `Assert (Gen.elevation_fact i j 5000.0) ]);
      g.Oracle.elev.(j).(i) <- 5000.0;
      Oracle.check ~what:"pits" ~expected:(Oracle.pits g) ~got:(pits_of q);
      Oracle.check ~what:"flows" ~expected:(Oracle.flows_from g i j) ~got:(flows_of q i j));
  let paper = Gen.paper ~seed:3 ~member:0 () in
  test "paper: engine violations equal the oracle; altered ones fail" (fun () ->
      let expected = Oracle.paper_violations paper.Gen.census in
      let got = pits_of (query ~mode:Query.Top_down paper.Gen.paper_text) in
      assert (expected <> []);
      Oracle.check ~what:"paper" ~expected ~got;
      rejects (fun () -> Oracle.check ~what:"paper" ~expected ~got:(List.tl got)));
  if !failures > 0 then exit 1
