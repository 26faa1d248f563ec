(* Benchmark and experiment-reproduction harness.

   The paper's evaluation is a prototype feasibility demonstration with
   worked micro-examples and no numbered tables or figures (see DESIGN.md
   §2 and EXPERIMENTS.md). This harness therefore regenerates:

   - E1..E12: every worked example in the paper, end to end, at
     controllable scale, each printing the rows recorded in
     EXPERIMENTS.md (ground-truth agreement, scaling series, shape
     checks);
   - ablation: the design choices DESIGN.md calls out, head to head;
   - micro: Bechamel micro-benchmarks of the inference substrate;
   - engine-*: wall-clock series over the bottom-up engine's subsystems
     (indexing, DRed maintenance, magic sets, --jobs, lineage, R-tree
     joins, snapshots) — the performance dimension the paper mentions
     ("Prolog's computational inefficiency") but never quantifies. Every
     timed leg is the median of [reps] runs, reported with its minimum
     and interquartile range.

   Usage (the names are the [commands] table at the end of this file):
     dune exec bench/main.exe                  # all but report and json
     dune exec bench/main.exe -- e7 [e8 ...]   # experiments e1..e12
     dune exec bench/main.exe -- report        # e1..e12
     dune exec bench/main.exe -- ablation
     dune exec bench/main.exe -- micro
     dune exec bench/main.exe -- engine-bu     # one engine series at its
         small scales, table only: engine-bu, engine-incr, engine-magic,
         engine-par, engine-prov, engine-spatial, engine-snap
     dune exec bench/main.exe -- json [small]  # every engine series, full
         (or small) scales, tables plus BENCH_engine.json *)

open Gdp_core
module T = Gdp_logic.Term
module W = Gdp_workload

let a = T.atom
let v = T.var

(* flush per line so long runs stay observable through a pipe *)
let section title = Printf.printf "\n==== %s ====\n%!" title
let row fmt = Printf.ksprintf (fun s -> print_string s; flush stdout) fmt

(* wall-clock of a thunk, in milliseconds, off the monotonic clock
   (Sys.time would report CPU time; the micro benches use bechamel below) *)
let time_ms f =
  let t0 = Monotonic_clock.now () in
  let result = f () in
  let t1 = Monotonic_clock.now () in
  (Int64.to_float (Int64.sub t1 t0) /. 1e6, result)

(* ---------------------------------------------------------------- E1 *)

let e1 () =
  section "E1 — bridges/roads virtual facts (§II-B, §III-A)";
  row "  %8s %8s %10s %10s %12s  %s\n" "roads" "bridges" "open_roads" "truth"
    "query_ms" "agree";
  List.iter
    (fun n_roads ->
      let rng = W.Rng.create 1L in
      let net = W.Roads.generate rng ~n_roads ~bridges_per_road:4 ~open_probability:0.8 () in
      let spec = Spec.create () in
      Meta.install_standard spec;
      W.Roads.add_to_spec net spec ();
      W.Roads.add_status_rules spec ();
      let q = Query.create spec in
      let ms, open_roads =
        time_ms (fun () ->
            List.length (Query.solutions q (Gfact.make "open_road" ~objects:[ v "R" ])))
      in
      let truth =
        net.W.Roads.roads
        |> List.filter (fun (r : W.Roads.road) ->
               net.W.Roads.bridges
               |> List.filter (fun (b : W.Roads.bridge) ->
                      b.W.Roads.on_road = r.W.Roads.road_id)
               |> List.for_all (fun (b : W.Roads.bridge) -> b.W.Roads.is_open))
        |> List.length
      in
      row "  %8d %8d %10d %10d %12.2f  %b\n" n_roads (n_roads * 4) open_roads truth
        ms (open_roads = truth))
    [ 10; 40; 160; 640 ]

(* ---------------------------------------------------------------- E2 *)

let e2 () =
  section "E2 — many-sorted + general-law constraints (§III-C/D/E)";
  row "  %8s %14s %14s %10s  %s\n" "states" "seeded_bugs" "violations" "check_ms"
    "agree";
  List.iter
    (fun n_states ->
      let rng = W.Rng.create 2L in
      let census =
        W.Census.generate rng ~n_states ~cities_per_state:4
          ~capital_bug_probability:0.5 ()
      in
      let seeded =
        census.W.Census.states
        |> List.filter (fun s ->
               List.length
                 (List.filter
                    (fun (c : W.Census.city) ->
                      c.W.Census.in_state = s && c.W.Census.is_capital)
                    census.W.Census.cities)
               > 1)
        |> List.length
      in
      let spec = Spec.create () in
      Meta.install_standard spec;
      W.Census.add_to_spec census spec ();
      W.Census.add_constraints spec ();
      let q = Query.create spec in
      let ms, viols = time_ms (fun () -> Query.violations q) in
      let two_caps =
        List.length (List.filter (fun x -> x.Query.v_tag = "two_capitals") viols)
      in
      row "  %8d %14d %14d %10.2f  %b\n" n_states seeded two_caps ms
        (two_caps = seeded))
    [ 5; 20; 80 ]

(* ---------------------------------------------------------------- E3 *)

let e3 () =
  section "E3 — closed world assumption meta-model (§IV-A)";
  row "  %8s %8s %12s %12s  %s\n" "objects" "known" "cwa_false" "expected" "agree";
  List.iter
    (fun n ->
      let spec = Spec.create () in
      Meta.install_standard spec;
      Spec.declare_predicate spec "surveyed" ~object_arity:1;
      for i = 0 to n - 1 do
        Spec.declare_object spec (Printf.sprintf "parcel_%d" i)
      done;
      (* every third parcel is known surveyed *)
      let known = ref 0 in
      for i = 0 to n - 1 do
        if i mod 3 = 0 then begin
          incr known;
          Spec.add_fact spec
            (Gfact.make "surveyed" ~objects:[ a (Printf.sprintf "parcel_%d" i) ])
        end
      done;
      let q = Query.create spec ~meta_view:[ "cwa" ] in
      let falses =
        List.length
          (Query.solutions q
             (Gfact.make "surveyed" ~values:[ a "false" ] ~objects:[ v "X" ]))
      in
      row "  %8d %8d %12d %12d  %b\n" n !known falses (n - !known)
        (falses = n - !known))
    [ 30; 120; 480 ]

(* ---------------------------------------------------------------- E4 *)

let e4 () =
  section "E4 — contradiction meta-constraint (§IV-B)";
  row "  %8s %14s %14s  %s\n" "facts" "seeded" "found" "agree";
  List.iter
    (fun n ->
      let rng = W.Rng.create 4L in
      let spec = Spec.create () in
      Meta.install_standard spec;
      let seeded = ref 0 in
      for i = 0 to n - 1 do
        let o = Printf.sprintf "b%d" i in
        Spec.declare_object spec o;
        let tv = if W.Rng.bool rng then "true" else "false" in
        Spec.add_fact spec (Gfact.make "open" ~values:[ a tv ] ~objects:[ a o ]);
        if W.Rng.float rng 1.0 < 0.2 then begin
          incr seeded;
          let other = if tv = "true" then "false" else "true" in
          Spec.add_fact spec (Gfact.make "open" ~values:[ a other ] ~objects:[ a o ])
        end
      done;
      let q = Query.create spec ~meta_view:[ "contradiction" ] in
      let found =
        List.length
          (List.filter (fun x -> x.Query.v_tag = "contradiction") (Query.violations q))
      in
      row "  %8d %14d %14d  %b\n" n !seeded found (found = !seeded))
    [ 50; 200; 800 ]

(* ---------------------------------------------------------------- E5 *)

let e5 () =
  section "E5 — spatial operators and refinement inheritance (§V-C)";
  let spec = Spec.create () in
  Meta.install_standard spec;
  Spec.declare_space spec (Gdp_space.Resolution.uniform ~name:"r4" 4.0);
  Spec.declare_space spec (Gdp_space.Resolution.uniform ~name:"r2" 2.0);
  Spec.declare_space spec (Gdp_space.Resolution.uniform ~name:"r1" 1.0);
  Spec.declare_object spec "land";
  Spec.add_fact spec
    (Gfact.make "zone" ~values:[ a "wetland" ] ~objects:[ a "land" ]
       ~space:(Gfact.S_uniform (a "r4", Gfact.pos_term (Gdp_space.Point.make 2.0 2.0))));
  let q = Query.create spec ~meta_view:[ "spatial_uniform"; "spatial_sampled" ] in
  row "  one @u[r4] fact over a 4x4 patch; derived realisations:\n";
  List.iter
    (fun (res, expected) ->
      let ms, cells =
        time_ms (fun () ->
            List.length
              (Query.solutions q
                 (Gfact.make "zone" ~values:[ a "wetland" ] ~objects:[ a "land" ]
                    ~space:(Gfact.S_uniform (a res, v "P")))))
      in
      row "  @u[%s] cells: %4d (expected %4d, %s) %8.2f ms\n" res cells expected
        (if cells = expected then "agree" else "DISAGREE")
        ms)
    [ ("r2", 4); ("r1", 16) ];
  let probe =
    Gfact.make "zone" ~values:[ a "wetland" ] ~objects:[ a "land" ]
      ~space:(Gfact.S_at (Gfact.pos_term (Gdp_space.Point.make 3.7 0.2)))
  in
  row "  @p inside patch provable:  %b (expected true)\n" (Query.holds q probe);
  let outside =
    Gfact.make "zone" ~values:[ a "wetland" ] ~objects:[ a "land" ]
      ~space:(Gfact.S_at (Gfact.pos_term (Gdp_space.Point.make 4.2 0.2)))
  in
  row "  @p outside patch provable: %b (expected false)\n" (Query.holds q outside)

(* ---------------------------------------------------------------- E6 *)

let e6 () =
  section "E6 — elevation peaks on fractal terrain (§V-C example)";
  row "  %8s %8s %10s %10s  %s\n" "grid" "facts" "peaks" "truth" "agree";
  List.iter
    (fun size_exp ->
      let rng = W.Rng.create 6L in
      let terrain = W.Terrain.generate rng ~size_exp ~cell:1.0 () in
      let n = terrain.W.Terrain.size - 1 in
      let spec = Spec.create () in
      Meta.install_standard spec;
      Spec.declare_space spec (Gdp_space.Resolution.uniform ~name:"fine" 1.0);
      Spec.declare_region spec "map"
        (Gdp_space.Region.rect ~min_x:0.0 ~min_y:0.0 ~max_x:(float_of_int n)
           ~max_y:(float_of_int n));
      Spec.declare_object spec "land";
      let facts =
        W.Terrain.add_elevation_facts terrain spec ~resolution:"fine"
          ~object_name:"land" ~scale:1.0 ()
      in
      let p0 = v "P0" and z0 = v "Z0" and p1 = v "P1" and z1 = v "Z1" and d = v "D" in
      Spec.add_rule spec ~name:"peak"
        ~head:
          (Gfact.make "peak" ~values:[ z0 ] ~objects:[ a "land" ]
             ~space:(Gfact.S_at p0))
        Formula.(
          conj
            [
              Test (T.app "region_reps" [ a "fine"; a "map"; p0 ]);
              Atom
                (Gfact.make "elevation" ~values:[ z0 ] ~objects:[ a "land" ]
                   ~space:(Gfact.S_uniform (a "fine", p0)));
              Forall
                ( conj
                    [
                      Test (T.app "region_reps" [ a "fine"; a "map"; p1 ]);
                      Test (T.app "pt_dist" [ p0; p1; d ]);
                      Test (T.app ">" [ d; T.float 0.0 ]);
                      Test (T.app "<" [ d; T.float 1.5 ]);
                      Atom
                        (Gfact.make "elevation" ~values:[ z1 ] ~objects:[ a "land" ]
                           ~space:(Gfact.S_uniform (a "fine", p1)));
                    ],
                  Test (T.app ">" [ z0; z1 ]) );
            ]);
      let q = Query.create spec in
      let peaks =
        List.length
          (Query.solutions q
             (Gfact.make "peak" ~values:[ v "Z" ] ~objects:[ a "land" ]
                ~space:(Gfact.S_at (v "P"))))
      in
      (* brute-force ground truth on the raw heights: strictly higher than
         the 8-neighbourhood (every cell centre within distance 1.5) *)
      let truth = ref 0 in
      for j = 0 to n - 1 do
        for i = 0 to n - 1 do
          let h = W.Terrain.height terrain i j in
          let higher_than di dj =
            let x = i + di and y = j + dj in
            x < 0 || x >= n || y < 0 || y >= n || h > W.Terrain.height terrain x y
          in
          let ok = ref true in
          for di = -1 to 1 do
            for dj = -1 to 1 do
              if (di <> 0 || dj <> 0) && not (higher_than di dj) then ok := false
            done
          done;
          if !ok then incr truth
        done
      done;
      row "  %5dx%-3d %7d %10d %10d  %b\n" n n facts peaks !truth (peaks = !truth))
    [ 3; 4 ]

(* ---------------------------------------------------------------- E7 *)

let e7 () =
  section "E7 — island thresholding sweep (§V-D)";
  let rng = W.Rng.create 7L in
  let terrain = W.Terrain.generate rng ~size_exp:4 ~cell:1.0 () in
  let spec = Spec.create () in
  Meta.install_standard spec;
  Spec.declare_space spec (Gdp_space.Resolution.uniform ~name:"fine" 1.0);
  Spec.declare_space spec (Gdp_space.Resolution.uniform ~name:"coarse" 4.0);
  Spec.declare_object spec "land";
  let island_cells =
    W.Terrain.add_mask_facts terrain spec ~resolution:"fine" ~pred:"island"
      ~object_name:"land"
      ~keep:(fun h -> h > 0.75)
      ~qualifier:`Sampled ()
  in
  row "  island feature covers %d fine cells; survival at the coarse map:\n"
    island_cells;
  row "  %10s %16s\n" "min_cells" "coarse_cells";
  let last = ref max_int in
  let monotone = ref true in
  List.iter
    (fun delta ->
      Spec.add_meta_model spec
        (Meta.thresholding
           ~name:(Printf.sprintf "thr_%d" delta)
           ~pred:"island" ~fine:"fine" ~coarse:"coarse" ~min_cells:delta ());
      let q = Query.create spec ~meta_view:[ Printf.sprintf "thr_%d" delta ] in
      let cells =
        List.length
          (Query.solutions q
             (Gfact.make "island" ~objects:[ a "land" ]
                ~space:(Gfact.S_sampled (a "coarse", v "P"))))
      in
      if cells > !last then monotone := false;
      last := cells;
      row "  %10d %16d\n" delta cells)
    [ 0; 2; 4; 8; 16; 32 ];
  row "  shape: survival decreases monotonically with the threshold: %b\n"
    !monotone

(* ---------------------------------------------------------------- E8 *)

let e8 () =
  section "E8 — temporal reasoning over observation streams (§VI)";
  row "  %8s %10s %12s %12s  %s\n" "events" "queries" "persist_ms" "agree" "";
  List.iter
    (fun n_events ->
      let rng = W.Rng.create 8L in
      let spec = Spec.create ~now:1000.0 () in
      Meta.install_standard spec;
      Spec.declare_object spec "b";
      (* a stream of alternating status observations at random times *)
      let times =
        List.init n_events (fun _ -> W.Rng.float rng 1000.0) |> List.sort compare
      in
      let events =
        List.mapi (fun i t -> (t, if i mod 2 = 0 then "open" else "closed")) times
      in
      List.iter
        (fun (t, s) ->
          Spec.add_fact spec
            (Gfact.make "status" ~values:[ a s ] ~objects:[ a "b" ]
               ~time:(Gfact.T_at (T.float t))))
        events;
      let q = Query.create spec ~meta_view:[ "temporal_persistence" ] in
      (* ground truth: replay the event list *)
      let truth_at t =
        List.fold_left (fun acc (et, s) -> if et <= t then Some s else acc) None events
      in
      let probes = List.init 20 (fun i -> float_of_int i *. 50.0) in
      let ms, agree =
        time_ms (fun () ->
            List.for_all
              (fun t ->
                let derived =
                  List.filter
                    (fun s ->
                      Query.holds q
                        (Gfact.make "status" ~values:[ a s ] ~objects:[ a "b" ]
                           ~time:(Gfact.T_at (T.float t))))
                    [ "open"; "closed" ]
                in
                match truth_at t with
                | None -> derived = []
                | Some s -> derived = [ s ])
              probes)
      in
      row "  %8d %10d %12.2f %12b\n" n_events (List.length probes) ms agree)
    [ 10; 40; 160 ]

(* ---------------------------------------------------------------- E9 *)

let e9 () =
  section "E9 — depth-interpolation accuracy (§VII-B extrapolation)";
  let rng = W.Rng.create 9L in
  let survey = W.Hydro.generate rng ~n_samples:25 ~extent:100.0 () in
  let spec = Spec.create () in
  Meta.install_standard spec;
  Spec.declare_space spec (Gdp_space.Resolution.uniform ~name:"chart" 10.0);
  Spec.declare_region spec "basin"
    (Gdp_space.Region.rect ~min_x:0.0 ~min_y:0.0 ~max_x:100.0 ~max_y:100.0);
  W.Hydro.add_to_spec survey spec ();
  W.Hydro.add_interpolation_rule survey spec ~region:"basin" ~resolution:"chart" ();
  let q = Query.create spec ~meta_view:[ "fuzzy_unified_max" ] in
  let estimates =
    Query.accuracies q
      (Gfact.make "depth" ~values:[ v "D" ] ~objects:[ a "ocean" ]
         ~space:(Gfact.S_at (v "P")))
  in
  (* bucket by distance to nearest sample; accuracy and error must both be
     monotone in the distance *)
  let nearest p =
    survey.W.Hydro.samples
    |> List.map (fun (sp, _) -> Gdp_space.Point.euclidean p sp)
    |> List.fold_left Float.min Float.infinity
  in
  let buckets = [ (0.0, 5.0); (5.0, 10.0); (10.0, 20.0); (20.0, 1000.0) ] in
  row "  %14s %8s %12s %12s\n" "dist_bucket" "cells" "mean_acc" "mean_err_m";
  let stats =
    List.map
      (fun (lo, hi) ->
        let in_bucket =
          List.filter_map
            (fun (f, acc) ->
              match (f.Gfact.space, f.Gfact.values) with
              | Gfact.S_at pt, [ T.Float d ] -> (
                  match Gfact.pos_of_term pt with
                  | Some p when nearest p >= lo && nearest p < hi ->
                      Some (acc, Float.abs (d -. W.Hydro.true_depth survey p))
                  | _ -> None)
              | _ -> None)
            estimates
        in
        let n = List.length in_bucket in
        let mean f = List.fold_left (fun s x -> s +. f x) 0.0 in_bucket /. float_of_int (max 1 n) in
        let macc = mean fst and merr = mean snd in
        row "  %6.0f-%-6.0f %8d %12.3f %12.1f\n" lo hi n macc merr;
        (macc, merr, n))
      buckets
  in
  let rec acc_monotone = function
    | (a1, _, n1) :: ((a2, _, n2) :: _ as rest) ->
        (n1 = 0 || n2 = 0 || a1 >= a2) && acc_monotone rest
    | _ -> true
  in
  row "  shape: accuracy decays with distance from the nearest sample: %b\n"
    (acc_monotone stats)

(* --------------------------------------------------------------- E10 *)

let e10 () =
  section "E10 — picture clarity via the card primitive (§VII-B)";
  row "  %8s %12s %12s %12s  %s\n" "size" "cover" "clarity" "expected" "agree";
  List.iter
    (fun (size, cover) ->
      let rng = W.Rng.create 10L in
      let clouds = W.Clouds.generate rng ~size ~cover () in
      let spec = Spec.create () in
      Meta.install_standard spec;
      W.Clouds.add_to_spec clouds spec ~resolution:"r" ~image:"img" ();
      W.Clouds.add_clarity_rule spec ~image:"img" ();
      let q = Query.create spec ~meta_view:[ "fuzzy_unified_max" ] in
      match Query.accuracy q (Gfact.make "clarity" ~objects:[ a "img" ]) with
      | Some acc ->
          let expected = 1.0 -. W.Clouds.cloud_fraction clouds in
          row "  %8d %12.2f %12.4f %12.4f  %b\n" size cover acc expected
            (Float.abs (acc -. expected) < 1e-9)
      | None -> row "  %8d %12.2f %12s\n" size cover "FAILED")
    [ (8, 0.1); (16, 0.3); (16, 0.7); (24, 0.5) ]

(* --------------------------------------------------------------- E11 *)

let e11 () =
  section "E11 — AC uncertainty propagation through rule chains (§VII-F)";
  row "  %8s %14s %14s %10s  %s\n" "depth" "min_input" "derived" "ms" "agree";
  List.iter
    (fun depth ->
      let rng = W.Rng.create 11L in
      let spec = Spec.create () in
      Meta.install_standard spec;
      Spec.declare_object spec "x";
      (* a chain p0 <- p1 <- ... <- p_depth with accuracy statements on the
         leaves of each level *)
      let accs =
        List.init depth (fun _ -> 0.5 +. W.Rng.float rng 0.5)
      in
      List.iteri
        (fun i acc ->
          let base = Printf.sprintf "base_%d" i in
          Spec.add_fact spec (Gfact.make base ~objects:[ a "x" ]);
          Spec.add_acc_statement spec (Gfact.make base ~objects:[ a "x" ]) acc)
        accs;
      (* level i: level_{i}(X) <- base_i(X), level_{i+1}(X) *)
      let xv = v "X" in
      for i = depth - 1 downto 0 do
        let body =
          if i = depth - 1 then
            Formula.Atom (Gfact.make (Printf.sprintf "base_%d" i) ~objects:[ xv ])
          else
            Formula.And
              ( Formula.Atom (Gfact.make (Printf.sprintf "base_%d" i) ~objects:[ xv ]),
                Formula.Atom (Gfact.make (Printf.sprintf "level_%d" (i + 1)) ~objects:[ xv ]) )
        in
        Spec.add_rule spec
          ~name:(Printf.sprintf "level_%d" i)
          ~head:(Gfact.make (Printf.sprintf "level_%d" i) ~objects:[ xv ])
          body
      done;
      let q = Query.create spec ~meta_view:[ "fuzzy_unified_max"; "fuzzy_propagation" ] in
      let expected = List.fold_left Float.min 1.0 accs in
      let ms, derived =
        time_ms (fun () -> Query.accuracy q (Gfact.make "level_0" ~objects:[ a "x" ]))
      in
      match derived with
      | Some d ->
          row "  %8d %14.4f %14.4f %10.2f  %b\n" depth expected d ms
            (Float.abs (d -. expected) < 1e-9)
      | None -> row "  %8d %14.4f %14s\n" depth expected "FAILED")
    [ 2; 4; 8; 16 ]

(* --------------------------------------------------------------- E12 *)

let e12 () =
  section "E12 — rendering logical information (§I prototype path)";
  let rng = W.Rng.create 12L in
  let terrain = W.Terrain.generate rng ~size_exp:5 ~cell:1.0 () in
  let spec = Spec.create () in
  Meta.install_standard spec;
  Spec.declare_space spec (Gdp_space.Resolution.uniform ~name:"fine" 1.0);
  Spec.declare_object spec "land";
  let _ =
    W.Terrain.add_elevation_facts terrain spec ~resolution:"fine"
      ~object_name:"land" ~scale:1.0 ()
  in
  let q = Query.create spec in
  row "  %10s %10s %12s %14s\n" "raster" "cells" "render_ms" "painted_pixels";
  List.iter
    (fun side ->
      let region =
        Gdp_space.Region.rect ~min_x:0.0 ~min_y:0.0 ~max_x:(float_of_int side)
          ~max_y:(float_of_int side)
      in
      let layer =
        Gdp_render.Map_render.value ~name:"elevation" ~lo:0.0 ~hi:1.0 (fun p ->
            let z = v "Z" in
            {
              Gdp_render.Map_render.pattern =
                Gfact.make "elevation" ~values:[ z ] ~objects:[ a "land" ]
                  ~space:(Gfact.S_uniform (a "fine", Gfact.pos_term p));
              value_var = z;
            })
      in
      let ms, fb =
        time_ms (fun () ->
            Gdp_render.Map_render.render q ~resolution:"fine" ~region [ layer ])
      in
      let painted =
        Gdp_render.Framebuffer.histogram fb
        |> List.filter (fun (c, _) -> not (Gdp_render.Color.equal c Gdp_render.Color.black))
        |> List.fold_left (fun acc (_, n) -> acc + n) 0
      in
      row "  %6dx%-3d %10d %12.2f %14d\n" side side (side * side) ms painted)
    [ 8; 16; 32 ]

(* ------------------------------------------------------- ablations *)

(* the design choices DESIGN.md calls out, measured head to head *)
let ablation () =
  section "ablation 1 — clause index key (DESIGN.md §4)";
  let make_compiled n_roads =
    let rng = W.Rng.create 55L in
    let net = W.Roads.generate rng ~n_roads ~bridges_per_road:4 () in
    let spec = Spec.create () in
    Meta.install_standard spec;
    W.Roads.add_to_spec net spec ();
    W.Roads.add_status_rules spec ();
    Query.create spec
  in
  row "  %8s %22s %22s %8s\n" "roads" "composite_index_ms" "model_keyed_ms" "speedup";
  List.iter
    (fun n_roads ->
      let q = make_compiled n_roads in
      let run () =
        List.length (Query.solutions q (Gfact.make "open_road" ~objects:[ v "R" ]))
      in
      let composite_ms, n1 = time_ms run in
      (* degrade to the naive encoding: key on the model atom (argument 0),
         which is identical for every fact *)
      Gdp_logic.Database.set_index_args (Query.db q) ("holds", 6) [ 0 ];
      let naive_ms, n2 = time_ms run in
      row "  %8d %22.2f %22.2f %7.1fx %s\n" n_roads composite_ms naive_ms
        (naive_ms /. Float.max 0.01 composite_ms)
        (if n1 = n2 then "" else "(DISAGREE)"))
    [ 40; 160 ];

  section "ablation 2 — ancestor loop check overhead";
  let spec = Spec.create () in
  Meta.install_standard spec;
  Spec.declare_space spec (Gdp_space.Resolution.uniform ~name:"r1" 4.0);
  Spec.declare_space spec (Gdp_space.Resolution.uniform ~name:"r2" 1.0);
  Spec.declare_object spec "land";
  for i = 0 to 15 do
    for j = 0 to 15 do
      Spec.add_fact spec
        (Gfact.make "wet" ~objects:[ a "land" ]
           ~space:
             (Gfact.S_uniform
                ( a "r2",
                  Gfact.pos_term
                    (Gdp_space.Point.make
                       (float_of_int i +. 0.5)
                       (float_of_int j +. 0.5)) )))
    done
  done;
  let probe q =
    Query.holds q
      (Gfact.make "wet" ~objects:[ a "land" ]
         ~space:(Gfact.S_uniform (a "r1", Gfact.pos_term (Gdp_space.Point.make 2.0 2.0))))
  in
  let q_down = Query.create spec ~meta_view:[ "spatial_uniform" ] in
  let q_updown = Query.create spec ~meta_view:[ "spatial_uniform"; "spatial_uniform_up" ] in
  let down_ms, _ = time_ms (fun () -> for _ = 1 to 50 do ignore (probe q_down) done) in
  let updown_ms, _ = time_ms (fun () -> for _ = 1 to 50 do ignore (probe q_updown) done) in
  row "  %-42s %10.2f ms / 50 queries\n" "down rules only (no loop check needed)" down_ms;
  row "  %-42s %10.2f ms / 50 queries\n" "up+down rules (ancestor check active)" updown_ms;

  section "ablation 3 — fuzzy connective family (§VII-A)";
  row "  same depth-8 rule chain under each family:\n";
  List.iter
    (fun family ->
      let rng = W.Rng.create 77L in
      let spec = Spec.create () in
      Meta.install_standard spec;
      spec.Spec.fuzzy_family <- family;
      Spec.declare_object spec "x";
      let accs = List.init 8 (fun _ -> 0.8 +. W.Rng.float rng 0.2) in
      List.iteri
        (fun i acc ->
          let base = Printf.sprintf "base_%d" i in
          Spec.add_fact spec (Gfact.make base ~objects:[ a "x" ]);
          Spec.add_acc_statement spec (Gfact.make base ~objects:[ a "x" ]) acc)
        accs;
      let xv = v "X" in
      for i = 7 downto 0 do
        let body =
          if i = 7 then
            Formula.Atom (Gfact.make (Printf.sprintf "base_%d" i) ~objects:[ xv ])
          else
            Formula.And
              ( Formula.Atom (Gfact.make (Printf.sprintf "base_%d" i) ~objects:[ xv ]),
                Formula.Atom
                  (Gfact.make (Printf.sprintf "level_%d" (i + 1)) ~objects:[ xv ]) )
        in
        Spec.add_rule spec
          ~name:(Printf.sprintf "level_%d" i)
          ~head:(Gfact.make (Printf.sprintf "level_%d" i) ~objects:[ xv ])
          body
      done;
      let q =
        Query.create spec ~meta_view:[ "fuzzy_unified_max"; "fuzzy_propagation" ]
      in
      match Query.accuracy q (Gfact.make "level_0" ~objects:[ a "x" ]) with
      | Some acc ->
          row "  %-14s derived accuracy %0.4f (min input %0.4f)\n"
            (Format.asprintf "%a" Gdp_fuzzy.Algebra.pp_family family)
            acc
            (List.fold_left Float.min 1.0 accs)
      | None -> row "  %-14s FAILED\n" (Format.asprintf "%a" Gdp_fuzzy.Algebra.pp_family family))
    [ Gdp_fuzzy.Algebra.Min_max; Gdp_fuzzy.Algebra.Product; Gdp_fuzzy.Algebra.Lukasiewicz ]

(* -------------------------------------------------- micro-benchmarks *)

let micro () =
  let open Bechamel in
  section "engine micro-benchmarks (Bechamel, monotonic clock)";
  (* fixtures *)
  let db = Gdp_logic.Engine.create () in
  Gdp_logic.Engine.consult db
    {|
    edge(a, b). edge(b, c). edge(c, d). edge(d, e). edge(e, f).
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
    |};
  let big_db = Gdp_logic.Engine.create () in
  for i = 0 to 999 do
    Gdp_logic.Database.fact big_db
      (T.app "item" [ T.atom (Printf.sprintf "k%d" i); T.int i ])
  done;
  let t1 = Gdp_logic.Reader.term "f(g(X, h(Y)), [1, 2, 3 | T], Z)" in
  let t2 = Gdp_logic.Reader.term "f(g(a, h(b)), [1, 2, 3, 4], w(9))" in
  let roads =
    let rng = W.Rng.create 100L in
    let net = W.Roads.generate rng ~n_roads:50 ~bridges_per_road:4 () in
    let spec = Spec.create () in
    Meta.install_standard spec;
    W.Roads.add_to_spec net spec ();
    W.Roads.add_status_rules spec ();
    Query.create spec
  in
  let spatial_q =
    let spec = Spec.create () in
    Meta.install_standard spec;
    Spec.declare_space spec (Gdp_space.Resolution.uniform ~name:"r4" 4.0);
    Spec.declare_space spec (Gdp_space.Resolution.uniform ~name:"r1" 1.0);
    Spec.declare_object spec "land";
    Spec.add_fact spec
      (Gfact.make "zone" ~objects:[ a "land" ]
         ~space:(Gfact.S_uniform (a "r4", Gfact.pos_term (Gdp_space.Point.make 2.0 2.0))));
    Query.create spec ~meta_view:[ "spatial_uniform" ]
  in
  let probe_point =
    Gfact.make "zone" ~objects:[ a "land" ]
      ~space:(Gfact.S_at (Gfact.pos_term (Gdp_space.Point.make 1.3 2.7)))
  in
  let tests =
    [
      Test.make ~name:"unify/deep-term" (Staged.stage (fun () ->
          Gdp_logic.Unify.unify Gdp_logic.Subst.empty t1 t2));
      Test.make ~name:"solve/fact-lookup-indexed" (Staged.stage (fun () ->
          Gdp_logic.Engine.ask big_db "item(k500, V)"));
      Test.make ~name:"solve/recursive-path" (Staged.stage (fun () ->
          Gdp_logic.Engine.ask db "path(a, f)"));
      Test.make ~name:"solve/naf" (Staged.stage (fun () ->
          Gdp_logic.Engine.ask db "\\+ path(f, a)"));
      Test.make ~name:"solve/findall-1000" (Staged.stage (fun () ->
          Gdp_logic.Engine.ask big_db "findall(K, item(K, _), L), length(L, 1000)"));
      Test.make ~name:"gdp/open-road-forall" (Staged.stage (fun () ->
          Query.solutions roads (Gfact.make "open_road" ~objects:[ v "R" ])));
      Test.make ~name:"gdp/spatial-uniform-derive" (Staged.stage (fun () ->
          Query.holds spatial_q probe_point));
      Test.make ~name:"reader/parse-clause" (Staged.stage (fun () ->
          Gdp_logic.Reader.clause "p(X, f(Y)) :- q(X), r(Y, [1, 2, 3])."));
    ]
  in
  let test = Test.make_grouped ~name:"gdprs" tests in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
    in
    let raw = Benchmark.all cfg instances test in
    let results =
      List.map (fun instance -> Analyze.all ols instance raw) instances
    in
    Analyze.merge ols instances results
  in
  let results = benchmark () in
  row "  %-32s %16s\n" "benchmark" "ns/run";
  Hashtbl.iter
    (fun _measure tbl ->
      let rows =
        Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl []
        |> List.sort (fun (x, _) (y, _) -> String.compare x y)
      in
      List.iter
        (fun (name, ols) ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> row "  %-32s %16.0f\n" name est
          | Some ests when ests <> [] ->
              row "  %-32s %16.0f\n" name (List.hd ests)
          | _ -> row "  %-32s %16s\n" name "-")
        rows)
    results

(* ----------------------------------------------- engine series: harness *)

(* An engine series measures each of its workloads at a list of scales.
   Each measurement is one row: an ordered list of named fields. One
   writer prints rows as a console table, another as BENCH_engine.json,
   so the two cannot drift apart. *)

(* every timed leg runs this many times; a row reports the median *)
let reps = 3

type timing = { median : float; min : float; iqr : float }

type value =
  | Int of int
  | Num of float
  | Bool of bool
  | Str of string
  | Ms of timing  (* a timed leg: X_ms, X_ms_min and X_ms_iqr in JSON *)
  | List of value list
  | Obj of field list

and field = string * value

(* the p-quantile of an ascending array, interpolating between ranks *)
let quantile sorted p =
  let last = Array.length sorted - 1 in
  let pos = p *. float_of_int last in
  let i = int_of_float pos in
  let j = min last (i + 1) in
  sorted.(i) +. ((pos -. float_of_int i) *. (sorted.(j) -. sorted.(i)))

(* [timed ~setup leg] runs [leg (setup ())] [reps] times with only [leg]
   on the clock, and returns the timing with the last run's result. *)
let timed ~setup leg =
  let rec go i samples =
    let x = setup () in
    let ms, r = time_ms (fun () -> leg x) in
    if i = 1 then (ms :: samples, r) else go (i - 1) (ms :: samples)
  in
  let samples, r = go reps [] in
  let sorted = Array.of_list samples in
  Array.sort Float.compare sorted;
  ( {
      median = quantile sorted 0.5;
      min = sorted.(0);
      iqr = quantile sorted 0.75 -. quantile sorted 0.25;
    },
    r )

(* how many times faster [b] ran than [a], by median *)
let speedup a b = Num (a.median /. Float.max 0.001 b.median)

(* at most 100 elements, every (length / 100)-th from the first. SLD
   cost depends on which atoms are drawn: rounding the stride up instead
   picks, at roads-64, a reach pair whose proof runs for minutes. *)
let sample xs =
  let stride = max 1 (List.length xs / 100) in
  List.filteri (fun i _ -> i mod stride = 0 && i / stride < 100) xs

(* re-prove each target top-down, with the ancestor loop check on *)
let sld_check db targets =
  let options =
    { Gdp_logic.Solve.default_options with Gdp_logic.Solve.loop_check = true }
  in
  timed
    ~setup:(fun () -> targets)
    (List.for_all (fun f -> Gdp_logic.Solve.succeeds ~options db [ f ]))

let rec cell = function
  | Int n -> string_of_int n
  | Num x -> Printf.sprintf "%.3g" x
  | Bool b -> string_of_bool b
  | Str s -> s
  | Ms t -> Printf.sprintf "%.1f+-%.1f" t.median t.iqr
  | List vs -> "[" ^ String.concat "; " (List.map cell vs) ^ "]"
  | Obj fs -> String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ cell v) fs)

let is_column = function List _ | Obj _ -> false | _ -> true

(* console: scalar fields as right-aligned columns, sized by the first
   row, which also prints the header; list fields trail the line as
   name=[...] *)
let console_table () =
  let widths = ref [] in
  fun fields ->
    let columns = List.filter (fun (_, v) -> is_column v) fields in
    if !widths = [] then begin
      widths :=
        List.map
          (fun (k, v) -> 2 + max (String.length k) (String.length (cell v)))
          columns;
      List.iter2 (fun w (k, _) -> row "%*s" w k) !widths columns;
      row "\n"
    end;
    List.iter2 (fun w (_, v) -> row "%*s" w (cell v)) !widths columns;
    List.iter
      (fun (k, v) -> if not (is_column v) then row "  %s=%s" k (cell v))
      fields;
    row "\n"

(* JSON: objects and lists of objects break onto indented lines down to
   the rows, which stay one per line *)
let rec json depth v =
  let pad = String.make (2 * depth) ' ' in
  let lines open_ close items =
    open_ ^ "\n"
    ^ String.concat ",\n" (List.map (fun s -> pad ^ "  " ^ s) items)
    ^ "\n" ^ pad ^ close
  in
  let key k = Gdp_obs.Export.json_string k ^ ": " in
  let expand =
    List.concat_map (function
      | k, Ms t ->
          [ (k, Num t.median); (k ^ "_min", Num t.min); (k ^ "_iqr", Num t.iqr) ]
      | f -> [ f ])
  in
  match v with
  | Int n -> string_of_int n
  | Num x -> if Float.is_finite x then Printf.sprintf "%.4f" x else "null"
  | Bool b -> string_of_bool b
  | Str s -> Gdp_obs.Export.json_string s
  | Ms t -> json depth (Num t.median)
  | Obj fs when depth <= 2 ->
      lines "{" "}"
        (List.map (fun (k, v) -> key k ^ json (depth + 1) v) (expand fs))
  | List (Obj _ :: _ as vs) when depth <= 3 ->
      lines "[" "]" (List.map (json (depth + 1)) vs)
  | Obj fs ->
      "{ "
      ^ String.concat ", "
          (List.map (fun (k, v) -> key k ^ json depth v) (expand fs))
      ^ " }"
  | List vs -> "[" ^ String.concat ", " (List.map (json depth) vs) ^ "]"

(* A workload is an input the series can rebuild at any scale, with the
   scales of the full json run and of json small and engine-<series>. *)
type 'a workload = { name : string; sizes : int list; small : int list; input : 'a }

type series =
  | Series : {
      name : string;  (* on the command line: engine-<name> *)
      key : string;  (* top-level key of BENCH_engine.json *)
      about : string;
      workloads : 'a workload list;
      attrs : 'a -> field list;  (* extra keys of a workload's object *)
      measure : 'a -> int -> field list;  (* one row *)
    }
      -> series

let no_attrs _ = []

(* runs every workload of a series at its small or full scales, printing
   each row as it lands; returns one JSON object per workload *)
let run_series ~small (Series s) =
  List.map
    (fun w ->
      section (Printf.sprintf "engine-%s %s — %s" s.name w.name s.about);
      let print = console_table () in
      let rows =
        List.map
          (fun scale ->
            let r = s.measure w.input scale in
            print r;
            Obj r)
          (if small then w.small else w.sizes)
      in
      Obj ((("name", Str w.name) :: s.attrs w.input) @ [ ("rows", List rows) ]))
    s.workloads

(* --------------------------------------------- engine series: workloads *)

let bu_roads_db n =
  let open Gdp_logic in
  let db = Engine.create () in
  let rng = W.Rng.create 7L in
  let node i = a (Printf.sprintf "n%d" i) in
  for i = 0 to n - 1 do
    (* a backbone chain plus random shortcuts: long derivation paths *)
    if i < n - 1 then Database.fact db (T.app "link" [ node i; node (i + 1) ]);
    Database.fact db
      (T.app "link" [ node (W.Rng.int rng n); node (W.Rng.int rng n) ])
  done;
  Engine.consult db
    {|
    reach(X, Y) :- link(X, Y).
    reach(X, Y) :- link(X, Z), reach(Z, Y).
    |};
  db

let bu_census_db n =
  let open Gdp_logic in
  let db = Engine.create () in
  for s = 0 to n - 1 do
    Database.fact db (T.app "state" [ a (Printf.sprintf "s%d" s) ]);
    for c = 0 to 3 do
      Database.fact db
        (T.app "in_state"
           [ a (Printf.sprintf "c%d_%d" s c); a (Printf.sprintf "s%d" s) ])
    done;
    if s mod 3 <> 0 then
      Database.fact db (T.app "capital" [ a (Printf.sprintf "c%d_0" s) ])
  done;
  Engine.consult db
    {|
    state_with_capital(S) :- capital(C), in_state(C, S).
    state_without_capital(S) :- state(S), \+ state_with_capital(S).
    |};
  db

let bu_terrain_db n =
  let open Gdp_logic in
  let db = Engine.create () in
  let rng = W.Rng.create 11L in
  let name i j = a (Printf.sprintf "t%d_%d" i j) in
  let elev = Array.init n (fun _ -> Array.init n (fun _ -> W.Rng.int rng 1000)) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Database.fact db (T.app "elev" [ name i j; T.int elev.(i).(j) ]);
      List.iter
        (fun (di, dj) ->
          let i' = i + di and j' = j + dj in
          if i' >= 0 && i' < n && j' >= 0 && j' < n then
            Database.fact db (T.app "adj" [ name i j; name i' j' ]))
        [ (0, 1); (1, 0); (0, -1); (-1, 0) ]
    done
  done;
  Engine.consult db
    {|
    downhill(A, B) :- adj(A, B), elev(A, Ea), elev(B, Eb), Eb < Ea.
    flows(A, B) :- downhill(A, B).
    flows(A, B) :- downhill(A, C), flows(C, B).
    |};
  db

(* Per-workload update scripts for the engine-incr series: mostly fresh
   facts asserted and then retracted again (net-neutral round trips that
   exercise both the insertion deltas and DRed), plus retract/re-assert
   round trips on seeded base facts so deletion runs against real
   derivation chains — and, for census, capital flips that force the
   negation stratum to recompute. *)
let incr_script_roads n =
  let node i = a (Printf.sprintf "n%d" i) in
  let rng = W.Rng.create 21L in
  (* growth only: fresh shortcuts accumulating into the closure. A
     deletion on a dense reachability closure is DRed's worst case — the
     fact's whole derivation cone is over-deleted and then rederived
     from the surviving alternate paths — so the deletion story is
     measured on the census and terrain scripts, where the cones are
     bounded, and roads measures the monotone live-growth case. *)
  List.init 24 (fun _ ->
      `Assert (T.app "link" [ node (W.Rng.int rng n); node (W.Rng.int rng n) ]))

let incr_script_census n =
  List.concat
    (List.init 5 (fun k ->
         let s = 3 * k mod n in
         let f = T.app "capital" [ a (Printf.sprintf "c%d_1" s) ] in
         [ `Assert f; `Retract f ]))

let incr_script_terrain n =
  let name i j = a (Printf.sprintf "t%d_%d" i j) in
  let rng = W.Rng.create 22L in
  List.concat
    (List.init 8 (fun _ ->
         let f =
           T.app "adj"
             [
               name (W.Rng.int rng n) (W.Rng.int rng n);
               name (W.Rng.int rng n) (W.Rng.int rng n);
             ]
         in
         [ `Assert f; `Retract f ]))

(* What the series ask of the three shared engine programs, beyond a base
   at a given scale. *)
type program = {
  db : int -> Gdp_logic.Database.t;
  closure : T.t;
      (* all-answers goal: engine-bu re-proves a sample of its derived
         atoms top-down *)
  point : int -> T.t;
      (* point goal for engine-magic, per scale. For the right-recursive
         reach closure, binding the SECOND argument keeps the magic set at
         the query constant (binding the first would propagate magic facts
         across every reachable node); the target is the backbone's last
         node so the top-down leg can also prove each answer by marching
         forward instead of exhausting the forward cone. The terrain goal
         binds the FIRST argument: its magic set is the downhill cone of
         one cell, the classic "descendants of a node" restriction. *)
  point_doc : string;
      (* display form of the point goal (Term.to_string would leak fresh
         variable ids into the JSON) *)
  script : int -> Gdp_logic.Bottom_up.update list;  (* engine-incr updates *)
}

let programs =
  [
    {
      name = "roads-reach";
      sizes = [ 40; 160; 640 ];
      small = [ 16; 64 ];
      input =
        {
          db = bu_roads_db;
          closure = T.app "reach" [ v "X"; v "Y" ];
          point =
            (fun n -> T.app "reach" [ v "X"; a (Printf.sprintf "n%d" (n - 1)) ]);
          point_doc = "reach(X, n<scale-1>)";
          script = incr_script_roads;
        };
    };
    {
      name = "census-negation";
      sizes = [ 400; 1600; 3200 ];
      small = [ 100; 400 ];
      input =
        {
          db = bu_census_db;
          closure = T.app "state_without_capital" [ v "S" ];
          point = (fun _ -> T.app "state_without_capital" [ a "s0" ]);
          point_doc = "state_without_capital(s0)";
          script = incr_script_census;
        };
    };
    {
      name = "terrain-flows";
      sizes = [ 6; 10; 14 ];
      small = [ 4; 8 ];
      input =
        {
          db = bu_terrain_db;
          closure = T.app "flows" [ v "A"; v "B" ];
          point =
            (fun n ->
              T.app "flows" [ a (Printf.sprintf "t%d_%d" (n / 2) (n / 2)); v "B" ]);
          point_doc = "flows(t<scale/2>_<scale/2>, B)";
          script = incr_script_terrain;
        };
    };
  ]

(* Spatial self-join workloads: point-carrying EDB facts joined under a
   region_mem or bounded pt_dist guard — exactly the joins the spatial
   planner compiles to index probes. Each database is evaluated two
   ways: the scan baseline (spatial_indexing = false, every annotated
   join through the hash/scan path) and the default STR-packed R-trees.
   Both must derive identical fact sets — the probes are pre-filters,
   the exact guard always re-checks.
   The databases are raw engine bases like the other engine-* series;
   the Spec only carries the region table and coordinate system the
   spatial hooks read. *)

let sp_spec ~regions =
  let spec = Spec.create () in
  List.iter (fun (name, r) -> Spec.declare_region spec name r) regions;
  spec

let sp_pos x y = Gfact.pos_term (Gdp_space.Point.make x y)

(* n sites scattered over [0,100)²; near/2 is the classic bounded
   self-join, quadratic under the scan baseline *)
let sp_roads_db n =
  let open Gdp_logic in
  let db = Engine.create () in
  let rng = W.Rng.create 31L in
  for i = 0 to n - 1 do
    let x = float_of_int (W.Rng.int rng 1000) /. 10.0
    and y = float_of_int (W.Rng.int rng 1000) /. 10.0 in
    Database.fact db (T.app "site" [ a (Printf.sprintf "s%d" i); sp_pos x y ])
  done;
  Engine.consult db
    {|
    near(A, B) :- site(A, P), site(B, Q), pt_dist(P, Q, D), D < 3.
    |};
  db

(* n×n cell centres over the same [0,100)² window, so the basin circle
   stays fixed while the point density grows with the scale *)
let sp_terrain_db n =
  let open Gdp_logic in
  let db = Engine.create () in
  let step = 100.0 /. float_of_int n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let x = (float_of_int i +. 0.5) *. step
      and y = (float_of_int j +. 0.5) *. step in
      Database.fact db (T.app "cell" [ a (Printf.sprintf "c%d_%d" i j); sp_pos x y ])
    done
  done;
  Engine.consult db
    {|
    in_basin(C) :- cell(C, P), region_mem(basin, P).
    soggy(A, B) :- cell(A, P), region_mem(basin, P), cell(B, Q), pt_dist(P, Q, D), D < 2.
    |};
  db

(* n gauges along eight meandering south-to-north rivers: clustered
   points (the realistic skew for an R-tree), linked when close *)
let sp_hydro_db n =
  let open Gdp_logic in
  let db = Engine.create () in
  let rng = W.Rng.create 41L in
  let rivers = 8 in
  let per = max 1 (n / rivers) in
  for r = 0 to rivers - 1 do
    let x = ref (float_of_int (W.Rng.int rng 1000) /. 10.0) in
    for k = 0 to per - 1 do
      x :=
        Float.min 99.9
          (Float.max 0.0
             (!x +. (float_of_int (W.Rng.int rng 30 - 15) /. 10.0)));
      let y = (float_of_int k +. 0.5) *. (100.0 /. float_of_int per) in
      Database.fact db
        (T.app "gauge" [ a (Printf.sprintf "g%d_%d" r k); sp_pos !x y ])
    done
  done;
  Engine.consult db
    {|
    linked(A, B) :- gauge(A, P), gauge(B, Q), pt_dist(P, Q, D), D < 4.
    flood_risk(A) :- gauge(A, P), region_mem(floodplain, P).
    |};
  db

(* a spatial base builder, with the regions its guards name *)
let spatial_workloads =
  [
    {
      name = "roads-near";
      sizes = [ 320; 640; 1280 ];
      small = [ 160; 640 ];
      input = (sp_roads_db, []);
    };
    {
      name = "terrain-basin";
      sizes = [ 24; 32; 48 ];
      small = [ 16; 32 ];
      input =
        ( sp_terrain_db,
          [
            ( "basin",
              Gdp_space.Region.circle
                ~center:(Gdp_space.Point.make 50.0 50.0)
                ~radius:20.0 );
          ] );
    };
    {
      name = "hydro-gauges";
      sizes = [ 400; 800; 1600 ];
      small = [ 200; 800 ];
      input =
        ( sp_hydro_db,
          [
            ( "floodplain",
              Gdp_space.Region.rect ~min_x:30.0 ~min_y:0.0 ~max_x:70.0
                ~max_y:100.0 );
          ] );
    };
  ]

(* Dense closure: the snapshot showcase. A random digraph with mean
   out-degree ~9 saturates its reachability closure, so semi-naive pays
   many redundant firings per retained fact — exactly the regime where
   materialisation is expensive relative to the model it produces and a
   persisted snapshot pays off most. The three shared workloads bound
   the other end: when deriving a fact costs about as much as
   re-interning it on load, caching roughly breaks even. *)
let snap_dense_db n =
  let open Gdp_logic in
  let db = Engine.create () in
  let rng = W.Rng.create 17L in
  let node i = a (Printf.sprintf "d%d" i) in
  for i = 0 to n - 1 do
    if i < n - 1 then Database.fact db (T.app "link" [ node i; node (i + 1) ]);
    for _ = 1 to 8 do
      Database.fact db
        (T.app "link" [ node (W.Rng.int rng n); node (W.Rng.int rng n) ])
    done
  done;
  Engine.consult db
    {|
    reach(X, Y) :- link(X, Y).
    reach(X, Y) :- link(X, Z), reach(Z, Y).
    |};
  db

let snap_workloads =
  List.map (fun w -> { w with input = w.input.db }) programs
  @ [
      {
        name = "roads-dense";
        sizes = [ 24; 64; 96 ];
        small = [ 24; 64 ];
        input = snap_dense_db;
      };
    ]

(* ------------------------------------------------ engine series: rows *)

let run db = Gdp_logic.Bottom_up.run db
let default = Gdp_logic.Bottom_up.Config.default
let same_facts fp fp' =
  List.equal T.equal (Gdp_logic.Bottom_up.facts fp) (Gdp_logic.Bottom_up.facts fp')

(* Scan vs indexed: the semi-naive evaluator with joins forced to
   full-relation scans in textual order against the index-driven planner,
   then a sample of the derived closure re-proved by top-down SLDNF — the
   quantification of the "Prolog's computational inefficiency" the paper
   only mentions. The SLD leg is skipped above 5,000 facts: on the cyclic
   road closures SLDNF enumerates simple paths, and 24 probes at roads-160
   (25,596 facts) do not finish in minutes. "agree" covers both fixpoint
   configurations' fact sets and every SLD proof. *)
let bu_row p scale =
  let open Gdp_logic in
  let db = p.db scale in
  let scan, scan_fp =
    timed
      ~setup:(fun () -> db)
      (fun db -> Bottom_up.run ~config:{ default with indexing = false } db)
  in
  let indexed, fp = timed ~setup:(fun () -> db) run in
  let facts = Bottom_up.count fp in
  let targets =
    if facts > 5_000 then [] else sample (Bottom_up.facts_matching fp p.closure)
  in
  let topdown, sld_ok = sld_check db targets in
  let s = Bottom_up.stats fp in
  [
    ("scale", Int scale);
    ("facts", Int facts);
    ("passes", Int (Bottom_up.iterations fp));
    ("scan_ms", Ms scan);
    ("scan_firings", Int (Bottom_up.rule_firings scan_fp));
    ("indexed_ms", Ms indexed);
    ("indexed_firings", Int (Bottom_up.rule_firings fp));
    ("speedup", speedup scan indexed);
    ("agree", Bool (same_facts scan_fp fp && sld_ok));
    ("strata", Int s.Bottom_up.bu_strata);
    ("probes", Int s.Bottom_up.bu_index_probes);
    ("scans", Int s.Bottom_up.bu_full_scans);
    ("membership_tests", Int s.Bottom_up.bu_membership_tests);
    ("hcons_hit_rate", Num (Bottom_up.hcons_hit_rate s));
    ("topdown_ms", Ms topdown);
    ("topdown_probes", Int (List.length targets));
    ( "stratum_ms",
      List
        (List.map (fun st -> Num st.Bottom_up.st_ms) s.Bottom_up.bu_strata_stats) );
  ]

(* Incremental vs recompute: the same update script applied one fact at
   a time to a live fixpoint (Bottom_up.apply: semi-naive deltas + DRed)
   and, against a second identically seeded database, by mutating the
   base and re-running the whole fixpoint after every step — the cost a
   system without view maintenance pays. Both must end on identical fact
   sets. *)
let incr_row p scale =
  let open Gdp_logic in
  let script = p.script scale in
  let incremental, fp =
    timed
      ~setup:(fun () -> run (p.db scale))
      (fun fp ->
        List.iter (fun u -> Bottom_up.apply fp [ u ]) script;
        fp)
  in
  let apply_mirror mirror = function
    | `Assert t -> if not (Database.has_fact mirror t) then Database.fact mirror t
    | `Retract t ->
        (* the workload builders may seed duplicate unit clauses; drop
           them all so the clause store matches the fixpoint's set view *)
        while Database.retract_fact mirror t do
          ()
        done
  in
  let recompute, fresh =
    timed
      ~setup:(fun () -> p.db scale)
      (fun mirror ->
        List.fold_left
          (fun _ u ->
            apply_mirror mirror u;
            Some (run mirror))
          None script)
  in
  let i = Bottom_up.incr_stats fp in
  [
    ("scale", Int scale);
    ("facts", Int (Bottom_up.count fp));
    ("updates", Int (List.length script));
    ("incremental_ms", Ms incremental);
    ("recompute_ms", Ms recompute);
    ("speedup", speedup recompute incremental);
    ("agree", Bool (Option.fold ~none:true ~some:(same_facts fp) fresh));
    ("inserted", Int i.Bottom_up.upd_inserted);
    ("deleted", Int i.Bottom_up.upd_deleted);
    ("overdeleted", Int i.Bottom_up.upd_overdeleted);
    ("rederived", Int i.Bottom_up.upd_rederived);
    ("strata_recomputed", Int i.Bottom_up.upd_strata_recomputed);
  ]

let idb_preds db =
  let open Gdp_logic in
  Database.predicates db
  |> List.filter (fun key ->
         List.exists
           (fun (c : Database.clause) -> c.Database.body <> [])
           (Database.all_clauses db key))
  |> List.map fst

let count_facts pred_names fp =
  Gdp_logic.Bottom_up.facts fp
  |> List.filter (fun t ->
         match Gdp_logic.Term.functor_of t with
         | Some (name, _) -> List.mem name pred_names
         | None -> false)
  |> List.length

(* Magic vs full vs top-down on a point goal. "Derived" counts are IDB
   tuples of the *original* program only, so the magic leg pays for its
   magic$ guard tuples separately (magic_aux) and the goal-direction
   claim is not flattered by copied base facts. The magic-vs-full
   comparison is exact over every answer; the SLD leg re-proves a sample
   of the answers, and only up to 50,000 derived tuples: past that even a
   handful of probes on the dense cyclic closures dwarfs both fixpoints,
   which is the point of the experiment, not a useful control. *)
let magic_row p scale =
  let open Gdp_logic in
  let db = p.db scale in
  let idb = idb_preds db in
  let goal = p.point scale in
  let full, full_fp = timed ~setup:(fun () -> db) run in
  let magic, (magic_fp, info) =
    timed
      ~setup:(fun () -> db)
      (fun db ->
        let rewritten, info = Magic.rewrite ~goal db in
        (Bottom_up.run ~seed:info.Magic.seeds rewritten, info))
  in
  let answers fp =
    (* probe narrows to the goal's bucket; it does not unify — filter *)
    Bottom_up.probe fp goal
    |> List.filter (fun fact -> Unify.unify Subst.empty goal fact <> None)
    |> List.sort Term.compare
  in
  let full_answers = answers full_fp in
  let full_derived = count_facts idb full_fp in
  let magic_derived = count_facts idb magic_fp in
  let targets = if full_derived > 50_000 then [] else sample full_answers in
  let topdown, sld_ok = sld_check db targets in
  let magic_aux =
    Bottom_up.facts magic_fp
    |> List.filter (fun t ->
           match Term.functor_of t with
           | Some (name, _) -> String.starts_with ~prefix:"magic$" name
           | None -> false)
  in
  [
    ("scale", Int scale);
    ("full_ms", Ms full);
    ("full_derived", Int full_derived);
    ("magic_ms", Ms magic);
    ("magic_derived", Int magic_derived);
    ("magic_aux", Int (List.length magic_aux));
    ( "ratio",
      Num (float_of_int magic_derived /. float_of_int (max 1 full_derived)) );
    ("topdown_ms", Ms topdown);
    ("topdown_probes", Int (List.length targets));
    ("answers", Int (List.length full_answers));
    ( "agree",
      Bool (List.equal Term.equal full_answers (answers magic_fp) && sld_ok) );
    ("fallback_strata", Int info.Magic.fallback_strata);
    ("full_fallback", Bool info.Magic.full_fallback);
  ]

(* Sequential vs the domain-pool engine at each jobs value. The derived
   fact sets must be identical (the merge is canonical); the speedups are
   honest wall-clock, so on a machine with fewer cores they hover around
   (or below) 1x — BENCH_engine.json records the detected core count. *)
let par_jobs = [ 2; 4 ]

let par_row p scale =
  let open Gdp_logic in
  let db = p.db scale in
  let seq, seq_fp = timed ~setup:(fun () -> db) run in
  let runs =
    List.map
      (fun jobs ->
        let t, fp =
          timed
            ~setup:(fun () -> db)
            (fun db -> Bottom_up.run ~config:{ default with jobs } db)
        in
        ( same_facts seq_fp fp,
          Obj
            [
              ("jobs", Int jobs);
              ("ms", Ms t);
              ("speedup", speedup seq t);
              (* (rule x delta-partition) work units executed *)
              ("units", Int (Bottom_up.stats fp).Bottom_up.bu_par_units);
            ] ))
      par_jobs
  in
  [
    ("scale", Int scale);
    ("facts", Int (Bottom_up.count seq_fp));
    ("seq_ms", Ms seq);
    ("runs", List (List.map snd runs));
    ("agree", Bool (List.for_all fst runs));
  ]

(* Lineage on vs off. The sidecar must be a pure observer: the derived
   fact set and the pass and firing counts have to be identical, and a
   sample of the derived tuples must reconstruct a proof from its
   witness. The overhead is the price of one witness record per derived
   tuple. *)
let prov_row p scale =
  let open Gdp_logic in
  let db = p.db scale in
  let off, off_fp = timed ~setup:(fun () -> db) run in
  let on, on_fp =
    timed
      ~setup:(fun () -> db)
      (fun db -> Bottom_up.run ~config:{ default with lineage = true } db)
  in
  let s_off = Bottom_up.stats off_fp and s_on = Bottom_up.stats on_fp in
  let proofs =
    sample
      (List.filter
         (fun t -> Bottom_up.witness on_fp t <> None)
         (Bottom_up.facts on_fp))
  in
  let prov = s_on.Bottom_up.bu_prov in
  [
    ("scale", Int scale);
    ("facts", Int (Bottom_up.count on_fp));
    ("off_ms", Ms off);
    ("on_ms", Ms on);
    ("overhead", Num (on.median /. Float.max 0.001 off.median));
    (* derived tuples carrying a witness, and the witness store's size *)
    ("tracked", Int prov.Bottom_up.prov_tracked);
    ("bytes", Int prov.Bottom_up.prov_bytes);
    ("proofs_sampled", Int (List.length proofs));
    ( "agree",
      Bool
        (same_facts off_fp on_fp
        && s_off.Bottom_up.bu_passes = s_on.Bottom_up.bu_passes
        && s_off.Bottom_up.bu_firings = s_on.Bottom_up.bu_firings
        && List.for_all (fun t -> Bottom_up.proof on_fp t <> None) proofs) );
  ]

(* Scan baseline (spatial_indexing = false: every annotated join through
   the hash/scan path) vs the default STR-packed R-trees. Both must derive
   identical fact sets: the probes are pre-filters, the exact guard always
   re-checks. *)
let spatial_row (db, regions) scale =
  let open Gdp_logic in
  let db = db scale and spatial = Compile.spatial_hints (sp_spec ~regions) in
  let scan, scan_fp =
    timed
      ~setup:(fun () -> db)
      (fun db ->
        Bottom_up.run
          ~config:{ default with spatial_indexing = false }
          ~spatial db)
  in
  let rtree, fp =
    timed ~setup:(fun () -> db) (fun db -> Bottom_up.run ~spatial db)
  in
  [
    ("scale", Int scale);
    ("facts", Int (Bottom_up.count fp));
    ("scan_ms", Ms scan);
    ("rtree_ms", Ms rtree);
    ("speedup", speedup scan rtree);
    ("probes", Int (Bottom_up.stats fp).Bottom_up.bu_spatial_probes);
    ( "baseline_spatial_scans",
      Int (Bottom_up.stats scan_fp).Bottom_up.bu_spatial_scans );
    ("agree", Bool (same_facts scan_fp fp));
  ]

(* Cold materialisation vs a snapshot load. The cold leg times database
   construction plus the fixpoint — what every CLI invocation paid before
   snapshots; the warm leg times Snapshot.load + Bottom_up.import into a
   database built off the clock, since a snapshot consumer pays spec
   compilation on both paths. "agree": the loaded fixpoint has the same
   facts and pass count. *)
let snap_row db scale =
  let open Gdp_logic in
  let cold, cold_fp = timed ~setup:ignore (fun () -> run (db scale)) in
  let path = Filename.temp_file "gdprs_snap" ".gdpx" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let snapshot =
    { Snapshot.key = "bench"; meta = ""; state = Bottom_up.export cold_fp }
  in
  let save, bytes = timed ~setup:ignore (fun () -> Snapshot.save ~path snapshot) in
  let warm, warm_fp =
    timed
      ~setup:(fun () -> db scale)
      (fun warm_db ->
        let snap, _bytes = Snapshot.load ~path () in
        Bottom_up.import warm_db snap.Snapshot.state)
  in
  [
    ("scale", Int scale);
    ("facts", Int (Bottom_up.count warm_fp));
    ("bytes", Int bytes);
    ("cold_ms", Ms cold);
    ("save_ms", Ms save);
    ("warm_ms", Ms warm);
    ("speedup", speedup cold warm);
    ( "agree",
      Bool
        (Bottom_up.count cold_fp = Bottom_up.count warm_fp
        && Bottom_up.iterations cold_fp = Bottom_up.iterations warm_fp
        && same_facts cold_fp warm_fp) );
  ]

(* ------------------------------------------------ engine series: table *)

let series =
  [
    Series
      {
        name = "bu";
        key = "series";
        about = "scan vs indexed fixpoint, SLD cross-check";
        workloads = programs;
        attrs = no_attrs;
        measure = bu_row;
      };
    Series
      {
        name = "incr";
        key = "incr_series";
        about = "incremental maintenance vs recompute";
        workloads = programs;
        attrs = no_attrs;
        measure = incr_row;
      };
    Series
      {
        name = "magic";
        key = "magic_series";
        about = "goal-directed vs full vs top-down";
        workloads = programs;
        attrs = (fun p -> [ ("goal", Str p.point_doc) ]);
        measure = magic_row;
      };
    Series
      {
        name = "par";
        key = "parallel_series";
        about =
          Printf.sprintf "parallel semi-naive fixpoint (%d cores detected)"
            (Gdp_logic.Pool.auto_jobs ());
        workloads = programs;
        attrs = no_attrs;
        measure = par_row;
      };
    Series
      {
        name = "prov";
        key = "prov_series";
        about = "lineage capture overhead";
        workloads = programs;
        attrs = no_attrs;
        measure = prov_row;
      };
    Series
      {
        name = "spatial";
        key = "spatial_series";
        about = "R-tree joins vs the scan baseline";
        workloads = spatial_workloads;
        attrs = no_attrs;
        measure = spatial_row;
      };
    Series
      {
        name = "snap";
        key = "snap_series";
        about = "cold materialise vs snapshot load";
        workloads = snap_workloads;
        attrs = no_attrs;
        measure = snap_row;
      };
  ]

(* every engine series, written to BENCH_engine.json — the
   machine-readable perf trajectory CI archives and compares against
   bench/baseline_small.json *)
let bench_json ~small () =
  let out = "BENCH_engine.json" in
  let body =
    List.map (fun (Series s as x) -> (s.key, List (run_series ~small x))) series
  in
  let header =
    [
      ("schema", Str "gdprs-bench-engine/2");
      ("bench", Str "engine series: medians of timed repeats, with min and IQR");
      ("mode", Str (if small then "small" else "full"));
      (* parallel speedups are only meaningful relative to the core
         count the run actually had *)
      ("cores", Int (Gdp_logic.Pool.auto_jobs ()));
      ("ocaml_version", Str Sys.ocaml_version);
      ("jobs", List (List.map (fun j -> Int j) par_jobs));
      ("reps", Int reps);
    ]
  in
  let oc = open_out out in
  output_string oc (json 0 (Obj (header @ body)) ^ "\n");
  close_out oc;
  Printf.printf "\nwrote %s\n" out

(* ---------------------------------------------------------------- main *)

let reports =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12);
  ]

(* what a run without arguments does, in order *)
let everything =
  reports
  @ [ ("ablation", ablation); ("micro", micro) ]
  @ List.map
      (fun (Series s as x) ->
        ("engine-" ^ s.name, fun () -> ignore (run_series ~small:true x)))
      series

let commands =
  everything
  @ [
      ("report", fun () -> List.iter (fun (_, run) -> run ()) reports);
      ("json", bench_json ~small:false);
      ("json small", bench_json ~small:true);
    ]

let () =
  let run names = List.iter (fun name -> List.assoc name commands ()) names in
  match List.tl (Array.to_list Sys.argv) with
  | [] -> List.iter (fun (_, f) -> f ()) everything
  | args when List.mem_assoc (String.concat " " args) commands ->
      run [ String.concat " " args ]
  | args -> (
      match List.filter (fun name -> not (List.mem_assoc name commands)) args with
      | [] -> run args
      | unknown ->
          Printf.eprintf "unknown command %s (%s)\n"
            (String.concat ", " unknown)
            (String.concat ", " (List.map fst commands));
          exit 2)
