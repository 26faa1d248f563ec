(* gdpgen — deterministic synthetic-workload generator.

   Emits requirements-language files (via the pretty-printer) for the
   workloads DESIGN.md §2 substitutes for the paper's unavailable data:

     gdpgen roads   --roads 40 --bridges 4 -o roads.gdp
     gdpgen terrain --size 4 -o terrain.gdp
     gdpgen census  --states 10 --cities 4 -o census.gdp
     gdpgen clouds  --size 16 --cover 0.3 -o clouds.gdp

   The output is self-contained: `gdprs check FILE` and the other
   subcommands work on it directly. *)

open Cmdliner
open Gdp_core

let write_spec spec out =
  let text = Gdp_lang.Pretty.spec_to_string spec in
  match out with
  | None -> print_string text
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc text);
      Printf.eprintf "wrote %s (%d bytes)\n" path (String.length text)

(* Reject an out-of-range option before any generator runs, in the
   "error: ..." format and with the exit code gdprs uses for bad input. *)
let require ok option msg =
  if not ok then begin
    Printf.eprintf "error: %s: %s\n" option msg;
    exit 2
  end

let probability option p =
  require (p >= 0.0 && p <= 1.0) option "must be in [0, 1]"

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

let out_arg =
  Arg.(value & opt (some string) None
       & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output path (default stdout).")

let roads_cmd =
  let roads_n = Arg.(value & opt int 20 & info [ "roads" ] ~docv:"N" ~doc:"Road count.") in
  let bridges_n =
    Arg.(value & opt int 3 & info [ "bridges" ] ~docv:"N" ~doc:"Bridges per road.")
  in
  let open_p =
    Arg.(value & opt float 0.7
         & info [ "open-probability" ] ~docv:"P" ~doc:"Probability a bridge is open.")
  in
  let run seed out roads bridges open_probability =
    require (roads >= 0) "--roads" "must be >= 0";
    require (bridges >= 0) "--bridges" "must be >= 0";
    probability "--open-probability" open_probability;
    let rng = Gdp_workload.Rng.create (Int64.of_int seed) in
    let net =
      Gdp_workload.Roads.generate rng ~n_roads:roads ~bridges_per_road:bridges
        ~open_probability ()
    in
    let spec = Spec.create () in
    Meta.install_standard spec;
    Gdp_workload.Roads.add_to_spec net spec ();
    Gdp_workload.Roads.add_status_rules spec ();
    write_spec spec out;
    0
  in
  Cmd.v
    (Cmd.info "roads" ~doc:"Road/bridge networks (the paper's §II running example).")
    Term.(const run $ seed_arg $ out_arg $ roads_n $ bridges_n $ open_p)

let terrain_cmd =
  let size =
    Arg.(value & opt int 3
         & info [ "size" ] ~docv:"K"
             ~doc:"Grid exponent in [1, 12]: a (2^K)² cell terrain.")
  in
  let sea =
    Arg.(value & opt float 0.35 & info [ "sea-level" ] ~docv:"H" ~doc:"Lake threshold in [0, 1].")
  in
  let run seed out size_exp sea_level =
    require (size_exp >= 1 && size_exp <= 12) "--size" "must be in [1, 12]";
    probability "--sea-level" sea_level;
    let rng = Gdp_workload.Rng.create (Int64.of_int seed) in
    let terrain = Gdp_workload.Terrain.generate rng ~size_exp ~cell:1.0 () in
    let cells = float_of_int (terrain.Gdp_workload.Terrain.size - 1) in
    let spec = Spec.create () in
    Meta.install_standard spec;
    Spec.declare_space spec (Gdp_space.Resolution.uniform ~name:"fine" 1.0);
    Spec.declare_space spec (Gdp_space.Resolution.uniform ~name:"coarse" 4.0);
    Spec.declare_region spec "map"
      (Gdp_space.Region.rect ~min_x:0.0 ~min_y:0.0 ~max_x:cells ~max_y:cells);
    Spec.declare_object spec "land";
    ignore
      (Gdp_workload.Terrain.add_elevation_facts terrain spec ~resolution:"fine"
         ~object_name:"land" ~scale:1000.0 ());
    ignore
      (Gdp_workload.Terrain.add_mask_facts terrain spec ~resolution:"fine"
         ~pred:"lake" ~object_name:"land"
         ~keep:(fun h -> h < sea_level)
         ());
    write_spec spec out;
    0
  in
  Cmd.v
    (Cmd.info "terrain" ~doc:"Fractal elevation grids (E5-E7 workload).")
    Term.(const run $ seed_arg $ out_arg $ size $ sea)

let census_cmd =
  let states = Arg.(value & opt int 5 & info [ "states" ] ~docv:"N" ~doc:"State count.") in
  let cities =
    Arg.(value & opt int 4 & info [ "cities" ] ~docv:"N" ~doc:"Cities per state.")
  in
  let bug =
    Arg.(value & opt float 0.0
         & info [ "capital-bug" ] ~docv:"P"
             ~doc:"Probability of seeding a second capital per state.")
  in
  let run seed out n_states cities_per_state capital_bug_probability =
    require (n_states >= 0) "--states" "must be >= 0";
    require (cities_per_state >= 1) "--cities" "must be >= 1";
    probability "--capital-bug" capital_bug_probability;
    let rng = Gdp_workload.Rng.create (Int64.of_int seed) in
    let census =
      Gdp_workload.Census.generate rng ~n_states ~cities_per_state
        ~capital_bug_probability ()
    in
    let spec = Spec.create () in
    Meta.install_standard spec;
    Gdp_workload.Census.add_to_spec census spec ();
    Gdp_workload.Census.add_constraints spec ();
    Gdp_workload.Census.add_large_city_rule spec ~threshold:1_000_000 ();
    write_spec spec out;
    0
  in
  Cmd.v
    (Cmd.info "census" ~doc:"Census attribute tables with constraints (E2 workload).")
    Term.(const run $ seed_arg $ out_arg $ states $ cities $ bug)

let clouds_cmd =
  let size = Arg.(value & opt int 16 & info [ "size" ] ~docv:"N" ~doc:"Raster side.") in
  let cover =
    Arg.(value & opt float 0.3 & info [ "cover" ] ~docv:"F" ~doc:"Target cloud fraction.")
  in
  let run seed out size cover =
    require (size >= 1) "--size" "must be >= 1";
    probability "--cover" cover;
    let rng = Gdp_workload.Rng.create (Int64.of_int seed) in
    let clouds = Gdp_workload.Clouds.generate rng ~size ~cover () in
    let spec = Spec.create () in
    Meta.install_standard spec;
    Gdp_workload.Clouds.add_to_spec clouds spec ~resolution:"r" ~image:"image" ();
    Gdp_workload.Clouds.add_clarity_rule spec ~image:"image" ();
    write_spec spec out;
    0
  in
  Cmd.v
    (Cmd.info "clouds" ~doc:"Cloud-cover rasters for the picture-clarity example (E10).")
    Term.(const run $ seed_arg $ out_arg $ size $ cover)

let main =
  let doc = "synthetic GDP requirements generator" in
  Cmd.group (Cmd.info "gdpgen" ~version:"1.0.0" ~doc)
    [ roads_cmd; terrain_cmd; census_cmd; clouds_cmd ]

let () = exit (Cmd.eval' main)
