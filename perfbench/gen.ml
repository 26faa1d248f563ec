(* Seeded inputs for the paper workloads.

   Every input is built with the same [Gdp_workload] generators and
   pretty-printer that [gdpgen] uses, so the engine only ever sees spec
   text. Alongside the text each generator returns the raw data it was
   printed from; the oracle works on that data and never on an engine. *)

open Gdp_core
module W = Gdp_workload

(* One independent PRNG stream per pool member: member [k] of seed [s]
   does not depend on how many members are drawn. *)
let member_rng ~seed ~member =
  W.Rng.create (Int64.add (Int64.mul (Int64.of_int seed) 1_000_003L) (Int64.of_int member))

(* ---- §II roads + §III census ---- *)

type paper = {
  paper_text : string;
  census : W.Census.t;
  paper_facts : int;
}

(* Sizes of one paper-check spec: roads with bridges (§II, bounded
   universal [forall]) plus census states with cities (§III constraints),
   times [scale]. *)
let roads = 60
let bridges_per_road = 4
let states = 100
let cities_per_state = 8
let capital_bug_probability = 0.3

let paper ?(scale = 1) ~seed ~member () =
  let rng = member_rng ~seed ~member in
  let net =
    W.Roads.generate (W.Rng.split rng) ~n_roads:(roads * scale) ~bridges_per_road
      ~open_probability:0.7 ()
  in
  let census =
    W.Census.generate (W.Rng.split rng) ~n_states:(states * scale) ~cities_per_state
      ~capital_bug_probability ()
  in
  let spec = Spec.create () in
  Meta.install_standard spec;
  W.Roads.add_to_spec net spec ();
  W.Roads.add_status_rules spec ();
  W.Census.add_to_spec census spec ();
  W.Census.add_constraints spec ();
  W.Census.add_large_city_rule spec ~threshold:1_000_000 ();
  let facts =
    List.fold_left (fun n m -> n + List.length m.Spec.facts) 0 spec.Spec.models
  in
  { paper_text = Gdp_lang.Pretty.spec_to_string spec; census; paper_facts = facts }

(* ---- §V terrain ---- *)

(* The flow rules the benchmark owns. [downhill] joins two area-uniform
   elevation cells within one cell diagonal; [flows] is its closure;
   a [pit] is a dry cell that water cannot leave. *)
let terrain_rules =
  {|
rule downhill(P, Q) <- @u[fine]P elevation(E1)(land), @u[fine]Q elevation(E2)(land),
                       test pt_dist(P, Q, D), D > 0, D < 1.5, E2 < E1.
rule flows(P, Q) <- downhill(P, Q).
rule flows(P, Q) <- downhill(P, R), flows(R, Q).
rule has_outlet(P) <- downhill(P, Q).
constraint pit(P) <- @u[fine]P elevation(E)(land), not has_outlet(P), not @P lake(land).
|}

let size_exp = 3 (* an 8 x 8 cell terrain *)
let sea_level = 0.35
let elevation_scale = 1000.0

type terrain = {
  terrain_text : string;
  cells : int;  (** cells per side *)
  elevation : float array array;  (** [elevation.(j).(i)], as asserted *)
  lake : bool array array;
  terrain_facts : int;
}

let cell_pos i j = Gdp_space.Point.make (float_of_int i +. 0.5) (float_of_int j +. 0.5)

let elevation_fact i j h =
  Gfact.make "elevation" ~values:[ Gdp_logic.Term.float h ]
    ~objects:[ Gdp_logic.Term.atom "land" ]
    ~space:(Gfact.S_uniform (Gdp_logic.Term.atom "fine", Gfact.pos_term (cell_pos i j)))

let lake_fact i j =
  Gfact.make "lake" ~objects:[ Gdp_logic.Term.atom "land" ]
    ~space:(Gfact.S_at (Gfact.pos_term (cell_pos i j)))

(* Terrain [member] of [seed] as a height field, and the elevation and
   lake grids its spec asserts: cheap enough to draw many terrains and
   print only some. *)
let heights ~seed ~member = W.Terrain.generate (member_rng ~seed ~member) ~size_exp ~cell:1.0 ()

let elevation_grid t =
  let cells = t.W.Terrain.size - 1 in
  Array.init cells (fun j -> Array.init cells (fun i -> W.Terrain.height t i j *. elevation_scale))

let lake_grid t =
  let cells = t.W.Terrain.size - 1 in
  Array.init cells (fun j -> Array.init cells (fun i -> W.Terrain.height t i j < sea_level))

let terrain ~seed ~member =
  let t = heights ~seed ~member in
  let cells = t.W.Terrain.size - 1 in
  let spec = Spec.create () in
  Meta.install_standard spec;
  Spec.declare_space spec (Gdp_space.Resolution.uniform ~name:"fine" 1.0);
  Spec.declare_space spec (Gdp_space.Resolution.uniform ~name:"coarse" 4.0);
  let side = float_of_int cells in
  Spec.declare_region spec "map"
    (Gdp_space.Region.rect ~min_x:0.0 ~min_y:0.0 ~max_x:side ~max_y:side);
  Spec.declare_object spec "land";
  let n_elev =
    W.Terrain.add_elevation_facts t spec ~resolution:"fine" ~object_name:"land"
      ~scale:elevation_scale ()
  in
  let n_lake =
    W.Terrain.add_mask_facts t spec ~resolution:"fine" ~pred:"lake"
      ~object_name:"land" ~keep:(fun h -> h < sea_level) ()
  in
  {
    terrain_text = Gdp_lang.Pretty.spec_to_string spec ^ terrain_rules;
    cells;
    elevation = elevation_grid t;
    lake = lake_grid t;
    terrain_facts = n_elev + n_lake;
  }
