(* Reference answers computed in plain OCaml from the generators' own
   data: census records and height grids. Nothing here calls an engine,
   so an engine bug cannot make its own answer look right.

   Answers are compared as sorted lists of rendered terms; [check]
   raises [Wrong] with the first difference. *)

exception Wrong of string

let check ~what ~expected ~got =
  let expected = List.sort_uniq compare expected
  and got = List.sort_uniq compare got in
  if expected <> got then begin
    let missing = List.filter (fun x -> not (List.mem x got)) expected
    and extra = List.filter (fun x -> not (List.mem x expected)) got in
    let show = function [] -> "-" | x :: _ -> x in
    raise
      (Wrong
         (Printf.sprintf "%s: expected %d, got %d (missing %s, extra %s)" what
            (List.length expected) (List.length got) (show missing) (show extra)))
  end

let term_string = Gdp_logic.Term.to_string

(* the key an engine violation is compared by: "model: tag(args)" *)
let violation_key (v : Gdp_core.Query.violation) =
  Printf.sprintf "%s: %s(%s)" v.v_model v.v_tag (String.concat ", " (List.map term_string v.v_args))

(* ---- census (§III-C) ---- *)

(* "model: tag(args)" for every violation the paper's constraints imply:
   one [two_capitals] per state with more than one capital, one
   [bad_temp] per temperature outside the declared domain. The roads
   half of the spec is consistent by construction. *)
let paper_violations (c : Gdp_workload.Census.t) =
  let capitals s =
    List.length
      (List.filter
         (fun (x : Gdp_workload.Census.city) -> x.is_capital && String.equal x.in_state s)
         c.cities)
  in
  let two_capitals =
    List.filter_map
      (fun s -> if capitals s > 1 then Some ("w: two_capitals(" ^ s ^ ")") else None)
      c.states
  in
  let bad_temp =
    List.filter_map
      (fun (x : Gdp_workload.Census.city) ->
        let t = x.avg_temperature in
        if t < -100.0 || t > 200.0 then
          Some ("w: bad_temp(" ^ term_string (Gdp_logic.Term.float t) ^ ")")
        else None)
      c.cities
  in
  two_capitals @ bad_temp

(* ---- terrain (§V) ---- *)

(* A mutable copy of one terrain's grid, kept in step with the writes a
   session applies to the engine. *)
type grid = { n : int; elev : float array array; lake : bool array array }

let grid_of (t : Gen.terrain) =
  {
    n = t.Gen.cells;
    elev = Array.map Array.copy t.Gen.elevation;
    lake = Array.map Array.copy t.Gen.lake;
  }

let grid_of_heights t =
  let elev = Gen.elevation_grid t in
  { n = Array.length elev; elev; lake = Gen.lake_grid t }

let pos_string i j = term_string (Gdp_core.Gfact.pos_term (Gen.cell_pos i j))

(* the 8-neighbours strictly lower than cell (i, j) *)
let lower g i j =
  let acc = ref [] in
  for dj = -1 to 1 do
    for di = -1 to 1 do
      let x = i + di and y = j + dj in
      if (di <> 0 || dj <> 0) && x >= 0 && y >= 0 && x < g.n && y < g.n
         && g.elev.(y).(x) < g.elev.(j).(i)
      then acc := (x, y) :: !acc
    done
  done;
  !acc

(* [seen.(y).(x)] for every cell water from (i, j) reaches by strictly
   downhill steps *)
let reached g i j =
  let seen = Array.make_matrix g.n g.n false in
  let rec visit (x, y) =
    if not seen.(y).(x) then begin
      seen.(y).(x) <- true;
      List.iter visit (lower g x y)
    end
  in
  List.iter visit (lower g i j);
  seen

(* those cells, rendered *)
let flows_from g i j =
  let seen = reached g i j in
  let acc = ref [] in
  for y = 0 to g.n - 1 do
    for x = 0 to g.n - 1 do
      if seen.(y).(x) then acc := pos_string x y :: !acc
    done
  done;
  !acc

(* dry cells with no lower neighbour, as "w: pit(pos)" *)
let pits g =
  let acc = ref [] in
  for j = 0 to g.n - 1 do
    for i = 0 to g.n - 1 do
      if (not g.lake.(j).(i)) && lower g i j = [] then
        acc := ("w: pit(" ^ pos_string i j ^ ")") :: !acc
    done
  done;
  !acc

(* [w.(j).(i)] = (cells upstream of (i, j) + 1) * (cells downstream + 1).
   An elevation edit at (i, j) puts in question the flows facts through
   the cell, about that many; it predicts the edit's DRed work. *)
let edit_weights g =
  let up = Array.make_matrix g.n g.n 0 and down = Array.make_matrix g.n g.n 0 in
  for j = 0 to g.n - 1 do
    for i = 0 to g.n - 1 do
      let seen = reached g i j in
      for y = 0 to g.n - 1 do
        for x = 0 to g.n - 1 do
          if seen.(y).(x) then begin
            down.(j).(i) <- down.(j).(i) + 1;
            up.(y).(x) <- up.(y).(x) + 1
          end
        done
      done
    done
  done;
  Array.init g.n (fun j -> Array.init g.n (fun i -> (up.(j).(i) + 1) * (down.(j).(i) + 1)))
