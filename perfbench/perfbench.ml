(* perfbench — the paper-workload benchmark.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   Builds one workload's inputs from the seed, runs its operations as a
   closed loop with one client for S seconds, checks every answer
   against Oracle, and prints one JSON result as the last line of
   standard output. Each operation replays the [gdprs] code path through
   the library's public calls: read the file, Parser.program,
   Elaborate.program, Compile.compile and Query.of_compiled, then the
   engine call, then render the answer into a buffer. The engine runs in
   its default configuration.

   --trace 0 reports the end-to-end metrics. --trace 1 runs half the
   time untraced (the base) and half traced, with a span around each of
   those public calls, and reports per-layer medians from the traced
   half. See README.md for the workloads and metrics. *)

open Gdp_core
open Perfbench_lib
module Bu = Gdp_logic.Bottom_up

(* ---------------------------------------------------------------- clock *)

let now_ns = Gdp_obs.Tracer.now_ns
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6
let ms_since t0 = ms_between t0 (now_ns ())

(* ---------------------------------------------------------------- spans *)

(* Tracing state. Spans are flat (one per public call, never nested), so
   a span's self time is its duration. Outside tracing [layer] is a
   plain call. *)
let tracing = ref false

type span = { sp_layer : string; sp_start : int64; sp_ms : float }

let op_spans : span list ref = ref []
let op_counts : (string * float) list ref = ref []

let layer name f =
  if not !tracing then f ()
  else begin
    let t0 = now_ns () in
    let r = f () in
    op_spans := { sp_layer = name; sp_start = t0; sp_ms = ms_since t0 } :: !op_spans;
    r
  end

let count name v = if !tracing then op_counts := (name, v) :: !op_counts

(* run [f] with tracing off: work done only to compute a count *)
let untraced f =
  let was = !tracing in
  tracing := false;
  Fun.protect ~finally:(fun () -> tracing := was) f

let words_allocated () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1e6

(* ------------------------------------------------------------- gdprs path *)

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* file -> compiled query, as [gdprs] does it with no view options *)
let load ?tracer ~mode path =
  let text = layer "io.read" (fun () -> read_file path) in
  let ast = layer "lang.parse" (fun () -> Gdp_lang.Parser.program text) in
  count "lang.parse_mb" (float_of_int (String.length text) /. 1e6);
  let r =
    layer "lang.elaborate" (fun () ->
        Gdp_lang.Elaborate.program ~base_dir:(Filename.dirname path) ast)
  in
  let spec = r.Gdp_lang.Elaborate.spec in
  layer "core.compile" (fun () ->
      let compiled =
        Compile.compile ~world_view:(Spec.default_world_view spec)
          ~meta_view:r.Gdp_lang.Elaborate.uses ?tracer spec
      in
      count "core.compile_clauses"
        (float_of_int (Gdp_logic.Database.size compiled.Compile.db));
      Query.of_compiled ~mode ?tracer compiled)

let render pp items =
  let b = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer b in
  List.iter (fun x -> Format.fprintf ppf "  %a@." pp x) items;
  Buffer.contents b

(* materialised violations, rendered: the answer half of a check *)
let answer_violations q =
  layer "core.answer" (fun () ->
      let vs = Query.violations q in
      count "core.answers" (float_of_int (List.length vs));
      ignore (render Query.pp_violation vs);
      List.map Oracle.violation_key vs)

let record_fixpoint_stats fp ~ms ~alloc_words =
  let s = Bu.stats fp in
  let f = float_of_int in
  let derived =
    List.fold_left (fun n st -> n + st.Bu.st_derived) 0 s.Bu.bu_strata_stats
  in
  let hc = s.Bu.bu_hcons_hits + s.Bu.bu_hcons_misses in
  List.iter
    (fun (k, v) -> count ("logic.bottom_up_" ^ k) v)
    [
      ("facts", f s.Bu.bu_facts);
      ("derived_per_s", if ms > 0.0 then f derived /. (ms /. 1000.0) else 0.0);
      ("passes", f s.Bu.bu_passes);
      ("firings", f s.Bu.bu_firings);
      ("index_probes", f s.Bu.bu_index_probes);
      ("full_scans", f s.Bu.bu_full_scans);
      ("hcons_hit_rate", if hc > 0 then f s.Bu.bu_hcons_hits /. f hc else 0.0);
      ("spatial_probes", f s.Bu.bu_spatial_probes);
      ("spatial_scans", f s.Bu.bu_spatial_scans);
      ("prov_bytes", f s.Bu.bu_prov.Bu.prov_bytes);
      ("alloc_mb", mb_of_words alloc_words);
    ]

(* Query.materialization inside a span, with the fixpoint's counters *)
let materialize q =
  let w0 = if !tracing then words_allocated () else 0.0 in
  let t0 = now_ns () in
  let fp = layer "logic.bottom_up" (fun () -> Query.materialization q) in
  if !tracing then
    record_fixpoint_stats fp ~ms:(ms_since t0) ~alloc_words:(words_allocated () -. w0);
  fp

(* ------------------------------------------------------------- workloads *)

(* Set-up of one workload: its set-up times and input sizes. The last
   set-up round's spans land in [setup_spans], so layers that only run
   there (snapshot save, session materialisation) still get a traced
   figure. *)
type setup = {
  pool : int;
  setup_s : float list;  (** per round: mean set-up seconds per member *)
  input_bytes : int;
  facts : int;
  cells : int;
}

(* An operation runs its timed part and returns its kind and its check,
   which runs after the clock stops and raises on a wrong answer.
   [between i] runs off the clock before op [i]. *)
type prepared = {
  setup : setup;
  between : int -> unit;
  op : int -> string * (unit -> unit);
}

(* Before each cold op: a full major collection, so the op starts, like a
   new [gdprs] process, without the previous op's garbage to collect. *)
let fresh_heap _ = Gc.full_major ()

let setup_spans : span list ref = ref []
let setup_counts : (string * float) list ref = ref []

(* Set up [pool] members with [f], which returns each member's input
   (bytes, facts, cells). A round sets up every member; rounds repeat
   until [setup_window] seconds have passed, and each round contributes
   its mean time per member. Short set-ups are thus timed many times over
   a window long enough to average out the machine's fast and slow
   spells; the last round's members are the ones the loop uses. *)
let setup_window = 2.0

(* Writing a member's spec file stands in for the user already having
   it: set-up time leaves it out, as the write's latency is the file
   system's and the noisiest part of a short set-up. *)
let input_write_ms = ref 0.0

let write_input path text =
  let t0 = now_ns () in
  write_file path text;
  input_write_ms := !input_write_ms +. ms_since t0

let setup_pool ?(prepare = ignore) pool f =
  let t_start = now_ns () in
  let rec rounds acc =
    op_spans := [];
    op_counts := [];
    input_write_ms := 0.0;
    let t0 = now_ns () in
    prepare ();
    let sizes = List.init pool f in
    let per_member = (ms_since t0 -. !input_write_ms) /. 1000.0 /. float_of_int pool in
    if ms_since t_start /. 1000.0 < setup_window then rounds (per_member :: acc)
    else (per_member :: acc, sizes)
  in
  let times, sizes = rounds [] in
  setup_spans := !op_spans;
  setup_counts := !op_counts;
  op_spans := [];
  op_counts := [];
  let total k = List.fold_left (fun n s -> n + k s) 0 sizes in
  {
    pool;
    setup_s = times;
    input_bytes = total (fun (b, _, _) -> b);
    facts = total (fun (_, f, _) -> f);
    cells = total (fun (_, _, c) -> c);
  }

let spec_path dir name m = Filename.concat dir (Printf.sprintf "%s-%d.gdp" name m)

(* generate terrain member [m], write its spec, return it with its path *)
let terrain_member dir name ~seed m =
  let t = Gen.terrain ~seed ~member:m in
  let path = spec_path dir name m in
  write_input path t.Gen.terrain_text;
  (t, path)

let terrain_size (t : Gen.terrain) =
  (String.length t.Gen.terrain_text, t.Gen.terrain_facts, t.Gen.cells * t.Gen.cells)

(* Pool sizes: large enough that a run's figures average over many
   inputs, small enough that set-up stays a few seconds. The session's
   set-up pool only times set-up; its loop visits as many terrains as
   the run has time for. *)
let terrain_pool = 64
let check_pool = 32
let paper_pool = 32
let paper_large_pool = 16
let session_pool = 16

(* paper-check: a cold top-down check of a roads + census spec. Two ops
   in three check a small spec, one a spec with twice the roads and
   states. A large check costs about three small ones, so the op p50
   falls among the small checks (at their 75th percentile) and the p90
   among the large ones (at their 70th), each far from the boundary
   between the two modes at 67%. *)
let paper_check ~dir ~seed =
  let small = Array.make paper_pool ("", []) and large = Array.make paper_large_pool ("", []) in
  let member m =
    let scale = if m < paper_pool then 1 else 2 in
    let p = Gen.paper ~scale ~seed ~member:m () in
    let path = spec_path dir "paper" m in
    write_input path p.Gen.paper_text;
    let entry = (path, Oracle.paper_violations p.Gen.census) in
    if m < paper_pool then small.(m) <- entry else large.(m - paper_pool) <- entry;
    (String.length p.Gen.paper_text, p.Gen.paper_facts, 0)
  in
  let setup = setup_pool (paper_pool + paper_large_pool) member in
  let op i =
    let kind, (path, expected) =
      if i mod 3 = 2 then ("large_check", large.(i / 3 mod paper_large_pool))
      else ("check", small.(((2 * (i / 3)) + (i mod 3)) mod paper_pool))
    in
    (* the Query tracer is enabled only in traced runs, for Solve counters *)
    let tracer = if !tracing then Some (Gdp_obs.Tracer.create ()) else None in
    let q = load ?tracer ~mode:Query.Top_down path in
    let got =
      layer "logic.solve" (fun () ->
          let vs = Query.violations q in
          ignore (render Query.pp_violation vs);
          List.map Oracle.violation_key vs)
    in
    Option.iter
      (fun s -> count "logic.solve_unifications" (float_of_int s.Gdp_logic.Solve.unifications))
      (Query.solve_stats q);
    (kind, fun () -> Oracle.check ~what:"paper violations" ~expected ~got)
  in
  { setup; between = fresh_heap; op }

(* terrain-check: a check of a terrain spec from its file, cold
   (check --materialize) or warm (check --snapshot, from a .gdpx saved
   during set-up). One op in [cold_every] is cold. A cold check costs
   about seven warm ones, so the op p50 falls among the warm checks
   (at their 67th percentile) and the p90 among the cold ones (at their
   60th), each far from the boundary between the two modes at 75%. *)
let cold_every = 4

let terrain_check ~dir ~seed =
  let members = Array.make check_pool ("", "", []) in
  let setup =
    setup_pool check_pool (fun m ->
        let t, path = terrain_member dir "terrain" ~seed m in
        let snap = Filename.remove_extension path ^ ".gdpx" in
        let q = load ~mode:Query.Materialized path in
        ignore (materialize q);
        let bytes, facts = layer "logic.snapshot_save" (fun () -> Query.save_snapshot q snap) in
        count "logic.snapshot_bytes_per_fact" (float_of_int bytes /. float_of_int (max 1 facts));
        members.(m) <- (path, snap, Oracle.pits (Oracle.grid_of t));
        terrain_size t)
  in
  let op i =
    if i mod cold_every = 0 then begin
      let path, _, expected = members.(i / cold_every mod check_pool) in
      let q = load ~mode:Query.Materialized path in
      ignore (materialize q);
      let got = answer_violations q in
      ("check", fun () -> Oracle.check ~what:"pits" ~expected ~got)
    end
    else begin
      (* the warm checks, numbered apart from the cold ones, cycle the pool *)
      let path, snap, expected = members.((i - (i / cold_every) - 1) mod check_pool) in
      let q = load ~mode:Query.Materialized path in
      (match layer "logic.snapshot_load" (fun () -> Query.of_snapshot q snap) with
      | Ok _ -> ()
      | Error e -> failwith ("snapshot: " ^ Query.snapshot_error_message e));
      let got = answer_violations q in
      ("warm_check", fun () -> Oracle.check ~what:"pits" ~expected ~got)
    end
  in
  { setup; between = fresh_heap; op }

let op_rng ~seed = Gdp_workload.Rng.create (Int64.of_int (seed lxor 0x5eed))

let flows_goal i j =
  Printf.sprintf "holds(w, flows, [], [%s, X], nospace, notime)" (Oracle.pos_string i j)

(* terrain-magic: ask --magic on a bound-first flows(P, X) question *)
let terrain_magic ~dir ~seed =
  let members = Array.make terrain_pool None in
  let rng = op_rng ~seed in
  let setup =
    setup_pool terrain_pool (fun m ->
        let t, path = terrain_member dir "magic" ~seed m in
        members.(m) <- Some (path, Oracle.grid_of t);
        terrain_size t)
  in
  (* the full model's size per member, for logic.magic_derived_share *)
  let full = Hashtbl.create terrain_pool in
  let full_count m path =
    match Hashtbl.find_opt full m with
    | Some n -> n
    | None ->
        let n = Bu.count (Query.materialization (load ~mode:Query.Materialized path)) in
        Hashtbl.add full m n;
        n
  in
  let op i =
    let m = i mod terrain_pool in
    let path, g = Option.get members.(m) in
    let ci = Gdp_workload.Rng.int rng g.Oracle.n and cj = Gdp_workload.Rng.int rng g.Oracle.n in
    let goal = flows_goal ci cj in
    let q = load ~mode:Query.Magic path in
    let got =
      layer "logic.magic" (fun () ->
          let rows = Query.ask_all q goal in
          let show (x, t) = x ^ " = " ^ Gdp_logic.Term.to_string t in
          ignore
            (render Format.pp_print_string
               (List.map (fun row -> String.concat ", " (List.map show row)) rows));
          List.concat_map (List.map (fun (_, t) -> Gdp_logic.Term.to_string t)) rows)
    in
    ( "magic_ask",
      fun () ->
        (* off the clock: re-derive the goal's fixpoint to count it *)
        if !tracing then begin
          let share =
            untraced (fun () ->
                let goal_term = List.hd (Gdp_logic.Reader.goals goal) in
                let derived = Bu.count (fst (Query.magic_materialization q goal_term)) in
                float_of_int derived /. float_of_int (max 1 (full_count m path)))
          in
          count "logic.magic_derived_share" share
        end;
        Oracle.check ~what:"flows" ~expected:(Oracle.flows_from g ci cj) ~got )
  in
  { setup; between = fresh_heap; op }

(* terrain-session: a closed loop of reads and writes on a live model *)

(* Per block of 20 operations: 13 reads, 3 lake-mask edits (constraint
   stratum only) and 4 elevation edits (through the flows closure via
   DRed), in a seeded order within the block. Reads and lake edits both
   take well under a millisecond, elevation edits tens of milliseconds:
   the op p50 falls among the former and the p90 at the median of the
   elevation edits, each far from the boundary between the two modes. *)
let session_mix = [ ("answer", 13); ("lake_update", 3); ("elevation_update", 4) ]

(* The loop works on one live model at a time, as a user session does,
   and moves to the next terrain every [session_ops] ops (two blocks), so
   a run averages over some fifty terrains; loading and
   materialising the next model happens off the clock. One model at a
   time keeps the heap a single session's size, so the collector's work
   per op is what a real session pays. *)
let session_ops = 40

(* Elevation edits are drawn by stratum. An edit's cost follows the flows
   facts through the edited cell, about [Oracle.edit_weights], which
   spans two orders of magnitude between cells and between terrains.
   Drawn at random, one run's fifty terrains and four hundred edits
   over-weight some strata and miss others, enough to move the session's
   p90 by a fifth between seeds. So set-up ranks [session_candidates]
   terrains by their mean log edit weight and the loop visits them in
   van der Corput order over that ranking, which spreads every prefix of
   the visits evenly over it; within a terrain the four edited cells are
   one from each quartile of its cells ranked by weight. Every stratum
   keeps its share of the population, so the edits are the population
   random draws would give, with less spread between runs. *)
let session_candidates = 256 (* 2^8, the points [van_der_corput] spans *)

(* [k]'s 8 low bits reversed: the k-th point of the base-2 van der
   Corput sequence, in 256ths *)
let van_der_corput k =
  let r = ref 0 in
  for b = 0 to 7 do
    if k land (1 lsl b) <> 0 then r := !r lor (1 lsl (7 - b))
  done;
  !r

(* the terrain members ranked by mean log edit weight, lightest first *)
let rank_terrains ~seed =
  Array.init session_candidates (fun m ->
      let w = Oracle.edit_weights (Oracle.grid_of_heights (Gen.heights ~seed ~member:m)) in
      let logs = Array.concat (Array.to_list (Array.map (Array.map (fun x -> log (float_of_int x))) w)) in
      (Array.fold_left ( +. ) 0.0 logs /. float_of_int (Array.length logs), m))
  |> Array.to_list |> List.sort compare |> List.map snd |> Array.of_list

(* one cell from each quartile of the grid's cells by edit weight, in a
   seeded order *)
let edit_cells rng g =
  let w = Oracle.edit_weights g in
  let cells =
    List.init (g.Oracle.n * g.Oracle.n) (fun k -> (k mod g.Oracle.n, k / g.Oracle.n))
    |> List.map (fun (i, j) -> (w.(j).(i), (i, j)))
    |> List.sort compare |> List.map snd |> Array.of_list
  in
  let q = Array.length cells / 4 in
  Gdp_workload.Rng.shuffle rng (List.init 4 (fun k -> cells.((k * q) + Gdp_workload.Rng.int rng q)))
  |> Array.of_list

type session = {
  q : Query.t;
  g : Oracle.grid;
  cells : (int * int) array;  (** the cells this model's elevation edits move *)
  mutable edits : int;
  mutable pending : (int * int * float) option;  (** an edit to withdraw *)
}

let terrain_session ~dir ~seed =
  let rng = op_rng ~seed in
  let schedule = ref [] in
  let rec next_kind () =
    match !schedule with
    | k :: rest ->
        schedule := rest;
        k
    | [] ->
        schedule :=
          Gdp_workload.Rng.shuffle rng
            (List.concat_map (fun (k, n) -> List.init n (fun _ -> k)) session_mix);
        next_kind ()
  in
  let ranked = ref [||] in
  (* the [v]-th terrain the session visits *)
  let open_model v =
    let m = !ranked.(van_der_corput (v mod session_candidates)) in
    let t, path = terrain_member dir "session" ~seed m in
    let q = load ~mode:Query.Materialized path in
    ignore (materialize q);
    let g = Oracle.grid_of t in
    let cells = edit_cells (Gen.member_rng ~seed:(seed lxor 0xce11) ~member:m) g in
    ({ q; g; cells; edits = 0; pending = None }, t)
  in
  let setup =
    setup_pool
      ~prepare:(fun () -> ranked := rank_terrains ~seed)
      session_pool
      (fun v -> terrain_size (snd (open_model v)))
  in
  let current = ref None in
  let between i =
    if i mod session_ops = 0 || Option.is_none !current then begin
      current := None;
      Gc.full_major ();
      current := Some (fst (untraced (fun () -> open_model (i / session_ops))))
    end
  in
  (* an update batch, then the re-check; [edit] replays it on the grid *)
  let write q g batch edit =
    let before = Bu.incr_stats (Query.materialization q) in
    ignore (layer "logic.apply" (fun () -> Query.update q batch));
    let after = Bu.incr_stats (Query.materialization q) in
    let d f = float_of_int (f after - f before) in
    count "logic.apply_overdeleted" (d (fun s -> s.Bu.upd_overdeleted));
    count "logic.apply_rederived" (d (fun s -> s.Bu.upd_rederived));
    count "logic.apply_strata_recomputed" (d (fun s -> s.Bu.upd_strata_recomputed));
    let got = answer_violations q in
    fun () ->
      edit g;
      Oracle.check ~what:"pits" ~expected:(Oracle.pits g) ~got
  in
  let op _ =
    let sn = Option.get !current in
    let q = sn.q and g = sn.g in
    let ci = Gdp_workload.Rng.int rng g.Oracle.n and cj = Gdp_workload.Rng.int rng g.Oracle.n in
    match next_kind () with
    | "answer" ->
        let pattern =
          Gfact.make "flows"
            ~objects:[ Gfact.pos_term (Gen.cell_pos ci cj); Gdp_logic.Term.var "X" ]
        in
        let got =
          layer "core.answer" (fun () ->
              let answers = Query.solutions q pattern in
              count "core.answers" (float_of_int (List.length answers));
              ignore (render Gfact.pp answers);
              List.filter_map
                (fun a ->
                  match a.Gfact.objects with
                  | [ _; x ] -> Some (Gdp_logic.Term.to_string x)
                  | _ -> None)
                answers)
        in
        ("answer", fun () -> Oracle.check ~what:"flows" ~expected:(Oracle.flows_from g ci cj) ~got)
    | "lake_update" ->
        let fact = Gen.lake_fact ci cj in
        let was_lake = g.Oracle.lake.(cj).(ci) in
        let batch = [ (if was_lake then `Retract fact else `Assert fact) ] in
        ("lake_update", write q g batch (fun g -> g.Oracle.lake.(cj).(ci) <- not was_lake))
    | _ ->
        (* A survey correction moves one cell by up to a tenth of the
           elevation range; the model's next elevation edit withdraws it,
           so the terrain keeps its generated shape. *)
        let i, j, h =
          match sn.pending with
          | Some (i, j, h) ->
              sn.pending <- None;
              (i, j, h)
          | None ->
              let ci, cj = sn.cells.(sn.edits mod Array.length sn.cells) in
              sn.edits <- sn.edits + 1;
              let h = g.Oracle.elev.(cj).(ci) in
              sn.pending <- Some (ci, cj, h);
              (ci, cj, h +. Gdp_workload.Rng.range rng (-100.0) 100.0)
        in
        let batch =
          [ `Retract (Gen.elevation_fact i j g.Oracle.elev.(j).(i)); `Assert (Gen.elevation_fact i j h) ]
        in
        ("elevation_update", write q g batch (fun g -> g.Oracle.elev.(j).(i) <- h))
  in
  { setup; between; op }

let workloads =
  [
    ("paper-check", paper_check);
    ("terrain-check", terrain_check);
    ("terrain-magic", terrain_magic);
    ("terrain-session", terrain_session);
  ]

(* ------------------------------------------------------------- the loop *)

type sample = {
  kind : string;
  start : int64;
  ms : float;
  ok : bool;
  spans : span list;
  counts : (string * float) list;
  alloc_words : float;
  major : int;
}

let run_loop ~seconds ~first (p : prepared) =
  let samples = ref [] in
  let deadline = Int64.add (now_ns ()) (Int64.of_float (seconds *. 1e9)) in
  let i = ref first in
  while Int64.compare (now_ns ()) deadline < 0 do
    op_spans := [];
    op_counts := [];
    p.between !i;
    let gc0 = if !tracing then Some (Gc.quick_stat ()) else None in
    let w0 = if !tracing then words_allocated () else 0.0 in
    let t0 = now_ns () in
    let result = try Ok (p.op !i) with e -> Error e in
    let ms = ms_between t0 (now_ns ()) in
    let alloc_words = if !tracing then words_allocated () -. w0 else 0.0 in
    let major =
      match gc0 with
      | Some g -> (Gc.quick_stat ()).Gc.major_collections - g.Gc.major_collections
      | None -> 0
    in
    let kind, ok =
      match result with
      | Ok (kind, check) -> (
          try
            check ();
            (kind, true)
          with
          | Oracle.Wrong msg ->
              prerr_endline ("wrong answer: " ^ msg);
              (kind, false)
          | e ->
              prerr_endline ("failed check: " ^ Printexc.to_string e);
              (kind, false))
      | Error e ->
          prerr_endline ("failed op: " ^ Printexc.to_string e);
          ("error", false)
    in
    samples :=
      { kind; start = t0; ms; ok; spans = !op_spans; counts = !op_counts; alloc_words; major } :: !samples;
    incr i
  done;
  List.rev !samples

(* ------------------------------------------------------------- statistics *)

let quantile q l =
  match List.sort compare l with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      (* linear interpolation between closest ranks *)
      let pos = q *. float_of_int (n - 1) in
      let lo = truncate pos in
      let hi = min (n - 1) (lo + 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.0

let peak_rss_mb () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> 0.0
          | Some line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" (fun kb -> kb /. 1024.0)
          | Some _ -> go ()
        in
        go ())
  with Sys_error _ -> 0.0

(* --------------------------------------------------------------- metrics *)

(* Every metric, by name and unit; BENCHMARK.json declares the same set
   (run.py --selftest checks that). *)
let end_to_end =
  [ ("op_ms_p50", "ms"); ("op_ms_p90", "ms"); ("setup_s", "s"); ("peak_rss_mb", "MB") ]

(* per-layer metrics read as medians of per-op span times or counts *)
let span_metrics =
  [
    ("io.read_ms", "io.read");
    ("lang.parse_ms", "lang.parse");
    ("lang.elaborate_ms", "lang.elaborate");
    ("core.compile_ms", "core.compile");
    ("logic.solve_ms", "logic.solve");
    ("logic.bottom_up_ms", "logic.bottom_up");
    ("logic.apply_ms", "logic.apply");
    ("logic.magic_ms", "logic.magic");
    ("logic.snapshot_load_ms", "logic.snapshot_load");
    ("logic.snapshot_save_ms", "logic.snapshot_save");
    ("core.answer_ms", "core.answer");
  ]

let count_metrics =
  [
    ("core.compile_clauses", "count");
    ("logic.solve_unifications", "count");
    ("logic.bottom_up_facts", "count");
    ("logic.bottom_up_derived_per_s", "1/s");
    ("logic.bottom_up_passes", "count");
    ("logic.bottom_up_firings", "count");
    ("logic.bottom_up_index_probes", "count");
    ("logic.bottom_up_full_scans", "count");
    ("logic.bottom_up_hcons_hit_rate", "ratio");
    ("logic.bottom_up_spatial_probes", "count");
    ("logic.bottom_up_spatial_scans", "count");
    ("logic.bottom_up_prov_bytes", "bytes");
    ("logic.bottom_up_alloc_mb", "MB");
    ("logic.apply_overdeleted", "count");
    ("logic.apply_rederived", "count");
    ("logic.apply_strata_recomputed", "count");
    ("logic.magic_derived_share", "ratio");
    ("logic.snapshot_bytes_per_fact", "bytes");
    ("core.answers", "count");
  ]

let derived_metrics =
  [
    ("lang.parse_mb_per_s", "MB/s");
    ("logic.apply_rederive_ratio", "ratio");
    ("gc.alloc_mb_per_op", "MB");
    ("gc.major_collections", "count");
    ("op.unattributed_share", "ratio");
    ("op.trace_overhead", "ratio");
    ("op.untraced_ms_p50", "ms");
    ("op.traced_ms_p50", "ms");
  ]

let per_layer =
  List.map (fun (n, _) -> (n, "ms")) span_metrics @ count_metrics @ derived_metrics

(* Medians over the ops where the layer ran; a layer that ran only in
   set-up reports its set-up median; one that never ran reports 0. *)
let per_layer_values ~base ~traced =
  let ops_where f = List.filter_map f traced in
  let values_of_span layer spans =
    List.filter_map (fun s -> if s.sp_layer = layer then Some s.sp_ms else None) spans
  in
  let values_of_count name counts =
    List.filter_map (fun (k, v) -> if k = name then Some v else None) counts
  in
  let span_value layer =
    match ops_where (fun s -> match values_of_span layer s.spans with [] -> None | l -> Some (sum l)) with
    | [] -> median (values_of_span layer !setup_spans)
    | l -> median l
  in
  let count_value name =
    match ops_where (fun s -> match values_of_count name s.counts with [] -> None | l -> Some (sum l)) with
    | [] -> median (values_of_count name !setup_counts)
    | l -> median l
  in
  let total name = sum (ops_where (fun s -> Some (sum (values_of_count name s.counts)))) in
  let n_ops = float_of_int (max 1 (List.length traced)) in
  let parse_mb = count_value "lang.parse_mb" and parse_ms = span_value "lang.parse" in
  let over = total "logic.apply_overdeleted" in
  let unattributed =
    median
      (List.map
         (fun s -> if s.ms > 0.0 then (s.ms -. sum (List.map (fun x -> x.sp_ms) s.spans)) /. s.ms else 0.0)
         traced)
  in
  let base_ms = median (List.map (fun s -> s.ms) base)
  and traced_ms = median (List.map (fun s -> s.ms) traced) in
  List.map (fun (n, layer) -> (n, span_value layer)) span_metrics
  @ List.map (fun (n, _) -> (n, count_value n)) count_metrics
  @ [
      ("lang.parse_mb_per_s", if parse_ms > 0.0 then parse_mb /. (parse_ms /. 1000.0) else 0.0);
      ("logic.apply_rederive_ratio", if over > 0.0 then total "logic.apply_rederived" /. over else 0.0);
      ("gc.alloc_mb_per_op", mb_of_words (sum (List.map (fun s -> s.alloc_words) traced)) /. n_ops);
      ("gc.major_collections", float_of_int (List.fold_left (fun n s -> n + s.major) 0 traced) /. n_ops);
      ("op.unattributed_share", unattributed);
      ("op.trace_overhead", if base_ms > 0.0 then traced_ms /. base_ms else 0.0);
      ("op.untraced_ms_p50", base_ms);
      ("op.traced_ms_p50", traced_ms);
    ]

(* ----------------------------------------------------------------- output *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let json_metrics metrics units =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, v) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name) (json_number v)
             (json_string (List.assoc name units)))
         metrics)
  ^ "}"

(* the commit when run inside a git work tree, else "none" *)
let git_commit () =
  try
    let head = String.trim (read_file ".git/HEAD") in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then
      String.trim (read_file (Filename.concat ".git" (String.sub head 5 (String.length head - 5))))
    else head
  with Sys_error _ -> "none"

(* digest of the library sources, which identifies the code under test
   also where there is no git metadata *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
           else [])
  in
  try
    Digest.to_hex
      (Digest.string (String.concat "" (List.map (fun p -> p ^ Digest.string (read_file p)) (files "lib"))))
  with Sys_error _ -> "none"

(* ------------------------------------------------------------------ main *)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--work-dir DIR]";
  prerr_endline ("workloads: " ^ String.concat ", " (List.map fst workloads));
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let work_dir = ref (Filename.concat "perfbench" "_work") in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--work-dir" :: v :: rest -> work_dir := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let build =
    match List.assoc_opt !workload workloads with Some w -> w | None -> usage ()
  in
  if !trace <> 0 && !trace <> 1 then usage ();
  if not (Sys.file_exists !work_dir) then Sys.mkdir !work_dir 0o755;
  let dir = Filename.concat !work_dir (Printf.sprintf "%s-%d" !workload !seed) in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  (* set-up is traced in a traced run, so set-up-only layers get figures *)
  tracing := !trace = 1;
  let p = build ~dir ~seed:!seed in
  tracing := false;
  Gc.compact ();
  let base, traced =
    if !trace = 0 then (run_loop ~seconds:!seconds ~first:0 p, [])
    else begin
      let base = run_loop ~seconds:(!seconds /. 2.0) ~first:0 p in
      tracing := true;
      let traced = run_loop ~seconds:(!seconds /. 2.0) ~first:(List.length base) p in
      tracing := false;
      (base, traced)
    end
  in
  let all = base @ traced in
  let attempted = List.length all in
  let failed = List.length (List.filter (fun s -> not s.ok) all) in
  (* sample count and latency per op kind, from the untraced loop *)
  let kinds =
    List.sort_uniq compare (List.map (fun s -> s.kind) all)
    |> List.map (fun k ->
           let ms = List.filter_map (fun s -> if s.kind = k then Some s.ms else None) base in
           ( k,
             Printf.sprintf "{\"n\": %d, \"ms_p50\": %s, \"ms_p90\": %s}"
               (List.length (List.filter (fun s -> s.kind = k) all))
               (json_number (median ms)) (json_number (quantile 0.9 ms)) ))
  in
  let metrics, units =
    if !trace = 0 then begin
      let ms = List.map (fun s -> s.ms) base in
      ( [
          ("op_ms_p50", median ms);
          ("op_ms_p90", quantile 0.9 ms);
          ("setup_s", median p.setup.setup_s);
          ("peak_rss_mb", peak_rss_mb ());
        ],
        end_to_end )
    end
    else (per_layer_values ~base ~traced, per_layer)
  in
  let meta =
    Printf.sprintf
      "{\"workload\": %s, \"seed\": %d, \"trace\": %d, \"seconds\": %s, \"nproc\": %d, \
       \"ocaml\": %s, \"commit\": %s, \"source_digest\": %s, \"input_bytes\": %d, \
       \"facts\": %d, \"cells\": %d, \"pool\": %d, \"setup_rounds\": %d, \"error_rate\": %s, \
       \"ops_per_s\": %s, \"kinds\": {%s}}"
      (json_string !workload) !seed !trace (json_number !seconds)
      (Domain.recommended_domain_count ())
      (json_string Sys.ocaml_version) (json_string (git_commit ()))
      (json_string (source_digest ())) p.setup.input_bytes p.setup.facts p.setup.cells
      p.setup.pool (List.length p.setup.setup_s)
      (json_number (float_of_int failed /. float_of_int (max 1 attempted)))
      (* closed loop, one client: 1000 / mean op ms, from the untraced loop *)
      (json_number (float_of_int (List.length base) /. (sum (List.map (fun s -> s.ms) base) /. 1000.0)))
      (String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) kinds))
  in
  List.iter
    (fun (name, v) -> Printf.printf "%-36s %14.4f %s\n" name v (List.assoc name units))
    metrics;
  print_endline meta;
  let result =
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
      (failed = 0) attempted failed (json_metrics metrics units)
  in
  write_file
    (Filename.concat dir (Printf.sprintf "result-trace%d.json" !trace))
    (Printf.sprintf "{\"meta\": %s, \"result\": %s}\n" meta result);
  (* the traced ops' spans: one "op" span each, its layer spans as children *)
  if !trace = 1 then begin
    let span_json i kind ~parent layer start ms =
      Printf.sprintf
        "{\"op\": %d, \"kind\": %s, \"layer\": %s, \"parent\": %s, \"start_ns\": %Ld, \"ms\": %s}"
        i (json_string kind) (json_string layer) parent start (json_number ms)
    in
    write_file (Filename.concat dir "spans.json")
      ("[\n"
      ^ String.concat ",\n"
          (List.concat
             (List.mapi
                (fun i s ->
                  span_json i s.kind ~parent:"null" "op" s.start s.ms
                  :: List.rev_map
                       (fun sp -> span_json i s.kind ~parent:"\"op\"" sp.sp_layer sp.sp_start sp.sp_ms)
                       s.spans)
                traced))
      ^ "\n]\n")
  end;
  print_endline result
