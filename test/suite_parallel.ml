(* The parallel fixpoint, tested differentially: for any program in the
   stratified fragment, [Bottom_up.run] with [Config.jobs = n] for n > 1
   — partitioned rule firing over the domain pool, domain-local
   interning, canonical single-threaded merge — must derive exactly the
   facts the sequential engine derives. Checked over the same random
   program distributions the engine-props suite uses, over random
   incremental update scripts, and over goal-directed (magic-seeded)
   evaluations. Plus unit tests for the pool itself and for
   [run ~seed] netting. *)

open Gdp_logic

let db_of src =
  let db = Database.create () in
  List.iter (Database.assertz db) (Reader.program src);
  db

let engine_db_of src =
  let db = Engine.create () in
  Engine.consult db src;
  db

let term = Reader.term
let jobs_config jobs = { Bottom_up.Config.default with jobs }
let facts_of fp = List.map Term.to_string (Bottom_up.facts fp)

(* ------------------------------------------------------------------ *)
(* the domain pool                                                     *)

let test_pool_runs_all_tasks () =
  List.iter
    (fun jobs ->
      let p = Pool.create ~jobs () in
      Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
      let n = 100 in
      let hits = Array.make n 0 in
      Pool.run_all p
        (Array.init n (fun i () -> hits.(i) <- hits.(i) + 1));
      Alcotest.(check (list int))
        (Printf.sprintf "every task ran once (jobs=%d)" jobs)
        (List.init n (fun _ -> 1))
        (Array.to_list hits);
      (* the pool is reusable: a second batch through the same domains *)
      Pool.run_all p
        (Array.init n (fun i () -> hits.(i) <- hits.(i) + 1));
      Alcotest.(check bool)
        (Printf.sprintf "second batch ran (jobs=%d)" jobs)
        true
        (Array.for_all (fun h -> h = 2) hits))
    [ 1; 2; 4 ]

let test_pool_empty_and_single () =
  let p = Pool.create ~jobs:3 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
  Pool.run_all p [||];
  let ran = ref false in
  Pool.run_all p [| (fun () -> ran := true) |];
  Alcotest.(check bool) "single task ran" true !ran

exception Boom of int

let test_pool_propagates_failure () =
  let p = Pool.create ~jobs:4 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
  let done_count = Atomic.make 0 in
  (match
     Pool.run_all p
       (Array.init 16 (fun i () ->
            if i = 7 then raise (Boom i)
            else Atomic.incr done_count))
   with
  | () -> Alcotest.fail "expected the task's exception to re-raise"
  | exception Boom 7 -> ());
  (* the barrier held: every non-raising task still completed, and the
     pool survives for the next batch *)
  Alcotest.(check int) "other tasks completed" 15 (Atomic.get done_count);
  let ok = ref false in
  Pool.run_all p [| (fun () -> ok := true) |];
  Alcotest.(check bool) "pool usable after failure" true !ok

let test_pool_sizing () =
  Alcotest.(check bool) "autodetect is positive" true (Pool.auto_jobs () >= 1);
  Alcotest.(check int) "resolve keeps explicit" 3 (Pool.resolve_jobs 3);
  Alcotest.(check int) "resolve 0 autodetects" (Pool.auto_jobs ())
    (Pool.resolve_jobs 0);
  let p = Pool.create ~jobs:5 () in
  Alcotest.(check int) "size" 5 (Pool.size p);
  Pool.shutdown p;
  (* shared pools are cached per size *)
  Alcotest.(check bool) "shared pool cached" true
    (Pool.shared ~jobs:2 == Pool.shared ~jobs:2)

(* ------------------------------------------------------------------ *)
(* seed netting in [run ~seed]                                         *)

let chain = "e(a, b). e(b, c). r(X, Y) :- e(X, Y). r(X, Y) :- e(X, Z), r(Z, Y)."

let test_seed_empty () =
  let plain = Bottom_up.run (db_of chain) in
  let seeded = Bottom_up.run ~seed:[] (db_of chain) in
  Alcotest.(check (list string)) "empty seed is a no-op" (facts_of plain)
    (facts_of seeded)

let test_seed_duplicates_netted () =
  let s = term "e(c, d)" in
  let once = Bottom_up.run ~seed:[ s ] (db_of chain) in
  let thrice = Bottom_up.run ~seed:[ s; s; term "e(c, d)" ] (db_of chain) in
  Alcotest.(check (list string)) "repeated seed counts once" (facts_of once)
    (facts_of thrice);
  Alcotest.(check bool) "seed derived through" true
    (Bottom_up.holds once (term "r(a, d)"))

let test_seed_already_present_netted () =
  let plain = Bottom_up.run (db_of chain) in
  (* both seeds are already facts of the parsed base *)
  let seeded =
    Bottom_up.run ~seed:[ term "e(a, b)"; term "e(b, c)" ] (db_of chain)
  in
  Alcotest.(check (list string)) "present seeds are no-ops" (facts_of plain)
    (facts_of seeded);
  Alcotest.(check int) "fact count unchanged" (Bottom_up.count plain)
    (Bottom_up.count seeded)

let test_seed_rejects_non_ground () =
  match Bottom_up.run ~seed:[ term "e(a, X)" ] (db_of chain) with
  | exception Bottom_up.Unsupported _ -> ()
  | _ -> Alcotest.fail "non-ground seed accepted"

(* ------------------------------------------------------------------ *)
(* parallel = sequential, differentially                               *)

(* The engine's own invariant: for every jobs value the derived fact
   set — and therefore facts/holds/count — is identical to the
   sequential engine's. Firing/pass counters may differ (jobs > 1 runs
   synchronous passes instead of cascading within a pass), so only the
   model is compared. *)
let drop_timings (s : Bottom_up.stats) =
  {
    s with
    Bottom_up.bu_strata_stats =
      List.map
        (fun st -> { st with Bottom_up.st_ms = 0.0 })
        s.Bottom_up.bu_strata_stats;
  }

let parallel_agrees ?(jobs_values = [ 2; 4 ]) db =
  let seq = Bottom_up.run db in
  List.for_all
    (fun jobs ->
      let par = Bottom_up.run ~config:(jobs_config jobs) db in
      let par2 = Bottom_up.run ~config:(jobs_config jobs) db in
      List.equal Term.equal (Bottom_up.facts seq) (Bottom_up.facts par)
      && (* same jobs value twice: bit-deterministic, every counter —
            only the stratum wall-clock readings may differ *)
      drop_timings (Bottom_up.stats par2) = drop_timings (Bottom_up.stats par))
    jobs_values

let test_parallel_fixed_programs () =
  List.iter
    (fun src ->
      Alcotest.(check bool) src true (parallel_agrees (db_of src)))
    [
      chain;
      "e(a, b). e(b, c). e(c, d). p(X, Y) :- e(X, Y). p(X, Y) :- e(X, Z), p(Z, Y).";
      "n(z). n(s(z)). n(s(s(z))). even(z). even(s(s(X))) :- even(X), n(X).";
      "f(a). g(b). h(X, Y) :- f(X), g(Y).";
      "p(1). p(2). q(X, Y) :- p(X), p(Y).";
    ];
  List.iter
    (fun src ->
      Alcotest.(check bool) src true (parallel_agrees (engine_db_of src)))
    [
      "q(a). q(b). m(a). p(X) :- q(X), \\+ m(X).";
      "v(a, 1). v(b, 4). big(X) :- v(X, N), N >= 3. small(X) :- v(X, N), \\+ big(X).";
      "q(1). q(5). q(a). p(X) :- q(X), X < 3.";
    ]

let test_parallel_stats () =
  let seq = Bottom_up.run (db_of chain) in
  let par = Bottom_up.run ~config:(jobs_config 2) (db_of chain) in
  Alcotest.(check int) "sequential reports 1 job" 1
    (Bottom_up.stats seq).Bottom_up.bu_jobs;
  Alcotest.(check int) "no work units sequentially" 0
    (Bottom_up.stats seq).Bottom_up.bu_par_units;
  Alcotest.(check int) "parallel reports its jobs" 2
    (Bottom_up.stats par).Bottom_up.bu_jobs;
  Alcotest.(check bool) "work units counted" true
    ((Bottom_up.stats par).Bottom_up.bu_par_units > 0)

(* jobs = 0 autodetects; whatever it picks must still agree *)
let test_parallel_autodetect () =
  let seq = Bottom_up.run (db_of chain) in
  let auto = Bottom_up.run ~config:(jobs_config 0) (db_of chain) in
  Alcotest.(check (list string)) "autodetected run agrees" (facts_of seq)
    (facts_of auto);
  Alcotest.(check bool) "resolved to a positive job count" true
    ((Bottom_up.stats auto).Bottom_up.bu_jobs >= 1)

(* The engine-props random program distributions, re-run as
   parallel-vs-sequential differentials (the cheap side of the original
   property: no SLD probing, just fact-set equality). *)
let prop_parallel_positive =
  QCheck.Test.make
    ~name:"parallel agrees with sequential on random positive programs"
    ~count:60
    (QCheck.make ~print:(fun s -> s) Suite_engine_props.gen_program)
    (fun src -> parallel_agrees (db_of src))

let prop_parallel_stratified =
  QCheck.Test.make
    ~name:
      "parallel agrees with sequential on random stratified programs with \
       negation and guards"
    ~count:250
    (QCheck.make ~print:(fun s -> s) Suite_engine_props.gen_stratified_program)
    (fun src -> parallel_agrees (engine_db_of src))

(* Incremental maintenance under a parallel fixpoint: after every step
   of a random update script, the maintained jobs=2 fixpoint must hold
   exactly what a sequential from-scratch run over the mutated database
   computes. Reuses the incremental suite's case generator (program +
   script) and mirrors its database-gating discipline. *)
let parallel_tracks_script (src, script) =
  let db = engine_db_of src in
  let fp = Bottom_up.run ~config:(jobs_config 2) db in
  List.for_all
    (fun (asserted, fact_src) ->
      let t = term fact_src in
      (if asserted then begin
         if Bottom_up.assert_fact fp t then Database.fact db t
       end
       else if Bottom_up.retract_fact fp t then
         Stdlib.ignore (Database.retract_fact db t));
      let fresh = Bottom_up.run db in
      List.equal Term.equal (Bottom_up.facts fp) (Bottom_up.facts fresh))
    script

let prop_parallel_incremental =
  QCheck.Test.make
    ~name:"parallel incremental maintenance tracks sequential from-scratch"
    ~count:150 Suite_incremental.arb_case parallel_tracks_script

(* Goal-directed evaluation: the magic-rewritten, seeded fixpoint run in
   parallel must answer every goal exactly as its sequential run does. *)
let answers fp goal =
  Bottom_up.probe fp goal
  |> List.filter (fun fact -> Unify.unify Subst.empty goal fact <> None)
  |> List.sort Term.compare

let magic_parallel_agrees (src, _script) =
  let db = engine_db_of src in
  List.for_all
    (fun goal_src ->
      let goal = term goal_src in
      let rewritten, info = Magic.rewrite ~goal db in
      let seq = Bottom_up.run ~seed:info.Magic.seeds rewritten in
      let par =
        Bottom_up.run ~config:(jobs_config 2) ~seed:info.Magic.seeds rewritten
      in
      List.equal Term.equal (answers seq goal) (answers par goal))
    Suite_incremental.magic_goals

let prop_parallel_magic =
  QCheck.Test.make
    ~name:"parallel magic-seeded fixpoints answer like sequential ones"
    ~count:120 Suite_incremental.arb_case magic_parallel_agrees

let tests =
  [
    Alcotest.test_case "pool runs every task" `Quick test_pool_runs_all_tasks;
    Alcotest.test_case "pool empty/single batches" `Quick
      test_pool_empty_and_single;
    Alcotest.test_case "pool propagates task failure" `Quick
      test_pool_propagates_failure;
    Alcotest.test_case "pool sizing and sharing" `Quick test_pool_sizing;
    Alcotest.test_case "seed: empty is a no-op" `Quick test_seed_empty;
    Alcotest.test_case "seed: duplicates netted" `Quick
      test_seed_duplicates_netted;
    Alcotest.test_case "seed: already-present netted" `Quick
      test_seed_already_present_netted;
    Alcotest.test_case "seed: non-ground rejected" `Quick
      test_seed_rejects_non_ground;
    Alcotest.test_case "parallel: fixed programs" `Quick
      test_parallel_fixed_programs;
    Alcotest.test_case "parallel: stats fields" `Quick test_parallel_stats;
    Alcotest.test_case "parallel: jobs=0 autodetect" `Quick
      test_parallel_autodetect;
    QCheck_alcotest.to_alcotest prop_parallel_positive;
    QCheck_alcotest.to_alcotest prop_parallel_stratified;
    QCheck_alcotest.to_alcotest prop_parallel_incremental;
    QCheck_alcotest.to_alcotest prop_parallel_magic;
  ]
