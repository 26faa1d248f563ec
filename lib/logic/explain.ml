type proof =
  | Fact of Term.t
  | Rule of { goal : Term.t; premises : proof list }
  | Builtin of Term.t
  | Naf of Term.t
  | Branch of { goal : Term.t; taken : proof }

type state = { opts : Solve.options; db : Database.t; ancestors : Term.t list }

(* The search mirrors Solve.solve_goal; see that module for the control
   semantics. Answers are (substitution, proof) pairs. *)
let rec prove_goal st depth subst (goal : Term.t) : (Subst.t * proof) Seq.t =
  let goal = Subst.walk subst goal in
  match goal with
  | Term.Var _ -> invalid_arg "Explain: unbound variable used as a goal"
  | Term.Int _ | Term.Float _ | Term.Str _ ->
      invalid_arg (Printf.sprintf "Explain: non-callable goal %s" (Term.to_string goal))
  | Term.Atom "true" -> Seq.return (subst, Builtin goal)
  | Term.Atom ("fail" | "false") -> Seq.empty
  | Term.App (",", [ a; b ]) ->
      prove_goal st depth subst a
      |> Seq.concat_map (fun (s, pa) ->
             prove_goal st depth s b
             |> Seq.map (fun (s', pb) ->
                    (s', Rule { goal; premises = [ pa; pb ] })))
  | Term.App (";", [ Term.App ("->", [ c; t ]); e ]) -> (
      match Seq.uncons (prove_goal st depth subst c) with
      | Some ((s, pc), _) ->
          prove_goal st depth s t
          |> Seq.map (fun (s', pt) ->
                 (s', Branch { goal; taken = Rule { goal; premises = [ pc; pt ] } }))
      | None ->
          prove_goal st depth subst e
          |> Seq.map (fun (s', pe) -> (s', Branch { goal; taken = pe })))
  | Term.App (";", [ a; b ]) ->
      Seq.append
        (fun () ->
          (prove_goal st depth subst a
          |> Seq.map (fun (s, p) -> (s, Branch { goal; taken = p })))
            ())
        (fun () ->
          (prove_goal st depth subst b
          |> Seq.map (fun (s, p) -> (s, Branch { goal; taken = p })))
            ())
  | Term.App ("->", [ c; t ]) -> (
      match Seq.uncons (prove_goal st depth subst c) with
      | Some ((s, pc), _) ->
          prove_goal st depth s t
          |> Seq.map (fun (s', pt) -> (s', Rule { goal; premises = [ pc; pt ] }))
      | None -> Seq.empty)
  | Term.App (("not" | "\\+"), [ g ]) -> (
      match Seq.uncons (prove_goal st depth subst g) with
      | Some _ -> Seq.empty
      | None -> Seq.return (subst, Naf (Subst.apply subst g)))
  | Term.App ("call", g :: extra) ->
      let g = Subst.walk subst g in
      let called =
        match (g, extra) with
        | _, [] -> g
        | Term.Atom f, _ -> Term.App (f, extra)
        | Term.App (f, args), _ -> Term.App (f, args @ extra)
        | _ -> invalid_arg "Explain: call/N on a non-callable term"
      in
      prove_goal st depth subst called
  | Term.Atom _ | Term.App _ -> prove_user st depth subst goal

and prove_user st depth subst goal =
  let fa = match Term.functor_of goal with Some fa -> fa | None -> assert false in
  match Database.find_builtin st.db fa with
  | Some builtin ->
      let ctx =
        {
          Database.db = st.db;
          prove =
            (fun s g -> prove_goal st depth s g |> Seq.map fst);
          depth;
        }
      in
      let args = match goal with Term.App (_, args) -> args | _ -> [] in
      builtin ctx subst args
      |> Seq.map (fun s -> (s, Builtin (Subst.apply s goal)))
  | None ->
      if depth <= 0 then
        match st.opts.Solve.on_depth with
        | `Raise ->
            raise
              (Solve.Depth_exhausted
                 {
                   depth = st.opts.Solve.max_depth;
                   goal = Subst.apply subst goal;
                 })
        | `Fail -> Seq.empty
      else if
        st.opts.Solve.loop_check
        &&
        let g = Subst.apply subst goal in
        List.exists (Term.variant g) st.ancestors
      then Seq.empty
      else begin
        let st' =
          if st.opts.Solve.loop_check then
            { st with ancestors = Subst.apply subst goal :: st.ancestors }
          else st
        in
        let candidates = Database.clauses st.db (Subst.apply subst goal) in
        let try_clause clause =
          let { Database.head; body } = Database.rename_clause clause in
          match
            Unify.unify ~occurs_check:st.opts.Solve.occurs_check subst goal head
          with
          | None -> Seq.empty
          | Some subst' ->
              let rec conj s acc = function
                | [] -> Seq.return (s, List.rev acc)
                | g :: rest ->
                    prove_goal st' (depth - 1) s g
                    |> Seq.concat_map (fun (s', p) -> conj s' (p :: acc) rest)
              in
              conj subst' [] body
              |> Seq.map (fun (s, premises) ->
                     let solved = Subst.apply s goal in
                     match premises with
                     | [] -> (s, Fact solved)
                     | _ -> (s, Rule { goal = solved; premises }))
        in
        Seq.concat_map try_clause (List.to_seq candidates)
      end

let prove ?(options = Solve.default_options) db goals =
  let st = { opts = options; db; ancestors = [] } in
  let rec conj s acc = function
    | [] -> Seq.return (s, List.rev acc)
    | g :: rest ->
        prove_goal st options.Solve.max_depth s g
        |> Seq.concat_map (fun (s', p) -> conj s' (p :: acc) rest)
  in
  conj Subst.empty [] goals

let first ?options db goals =
  match Seq.uncons (prove ?options db goals) with
  | Some (answer, _) -> Some answer
  | None -> None

let goal_of = function
  | Fact g | Builtin g | Naf g -> g
  | Rule { goal; _ } | Branch { goal; _ } -> goal

let rec size = function
  | Fact _ | Builtin _ | Naf _ -> 1
  | Rule { premises; _ } -> 1 + List.fold_left (fun acc p -> acc + size p) 0 premises
  | Branch { taken; _ } -> 1 + size taken

let rec depth = function
  | Fact _ | Builtin _ | Naf _ -> 1
  | Rule { premises; _ } ->
      1 + List.fold_left (fun acc p -> max acc (depth p)) 0 premises
  | Branch { taken; _ } -> 1 + depth taken

let to_dot ?(pp_goal = Term.pp) proof =
  let buf = Buffer.create 512 in
  let next = ref 0 in
  let escape s =
    String.concat ""
      (List.map
         (fun c ->
           match c with
           | '"' -> "\\\""
           | '\\' -> "\\\\"
           | '\n' -> "\\n"
           | c -> String.make 1 c)
         (List.init (String.length s) (String.get s)))
  in
  let node label attrs =
    let id = Printf.sprintf "n%d" !next in
    incr next;
    Buffer.add_string buf
      (Printf.sprintf "  %s [label=\"%s\"%s];\n" id (escape label) attrs);
    id
  in
  let goal_label p = Format.asprintf "%a" pp_goal (goal_of p) in
  let rec go p =
    match p with
    | Fact _ -> node (goal_label p) ", shape=box"
    | Builtin _ -> node (goal_label p) ", shape=diamond"
    | Naf g ->
        node
          (Format.asprintf "not provable:\n%a" pp_goal g)
          ", shape=box, style=dashed"
    | Rule { premises; _ } ->
        let id = node (goal_label p) "" in
        List.iter
          (fun premise ->
            let cid = go premise in
            Buffer.add_string buf (Printf.sprintf "  %s -> %s;\n" id cid))
          premises;
        id
    | Branch { taken; _ } -> go taken
  in
  Buffer.add_string buf "digraph proof {\n  node [fontname=\"monospace\"];\n";
  ignore (go proof);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let to_json ?(pp_goal = Term.pp) proof =
  let next = ref 0 in
  let nodes = Buffer.create 256 and edges = Buffer.create 256 in
  let n_edges = ref 0 in
  let emit_node kind label =
    let id = !next in
    incr next;
    if id > 0 then Buffer.add_char nodes ',';
    Buffer.add_string nodes
      (Printf.sprintf "\n    { \"id\": %d, \"kind\": \"%s\", \"label\": %s }"
         id kind (Gdp_obs.Export.json_string label));
    id
  in
  let emit_edge src dst =
    if !n_edges > 0 then Buffer.add_char edges ',';
    incr n_edges;
    Buffer.add_string edges
      (Printf.sprintf "\n    { \"from\": %d, \"to\": %d }" src dst)
  in
  let label g = Format.asprintf "%a" pp_goal g in
  (* Branch nodes collapse into the taken alternative, as in {!to_dot}:
     the graph records the derivation used, not the search. *)
  let rec go p =
    match p with
    | Fact g -> emit_node "fact" (label g)
    | Builtin g -> emit_node "builtin" (label g)
    | Naf g -> emit_node "naf" (label g)
    | Rule { goal; premises } ->
        let id = emit_node "rule" (label goal) in
        List.iter (fun premise -> emit_edge id (go premise)) premises;
        id
    | Branch { taken; _ } -> go taken
  in
  let root = go proof in
  Printf.sprintf "{\n  \"root\": %d,\n  \"nodes\": [%s\n  ],\n  \"edges\": [%s%s\n}\n"
    root (Buffer.contents nodes) (Buffer.contents edges)
    (if !n_edges = 0 then "]" else "\n  ]")

let pp ?(pp_goal = Term.pp) ppf proof =
  let rec go indent p =
    let pad = String.make (2 * indent) ' ' in
    match p with
    | Fact g -> Format.fprintf ppf "%s%a   [fact]@," pad pp_goal g
    | Builtin g -> Format.fprintf ppf "%s%a   [builtin]@," pad pp_goal g
    | Naf g -> Format.fprintf ppf "%snot provable: %a   [naf]@," pad pp_goal g
    | Rule { goal; premises } ->
        Format.fprintf ppf "%s%a   [rule]@," pad pp_goal goal;
        List.iter (go (indent + 1)) premises
    | Branch { goal = _; taken } -> go indent taken
  in
  Format.fprintf ppf "@[<v>";
  go 0 proof;
  Format.fprintf ppf "@]"
