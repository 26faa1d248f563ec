type clause = { head : Term.t; body : Term.t list }

(* First-argument index key: the principal functor (or constant) of a
   clause-head's first argument. [Any] marks heads whose first argument is a
   variable — such clauses match every goal. *)
type key =
  | Any
  | Katom of string
  | Kint of int
  | Kfloat of float
  | Kstr of string
  | Kapp of string * int

type indexed = { clause : clause; keys : key list; seq : int }
(* [seq] orders clauses: larger = asserted later (assertz); asserta uses
   decreasing negative sequence numbers so it sorts before everything. *)

type pred = {
  mutable entries : indexed list; (* newest first, i.e. descending seq *)
  mutable count : int;
  mutable next_seq : int;
  mutable min_seq : int;
  mutable index_positions : int list;
      (* 0-based argument positions forming the composite index key *)
  buckets : (key, indexed list ref) Hashtbl.t;
      (* first key component -> entries (descending seq); variable-keyed
         clauses live under [Any] and are merged into every lookup *)
}

module Sm = Map.Make (struct
  type t = string * int

  let compare (a, m) (b, n) =
    let c = String.compare a b in
    if c <> 0 then c else Int.compare m n
end)

type t = {
  mutable preds : pred Sm.t;
  mutable builtins : builtin Sm.t;
}

and ctx = { db : t; prove : Subst.t -> Term.t -> Subst.t Seq.t; depth : int }
and builtin = ctx -> Subst.t -> Term.t list -> Subst.t Seq.t

let create () = { preds = Sm.empty; builtins = Sm.empty }

let copy db =
  {
    preds =
      Sm.map
        (fun p ->
          {
            entries = p.entries;
            count = p.count;
            next_seq = p.next_seq;
            min_seq = p.min_seq;
            index_positions = p.index_positions;
            buckets =
              (let tbl = Hashtbl.create (Hashtbl.length p.buckets) in
               Hashtbl.iter (fun k l -> Hashtbl.add tbl k (ref !l)) p.buckets;
               tbl);
          })
        db.preds;
    builtins = db.builtins;
  }

let key_of_term (t : Term.t) =
  match t with
  | Term.Var _ -> Any
  | Term.Atom s -> Katom s
  | Term.Int n -> Kint n
  | Term.Float f -> Kfloat f
  | Term.Str s -> Kstr s
  | Term.App (f, args) -> Kapp (f, List.length args)

(* A key component taken from a list-valued argument discriminates by the
   list's first element: the GDP encoding stores object designators in a
   list, and queries are most often keyed by the first object. *)
let component_key (t : Term.t) =
  match t with
  | Term.App ("cons", [ h; _ ]) -> key_of_term h
  | _ -> key_of_term t

let keys_of_head ~index_positions (h : Term.t) =
  match h with
  | Term.App (_, args) ->
      List.map
        (fun pos ->
          match List.nth_opt args pos with
          | Some t -> component_key t
          | None -> Any)
        index_positions
  | _ -> List.map (fun _ -> Any) index_positions

let head_functor c =
  match Term.functor_of c.head with
  | Some fa -> fa
  | None -> invalid_arg "Database: clause head must be an atom or compound term"

let check_not_builtin db fa =
  if Sm.mem fa db.builtins then
    invalid_arg
      (Printf.sprintf "Database: %s/%d is a built-in predicate" (fst fa) (snd fa))

let get_pred db fa =
  match Sm.find_opt fa db.preds with
  | Some p -> p
  | None ->
      let p =
        {
          entries = [];
          count = 0;
          next_seq = 0;
          min_seq = -1;
          index_positions = [ 0 ];
          buckets = Hashtbl.create 16;
        }
      in
      db.preds <- Sm.add fa p db.preds;
      p

let first_key e = match e.keys with k :: _ -> k | [] -> Any

let bucket_of p k =
  match Hashtbl.find_opt p.buckets k with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.add p.buckets k l;
      l

let bucket_insert p e =
  let l = bucket_of p (first_key e) in
  (* keep descending seq; inserts are at an extreme end *)
  match !l with
  | top :: _ when e.seq < top.seq ->
      (* asserta case: append at the oldest end *)
      l := !l @ [ e ]
  | _ -> l := e :: !l

let bucket_remove p e =
  let l = bucket_of p (first_key e) in
  l := List.filter (fun x -> x.seq <> e.seq) !l

let rebuild_buckets p =
  Hashtbl.reset p.buckets;
  List.iter
    (fun e ->
      let l = bucket_of p (first_key e) in
      l := !l @ [ e ])
    p.entries

let set_index_args db fa positions =
  if positions = [] then invalid_arg "Database.set_index_args: empty position list";
  List.iter
    (fun pos ->
      if pos < 0 || pos >= snd fa then
        invalid_arg "Database.set_index_args: position outside the predicate's arity")
    positions;
  let p = get_pred db fa in
  p.index_positions <- positions;
  p.entries <-
    List.map
      (fun e -> { e with keys = keys_of_head ~index_positions:positions e.clause.head })
      p.entries;
  rebuild_buckets p

let set_index_arg db fa pos = set_index_args db fa [ pos ]

let assertz db c =
  let fa = head_functor c in
  check_not_builtin db fa;
  let p = get_pred db fa in
  let e =
    {
      clause = c;
      keys = keys_of_head ~index_positions:p.index_positions c.head;
      seq = p.next_seq;
    }
  in
  p.next_seq <- p.next_seq + 1;
  p.entries <- e :: p.entries;
  bucket_insert p e;
  p.count <- p.count + 1

let asserta db c =
  let fa = head_functor c in
  check_not_builtin db fa;
  let p = get_pred db fa in
  let e =
    {
      clause = c;
      keys = keys_of_head ~index_positions:p.index_positions c.head;
      seq = p.min_seq;
    }
  in
  p.min_seq <- p.min_seq - 1;
  p.entries <- p.entries @ [ e ];
  bucket_insert p e;
  p.count <- p.count + 1

(* Structural equality of clauses up to consistent variable renaming. *)
let variant_clause c1 c2 =
  let map = Hashtbl.create 8 in
  let rmap = Hashtbl.create 8 in
  let rec go (a : Term.t) (b : Term.t) =
    match (a, b) with
    | Term.Var v, Term.Var w -> (
        match (Hashtbl.find_opt map v.Term.id, Hashtbl.find_opt rmap w.Term.id) with
        | Some w', Some v' -> w' = w.Term.id && v' = v.Term.id
        | None, None ->
            Hashtbl.add map v.Term.id w.Term.id;
            Hashtbl.add rmap w.Term.id v.Term.id;
            true
        | _ -> false)
    | Term.Atom x, Term.Atom y -> String.equal x y
    | Term.Int x, Term.Int y -> x = y
    | Term.Float x, Term.Float y -> x = y
    | Term.Str x, Term.Str y -> String.equal x y
    | Term.App (f, xs), Term.App (g, ys) ->
        String.equal f g && List.length xs = List.length ys && List.for_all2 go xs ys
    | (Term.Var _ | Term.Atom _ | Term.Int _ | Term.Float _ | Term.Str _ | Term.App _), _
      -> false
  in
  go c1.head c2.head
  && List.length c1.body = List.length c2.body
  && List.for_all2 go c1.body c2.body

let retract db c =
  let fa = head_functor c in
  match Sm.find_opt fa db.preds with
  | None -> false
  | Some p -> (
      (* entries are stored newest-first; the first match in clause order
         is therefore the LAST matching entry of the list. One
         tail-recursive pass finds it and keeps the pieces needed to
         splice it out without re-traversing. *)
      let rec scan acc found = function
        | [] -> found
        | e :: rest ->
            let found =
              if variant_clause e.clause c then Some (e, acc, rest) else found
            in
            scan (e :: acc) found rest
      in
      match scan [] None p.entries with
      | None -> false
      | Some (e, rev_prefix, rest) ->
          bucket_remove p e;
          p.entries <- List.rev_append rev_prefix rest;
          p.count <- p.count - 1;
          true)

let retract_all db fa = db.preds <- Sm.remove fa db.preds
let fact db h = assertz db { head = h; body = [] }
let retract_fact db h = retract db { head = h; body = [] }

let has_fact db h =
  match Term.functor_of h with
  | None -> false
  | Some fa -> (
      match Sm.find_opt fa db.preds with
      | None -> false
      | Some p ->
          List.exists
            (fun e ->
              e.clause.body = [] && variant_clause e.clause { head = h; body = [] })
            p.entries)

let compatible gk ck =
  match (gk, ck) with
  | Any, _ | _, Any -> true
  | Katom a, Katom b -> String.equal a b
  | Kint a, Kint b -> a = b
  | Kfloat a, Kfloat b -> a = b
  | Kstr a, Kstr b -> String.equal a b
  | Kapp (f, n), Kapp (g, m) -> String.equal f g && n = m
  | (Katom _ | Kint _ | Kfloat _ | Kstr _ | Kapp _), _ -> false

(* merge two descending-seq entry lists into one descending-seq list;
   tail-recursive so a large bucket cannot overflow the stack *)
let merge_desc a b =
  let rec go acc a b =
    match (a, b) with
    | [], l | l, [] -> List.rev_append acc l
    | x :: xs, y :: ys ->
        if x.seq > y.seq then go (x :: acc) xs b else go (y :: acc) a ys
  in
  go [] a b

let clauses db goal =
  match Term.functor_of goal with
  | None -> invalid_arg "Database.clauses: goal has no functor"
  | Some fa -> (
      match Sm.find_opt fa db.preds with
      | None -> []
      | Some p ->
          let gks = keys_of_head ~index_positions:p.index_positions goal in
          let candidates =
            match gks with
            | (Katom _ | Kint _ | Kfloat _ | Kstr _ | Kapp _) as gk :: _ ->
                (* keyed lookup: the matching bucket plus the variable-keyed
                   clauses, merged back into assertion order *)
                let keyed =
                  match Hashtbl.find_opt p.buckets gk with
                  | Some l -> !l
                  | None -> []
                and anys =
                  match Hashtbl.find_opt p.buckets Any with
                  | Some l -> !l
                  | None -> []
                in
                merge_desc keyed anys
            | _ -> p.entries
          in
          List.fold_left
            (fun acc e ->
              if List.for_all2 compatible gks e.keys then e.clause :: acc else acc)
            [] candidates)

let all_clauses db fa =
  match Sm.find_opt fa db.preds with
  | None -> []
  | Some p -> List.rev_map (fun e -> e.clause) p.entries

let predicates db = Sm.bindings db.preds |> List.map fst

(* entry lists are persistent — assert and retract replace them, never
   mutate them — so holding the current lists is a snapshot *)
let freeze db =
  let entries = Sm.map (fun p -> p.entries) db.preds in
  fun () ->
    Sm.fold (fun _ es acc -> List.rev_map (fun e -> e.clause) es :: acc) entries []
    |> List.rev

let register_builtin db fa fn =
  if Sm.mem fa db.preds then
    invalid_arg
      (Printf.sprintf "Database: %s/%d already has clauses" (fst fa) (snd fa));
  db.builtins <- Sm.add fa fn db.builtins

let find_builtin db fa = Sm.find_opt fa db.builtins

(* a ground unit clause has no variable to rename: resolution may use it
   as it is, which spares a copy of every candidate fact *)
let rename_clause c =
  if c.body = [] && Term.is_ground c.head then c
  else begin
    let tbl : (int, Term.var) Hashtbl.t = Hashtbl.create 8 in
    let lookup id = Hashtbl.find_opt tbl id in
    let fresh (v : Term.var) =
      let w = Term.var_with_id v.Term.name (Term.fresh_id ()) in
      Hashtbl.add tbl v.Term.id w;
      Term.Var w
    in
    {
      head = Term.rename lookup fresh c.head;
      body = List.map (Term.rename lookup fresh) c.body;
    }
  end

let size db = Sm.fold (fun _ p acc -> acc + p.count) db.preds 0

let pp_clause ppf c =
  match c.body with
  | [] -> Format.fprintf ppf "%a." Term.pp c.head
  | body ->
      Format.fprintf ppf "%a :-@ @[%a@]." Term.pp c.head
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
           Term.pp)
        body

let pp ppf db =
  Sm.iter
    (fun (name, arity) p ->
      Format.fprintf ppf "%% %s/%d@." name arity;
      List.iter (fun e -> Format.fprintf ppf "%a@." pp_clause e.clause) (List.rev p.entries))
    db.preds
