let buf_add_json_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  buf_add_json_string buf s;
  Buffer.contents buf

let buf_add_arg buf = function
  | Tracer.Int n -> Buffer.add_string buf (string_of_int n)
  | Tracer.Float f -> Buffer.add_string buf (Printf.sprintf "%.6g" f)
  | Tracer.Str s -> buf_add_json_string buf s

let buf_add_args buf args =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      buf_add_json_string buf k;
      Buffer.add_char buf ':';
      buf_add_arg buf v)
    args;
  Buffer.add_char buf '}'

(* trace-event timestamps are microseconds *)
let us ns = Int64.to_float ns /. 1e3

let chrome_trace ?(pid = 1) t =
  let buf = Buffer.create 4096 in
  let evs = Tracer.events t in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_string buf ",\n";
      match ev with
      | Tracer.Span s ->
          Buffer.add_string buf "{\"name\":";
          buf_add_json_string buf s.Tracer.name;
          Buffer.add_string buf ",\"cat\":";
          buf_add_json_string buf s.Tracer.cat;
          Buffer.add_string buf
            (Printf.sprintf ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":1"
               (us s.Tracer.start_ns) (us s.Tracer.dur_ns) pid);
          if s.Tracer.args <> [] then begin
            Buffer.add_string buf ",\"args\":";
            buf_add_args buf s.Tracer.args
          end;
          Buffer.add_char buf '}'
      | Tracer.Instant { name; cat; ts_ns; args } ->
          Buffer.add_string buf "{\"name\":";
          buf_add_json_string buf name;
          Buffer.add_string buf ",\"cat\":";
          buf_add_json_string buf cat;
          Buffer.add_string buf
            (Printf.sprintf
               ",\"ph\":\"i\",\"ts\":%.3f,\"pid\":%d,\"tid\":1,\"s\":\"t\"" (us ts_ns)
               pid);
          if args <> [] then begin
            Buffer.add_string buf ",\"args\":";
            buf_add_args buf args
          end;
          Buffer.add_char buf '}'
      | Tracer.Sample { name; ts_ns; value } ->
          Buffer.add_string buf "{\"name\":";
          buf_add_json_string buf name;
          Buffer.add_string buf
            (Printf.sprintf
               ",\"ph\":\"C\",\"ts\":%.3f,\"pid\":%d,\"tid\":1,\"args\":{\"value\":%.6g}}"
               (us ts_ns) pid value))
    evs;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

let write_chrome_trace ?pid t path =
  let n = List.length (Tracer.events t) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (chrome_trace ?pid t));
  n

(* ------------------------------------------------------------------ *)
(* profile tree: spans aggregated by call path                         *)

type node = {
  n_name : string;
  mutable n_count : int;
  mutable n_total : int64;
  mutable n_children : node list;  (* reverse first-entered order *)
}

let new_node name = { n_name = name; n_count = 0; n_total = 0L; n_children = [] }

let child_of node name =
  match
    List.find_opt (fun c -> String.equal c.n_name name) node.n_children
  with
  | Some c -> c
  | None ->
      let c = new_node name in
      node.n_children <- c :: node.n_children;
      c

let build_tree t =
  let spans =
    Tracer.spans t
    |> List.sort (fun (a : Tracer.span) (b : Tracer.span) ->
           match Int64.compare a.Tracer.start_ns b.Tracer.start_ns with
           | 0 -> Int.compare a.Tracer.id b.Tracer.id
           | c -> c)
  in
  let by_id = Hashtbl.create 256 in
  List.iter (fun (s : Tracer.span) -> Hashtbl.add by_id s.Tracer.id s) spans;
  let root = new_node "" in
  let memo = Hashtbl.create 256 in
  let rec node_of (s : Tracer.span) =
    match Hashtbl.find_opt memo s.Tracer.id with
    | Some n -> n
    | None ->
        let parent =
          match Hashtbl.find_opt by_id s.Tracer.parent with
          | Some p -> node_of p
          | None -> root
        in
        let n = child_of parent s.Tracer.name in
        Hashtbl.add memo s.Tracer.id n;
        n
  in
  List.iter
    (fun (s : Tracer.span) ->
      let n = node_of s in
      n.n_count <- n.n_count + 1;
      n.n_total <- Int64.add n.n_total s.Tracer.dur_ns)
    spans;
  root

let ms ns = Printf.sprintf "%.2fms" (Int64.to_float ns /. 1e6)

let pp_profile ppf t =
  let root = build_tree t in
  Format.fprintf ppf "@[<v>%10s %10s %7s  %s@," "total" "self" "count" "name";
  let rec go depth node =
    let children = List.rev node.n_children in
    let child_total =
      List.fold_left (fun acc c -> Int64.add acc c.n_total) 0L children
    in
    if depth >= 0 then begin
      let self = Int64.max 0L (Int64.sub node.n_total child_total) in
      Format.fprintf ppf "%10s %10s %7d  %s%s@," (ms node.n_total) (ms self)
        node.n_count
        (String.make (2 * depth) ' ')
        node.n_name
    end;
    List.iter (go (depth + 1)) children
  in
  go (-1) root;
  (match Tracer.counters t with
  | [] -> ()
  | cs ->
      Format.fprintf ppf "counters:@,";
      List.iter
        (fun (name, v) -> Format.fprintf ppf "  %-28s %.6g@," name v)
        cs);
  Format.fprintf ppf "@]"

let profile_to_string t = Format.asprintf "%a" pp_profile t
