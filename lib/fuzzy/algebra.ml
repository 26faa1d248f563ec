type family = Min_max | Product | Lukasiewicz

let neg a = Truth.v (1.0 -. Truth.to_float a)

let conj family a b =
  let x = Truth.to_float a and y = Truth.to_float b in
  Truth.v
    (match family with
    | Min_max -> Float.min x y
    | Product -> x *. y
    | Lukasiewicz -> Float.max 0.0 (x +. y -. 1.0))

let disj family a b =
  let x = Truth.to_float a and y = Truth.to_float b in
  Truth.v
    (match family with
    | Min_max -> Float.max x y
    | Product -> x +. y -. (x *. y)
    | Lukasiewicz -> Float.min 1.0 (x +. y))

let implies family a b = disj family (neg a) b

let forall family = List.fold_left (conj family) Truth.absolutely_true
let exists family = List.fold_left (disj family) Truth.absolutely_false

let truth_table_consistent family =
  let t = Truth.absolutely_true and f = Truth.absolutely_false in
  let cases = [ (t, t); (t, f); (f, t); (f, f) ] in
  List.for_all
    (fun (a, b) ->
      let ba = Truth.to_float a = 1.0 and bb = Truth.to_float b = 1.0 in
      Truth.to_float (conj family a b) = Truth.to_float (Truth.of_bool (ba && bb))
      && Truth.to_float (disj family a b) = Truth.to_float (Truth.of_bool (ba || bb)))
    cases
  && Truth.to_float (neg t) = 0.0
  && Truth.to_float (neg f) = 1.0

let family_to_string = function
  | Min_max -> "min-max"
  | Product -> "product"
  | Lukasiewicz -> "lukasiewicz"

let pp_family ppf f = Format.pp_print_string ppf (family_to_string f)

let family_of_string = function
  | "min-max" | "min_max" | "minmax" | "godel" -> Some Min_max
  | "product" -> Some Product
  | "lukasiewicz" -> Some Lukasiewicz
  | _ -> None
