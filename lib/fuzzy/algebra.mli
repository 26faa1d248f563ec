(** Families of fuzzy connectives.

    The paper's default is the min–max rule (§VII-A) and notes it "is not
    the only rule that may be used in fuzzy logic"; alternate t-norm /
    t-conorm pairs are provided so a meta-model can swap the rules of
    accuracy reasoning without touching the rest of a formalization. *)

type family =
  | Min_max  (** Gödel: a∧b = min, a∨b = max — the paper's table *)
  | Product  (** a∧b = ab, a∨b = a+b−ab *)
  | Lukasiewicz  (** a∧b = max(0, a+b−1), a∨b = min(1, a+b) *)

val neg : Truth.t -> Truth.t
(** 1 − a, shared by all three families. *)

val conj : family -> Truth.t -> Truth.t -> Truth.t
val disj : family -> Truth.t -> Truth.t -> Truth.t

val implies : family -> Truth.t -> Truth.t -> Truth.t
(** The S-implication [disj family (neg a) b]; for [Min_max] this is the
    Kleene–Dienes [max(1−a, b)] used in the paper's AC rule for bounded
    universal quantification (§VII-F). *)

val forall : family -> Truth.t list -> Truth.t
(** Infimum under the family's conjunction: the truth of [(∀X) F(X)] over
    the (finite) instance list; the empty list is absolutely true. *)

val exists : family -> Truth.t list -> Truth.t
(** Supremum counterpart; the empty list is absolutely false. *)

val truth_table_consistent : family -> bool
(** Sanity check used by tests: on classical inputs {0, 1} the family
    agrees with two-valued logic (the paper's compatibility remark). *)

val pp_family : Format.formatter -> family -> unit

val family_to_string : family -> string
(** The canonical name: ["min-max"], ["product"] or ["lukasiewicz"].
    [family_of_string (family_to_string f) = Some f] for every family. *)

val family_of_string : string -> family option
(** Parses the canonical names and the aliases ["min_max"], ["minmax"]
    and ["godel"] for [Min_max]. *)
