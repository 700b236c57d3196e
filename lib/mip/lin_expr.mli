(** Linear expressions over integer-indexed decision variables.

    An expression is [sum_i (coef_i * var_i) + constant].  Variables are the
    opaque indices handed out by {!Model.add_var}; this module never checks
    that an index is valid — {!Model} does that when the expression is used. *)

type t

val zero : t

val constant : float -> t

val term : float -> int -> t
(** [term c v] is the single-term expression [c * v]. *)

val var : int -> t
(** [var v] is [term 1.0 v]. *)

val of_terms : ?constant:float -> (float * int) list -> t
(** Build from a coefficient/variable list; duplicate variables are summed. *)

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val get_constant : t -> float

val coef : t -> int -> float
(** Coefficient of a variable (0 when absent). *)

val terms : t -> (float * int) list
(** Combined terms with non-zero coefficients, in increasing variable order. *)

val num_terms : t -> int

val eval : t -> (int -> float) -> float
(** [eval e value_of] substitutes variable values. *)

val pp : Format.formatter -> t -> unit
