(** Mixed-integer-program modeling layer.

    A model owns variables (continuous or integer, with bounds), linear
    constraints and a linear objective.  It compiles to the dense-bound /
    sparse-column standard form consumed by {!Simplex} and {!Branch_bound}.

    Convenience builders are provided for the two linearizations the RAS
    formulation relies on: [add_pos_part] for [max(0, e)] objective terms and
    [add_max_over] for [max_G (e_G)] terms. *)

type t

type var = int
(** Variable handle: the index assigned by {!add_var}, also the index into
    solution arrays. *)

type kind = Continuous | Integer

type sense = Le | Ge | Eq

val create : unit -> t

val add_var :
  ?name:string -> ?lb:float -> ?ub:float -> ?kind:kind -> t -> var
(** New variable.  Defaults: [lb = 0.], [ub = infinity], [Continuous].
    Raises [Invalid_argument] if [lb > ub]. *)

val add_constraint : ?name:string -> t -> Lin_expr.t -> sense -> float -> int
(** [add_constraint t e sense rhs] adds the row [e sense rhs].  The
    expression's constant is folded into the right-hand side.  Returns the
    row index. *)

val set_objective : t -> Lin_expr.t -> unit
(** Sets the (minimization) objective.  The expression's constant becomes a
    fixed objective offset.  Replaces any previous objective. *)

val add_to_objective : t -> Lin_expr.t -> unit
(** Adds the expression to the current objective. *)

val add_pos_part : ?name:string -> t -> weight:float -> Lin_expr.t -> var
(** [add_pos_part t ~weight e] adds [weight * max(0, e)] to the objective by
    introducing an auxiliary continuous variable [y >= e, y >= 0] with
    objective coefficient [weight].  Correct for [weight >= 0] (raises
    [Invalid_argument] otherwise).  Returns the auxiliary variable. *)

val add_max_over : ?name:string -> t -> weight:float -> Lin_expr.t list -> var
(** [add_max_over t ~weight es] adds [weight * max_i e_i] to the objective
    via an auxiliary variable [z >= e_i] for each [i], with objective
    coefficient [weight >= 0].  The auxiliary variable is also usable in
    further constraints (RAS couples the correlated-failure buffer size into
    the capacity constraint this way).  Returns the auxiliary variable. *)

val num_vars : t -> int
val var_bounds : t -> var -> float * float
val objective : t -> Lin_expr.t

(** Compiled standard form: minimize [obj . x] subject to sparse rows
    [row sense rhs] and variable bounds.  Produced once; solvers treat it as
    immutable and keep per-node bound copies themselves. *)
type std = {
  nvars : int;
  nrows : int;
  obj : float array;  (** per-variable objective coefficient *)
  obj_offset : float;
  lb : float array;
  ub : float array;
  integer : bool array;
  row_sense : sense array;
  rhs : float array;
  col_ptr : int array;
      (** packed CSC column pointers, length [nvars + 1]: column [j]'s
          nonzeros are [col_ind]/[col_val] slots [col_ptr.(j)] to
          [col_ptr.(j+1) - 1] (row indices sorted ascending) *)
  col_ind : int array;  (** packed CSC row indices *)
  col_val : float array;  (** packed CSC coefficients *)
  row_cols : int array array;  (** per-row column indices (sorted) *)
  row_coefs : float array array;
  var_names : string array;
  row_names : string array;
}

val compile : t -> std
(** Validates variable indices in all rows and the objective, merges
    duplicate coefficients, and builds both row- and column-major sparse
    views. *)

val objective_value : std -> float array -> float
(** [obj_offset] plus [obj.(j) *. x.(j)] summed in ascending [j] over the
    structural variables; [x] may be longer (trailing slacks are
    ignored). *)

val check_solution : ?tol:float -> std -> float array -> (unit, string) result
(** Verifies bounds, integrality and every row within tolerance (default
    [1e-6]); the error string names the first violated item.  Used by tests
    and by the solver's internal assertions. *)

val pp_stats : Format.formatter -> std -> unit
(** One-line size summary: variables (integer count), rows, non-zeros. *)
