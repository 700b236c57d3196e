(** Cross-round incremental re-solve kernel.

    RAS's allocation is {e continuously} optimized: each solver round sees
    nearly the same region as the last one, perturbed by a handful of
    failures, recoveries and capacity deltas.  This module turns that
    continuity into solver work saved.  Given the previous round's compiled
    {!Model.std} and the new round's, it matches variables and rows by
    their stable names (so index churn from entities appearing or
    disappearing produces minimal diffs), counts what changed ({!stats}),
    and from the matching derives:

    - a mapped warm basis ({!map_basis}): surviving basic columns stay
      basic in their surviving rows, new columns enter nonbasic at a bound,
      and rows whose basic column departed are repaired with their own
      slack — always a structurally valid basis, so the worst case is a
      slower (never wrong) restart;
    - a patched incumbent ({!map_solution}) to seed branch-and-bound.

    Callers re-optimize the mapped basis with the existing simplex phases:
    rhs/bound deltas leave it dual feasible (the dual-simplex phase
    finishes in a few pivots), objective deltas leave it primal feasible
    (the primal phase finishes from a near-optimal vertex). *)

type stats = {
  vars_added : int;
  vars_removed : int;
  rows_added : int;
  rows_removed : int;
  bounds_changed : int;  (** surviving variables whose lb/ub moved *)
  obj_changed : int;  (** surviving variables whose objective coefficient moved *)
  rhs_changed : int;  (** surviving rows whose rhs or sense moved *)
  coefs_changed : int;  (** surviving rows whose coefficient content moved *)
  structure_identical : bool;
      (** no additions/removals and both index orders coincide: the models
          share one variable/row index space (values may still differ) *)
}

val total_changes : stats -> int
(** Sum of all change counters — 0 means the two models are identical. *)

val pp_stats : Format.formatter -> stats -> unit

type t
(** A diff from a [prev] model to a [next] model, keyed by variable and row
    names.  Entities with equal names are matched (duplicate names within
    one model are disambiguated by occurrence order); everything else is an
    addition or removal.  It holds the matching both ways, the {!stats}
    counters and [next]'s variable bounds (shared, not copied) — not a
    patch: [next] itself is the only copy of the new model. *)

val diff : prev:Model.std -> next:Model.std -> t

val stats : t -> stats

val map_basis :
  t -> prev_basis:Simplex.warm_basis -> (Simplex.warm_basis * int) option
(** Maps a warm basis of [prev] onto [next]'s column space.  Returns the
    mapped basis and the number of rows whose basic column was carried over
    (the basis-reuse count; the remainder were repaired with their row's
    slack).  [None] when the snapshot does not structurally match [prev]
    (wrong dimensions) — the caller falls back to a cold start.  The
    re-indexing is {!Simplex.remap_basis} over the name matching.

    The basis factorization is carried only when the diff leaves the basis
    matrix untouched ([structure_identical] and no coefficient changes);
    otherwise it is dropped and the restart refactorizes.  Devex weights
    are never carried across rounds. *)

val map_solution : t -> float array -> float array
(** Patches a [prev] solution vector into [next]'s variable space: surviving
    variables keep their value clamped into the new bounds, new variables
    start at the bound closest to zero.  The result is a {e seed} — it may
    violate constraints after churn and must go through repair /
    {!Model.check_solution} before being trusted. *)
