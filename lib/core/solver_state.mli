(** Persistent cross-round solver state for the continuous optimization
    loop (paper §3.5: the Async Solver runs "continuously", each round
    seeing the previous region perturbed by a little churn).

    A [t] survives across {!Phases.run} / {!Async_solver.solve} rounds and
    caches the previous round's compiled model, optimal root basis and MIP
    incumbent.  The next round diffs its fresh formulation against the
    cache ({!Ras_mip.Incremental}), restarts the root LP from the mapped
    basis, and seeds branch-and-bound with the patched incumbent.  All
    mappings are advisory: the simplex validates the basis before trusting
    it and branch-and-bound checks (and repairs, and may reject) the seed,
    so a state object can never make a round {e wrong} — only faster or,
    at worst, equivalent to a cold solve.

    The state is single-solve-loop: share one [t] per loop, not across
    unrelated models. *)

type round_stats = {
  round : int;  (** 0-based index of the round these stats describe *)
  diff : Ras_mip.Incremental.stats option;
      (** delta sizes vs the previous round; [None] on the cold round 0 *)
  basis_rows_reused : int;
      (** rows whose basic column was carried over from the previous
          round's optimal basis (0 on a cold round) *)
  basis_rows_total : int;  (** rows in this round's model *)
  seed : Ras_mip.Branch_bound.seed_status;
      (** what became of the previous incumbent after patching: accepted
          as-is, feasible only after repair, or rejected *)
  root_pivots : int;  (** simplex pivots the root LP took this round *)
  cold_root_pivots : int;
      (** round-0 baseline root pivot count — the cold-start cost the warm
          restarts are measured against *)
  pivots_saved : int;
      (** [max 0 (cold_root_pivots - root_pivots)] for warm rounds; 0 on
          the cold round *)
}

val basis_reuse_rate : round_stats -> float
(** [basis_rows_reused / basis_rows_total] (0 when the model has no
    rows). *)

val pp_round : Format.formatter -> round_stats -> unit

(** {2 Price table}

    The tier-1 reactive layer's read-only view of the last tier-2 solve:
    root-LP shadow prices keyed by the stable row names.  Supply-row duals
    aggregate to (msb, hardware-subtype) scope — the granularity of
    {!Ras.Reactive}'s availability pools — as the max |dual| over the
    in_use/attr class variants; no other row is priced.  Prices are
    advisory: they only steer {e which} equivalent repair is picked, never
    whether a repair is valid. *)

type price_table = {
  price_round : int;  (** solve round the duals came from *)
  class_prices : (int, float) Hashtbl.t;
      (** [msb * Hardware.count + hw] -> max |supply-row dual|: the marginal
          value tier-2 put on one more server of that scope (0 = slack
          supply, cheap to take from) *)
}

val price_table :
  ?round:int -> row_names:string array -> duals:float array -> unit -> price_table
(** Parse a compiled model's row names against the root-LP duals
    ({!Phases.result.lp_duals} order).  Rows other than supply rows are
    skipped; mismatched array lengths truncate to the shorter. *)

val class_price : price_table -> msb:int -> hw:int -> float
(** 0 when the scope never appeared in a priced row. *)

type t

val create : unit -> t
(** An empty state: the first round through it is a cold solve that only
    populates the cache. *)

val round : t -> int
(** Number of rounds committed so far. *)

val last_round : t -> round_stats option
(** Stats of the most recently committed round. *)

val history : t -> round_stats list
(** All committed rounds, oldest first. *)

type warm = {
  wdiff : Ras_mip.Incremental.stats;
  wbasis : Ras_mip.Simplex.warm_basis option;
      (** previous optimal root basis mapped onto the new model; [None]
          when the cached basis did not structurally match *)
  wrows_reused : int;  (** rows of [wbasis] carried over (see above) *)
  wseed : float array option;
      (** previous incumbent patched into the new variable space; unchecked
          — callers must validate/repair before trusting it *)
}

val prepare : t -> next:Ras_mip.Model.std -> warm option
(** Diffs the cached previous model against [next] and maps the cached
    basis and incumbent across.  [None] when nothing is cached yet (cold
    round).  Does not mutate the state; {!commit} does. *)

val commit :
  t ->
  std:Ras_mip.Model.std ->
  basis:Ras_mip.Simplex.warm_basis option ->
  incumbent:float array option ->
  diff:Ras_mip.Incremental.stats option ->
  rows_reused:int ->
  seed:Ras_mip.Branch_bound.seed_status ->
  root_pivots:int ->
  unit ->
  unit
(** Ends a round: caches [std]/[basis]/[incumbent] for the next one and
    records the round's stats.  Round 0's [root_pivots] becomes the cold
    baseline for [pivots_saved].  A [None] basis leaves the previous cached
    basis unusable (the next round starts its LP cold but still diffs and
    seeds). *)
