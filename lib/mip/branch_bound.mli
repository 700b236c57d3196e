(** Branch-and-bound mixed-integer solver over the {!Simplex} LP relaxation.

    Nodes carry their own bound arrays; best-bound (best-first) node
    selection; branching on the most fractional integer variable; a
    nearest-integer rounding heuristic probes for incumbents.  The solver
    honours wall-clock and node limits and reports the remaining optimality
    gap — RAS deliberately runs its solver with a timeout and reasons about
    the gap (paper §4.1.2, Fig. 9), so the gap is a first-class output.

    Every non-root node's LP is warm-started from its parent's optimal
    basis (see {!Simplex.warm_basis}): because a bound tightening leaves the
    parent-optimal basis dual feasible, the child typically re-optimizes in
    a handful of dual-simplex pivots instead of a full cold two-phase solve.
    Nodes store basis snapshots without the factorization; a one-entry cache
    keeps the most recent parent's factors so plunged children restart for
    free, while heap revisits re-factorize. *)

type status =
  | Optimal  (** proven optimal within tolerances *)
  | Feasible  (** stopped at a limit with an incumbent *)
  | Infeasible
  | Unbounded
  | Unknown  (** stopped at a limit with no incumbent *)

type options = {
  time_limit : float;  (** seconds of wall clock; [infinity] disables *)
  node_limit : int;
      (** [<= 0] processes no node: the root stays open, so [best_bound]
          is [neg_infinity] and the status is [Feasible] (seeded) or
          [Unknown] *)
  gap_abs : float;  (** stop when [incumbent - best_bound <= gap_abs] *)
  gap_rel : float;  (** or [<= gap_rel * max 1 |incumbent|] *)
  stall_node_limit : int;
      (** stop once the incumbent has not improved for this many
          consecutive nodes (0 disables).  The soft-penalty allocation
          MIPs carry a structural integrality gap the bound cannot close,
          so gap-based stopping never fires; stalling is the stopping rule
          the continuous loop uses — a near-optimal cross-round seed makes
          the re-solve terminate after a handful of nodes *)
  initial : float array option;
      (** a known (possibly stale) solution to seed the incumbent.  The
          seed is checked with {!Model.check_solution}; an invalid one —
          e.g. last round's incumbent after churn — gets one bounded
          repair attempt (clamp into root bounds, round integers) and is
          otherwise rejected.  The outcome's [seed] field reports which
          happened; a stale seed never raises. *)
  root_basis : Simplex.warm_basis option;
      (** warm basis for the {e root} node's LP, over the model passed to
          {!solve} — typically the optimal basis of a relaxation the
          caller already solved (the phase-1 root LP, or last round's root
          via {!Incremental.map_basis}).  It is projected onto the
          presolved model with {!Simplex.remap_basis} (variables keep
          their index, slacks follow the surviving rows); its
          factorization is never carried, so the root refactorizes.  A
          basis of another variable count is dropped.  Advisory: the
          simplex validates it and falls back to a cold root solve on any
          mismatch.  Child nodes are unaffected (they warm-start from
          their parent as controlled by [warm_start]). *)
  warm_start : bool;
      (** restart child LPs from the parent's optimal basis; disable to get
          the cold-start behaviour (equivalence testing, benchmarking) *)
  lp_pricing : Simplex.pricing;
      (** entering-variable rule for every node LP, forwarded to
          {!Simplex.solve}'s [pricing] *)
  lp_backend : Basis.kind;
      (** basis representation for every node LP ({!Basis.Lu} by default;
          {!Basis.Dense} is the differential-testing oracle) *)
  dual_restart : bool;
      (** re-optimize warm-started children with the dual simplex phase;
          disable to get PR-1's primal-restart behaviour (benchmarking,
          differential testing) *)
}

val default_options : options
(** [time_limit = infinity], [node_limit = 100_000], [gap_abs = 1e-6],
    [gap_rel = 1e-9], no initial solution, [warm_start = true],
    [lp_pricing = Simplex.Devex], [lp_backend = Basis.Lu],
    [dual_restart = true].  The integrality tolerance on LP values is
    [1e-6], and the rounding heuristic runs every 20 nodes. *)

type seed_status =
  | Seed_none  (** no initial solution was supplied *)
  | Seed_accepted  (** the seed passed {!Model.check_solution} as given *)
  | Seed_repaired
      (** the seed was invalid but the clamp-and-round repair made it
          feasible; the repaired point became the starting incumbent *)
  | Seed_rejected
      (** the seed stayed invalid after repair (or had the wrong length,
          or the model was proven infeasible in presolve); the search
          started unseeded *)

type outcome = {
  status : status;
  solution : float array option;  (** incumbent, one entry per variable *)
  objective : float;  (** incumbent objective; [infinity] when none *)
  best_bound : float;  (** proven lower bound on the optimum *)
  gap : float;  (** [objective - best_bound]; [infinity] when no incumbent *)
  nodes : int;
  lp_iterations : int;
  warm_started_nodes : int;
      (** nodes whose LP restarted from a parent basis rather than cold *)
  dual_restarted_nodes : int;
      (** warm-started nodes whose LP re-optimized via dual-simplex pivots *)
  dual_pivots : int;  (** total dual-simplex pivots across all node LPs *)
  bound_flips : int;
      (** total nonbasic bound flips performed by the long-step dual ratio
          test across all node LPs (see {!Simplex.kernel_stats}) *)
  bland_pivots : int;
      (** total primal pivots taken under the Bland anti-cycling fallback
          across all node LPs (nonzero means some node hit a degenerate
          stall) *)
  seed : seed_status;  (** what became of [options.initial] *)
  elapsed : float;  (** seconds *)
}

val solve : ?options:options -> Model.std -> outcome
(** Solves [min obj.x] over the compiled model, honouring integrality
    markers.  A model with no integer variables reduces to a single LP
    solve. *)
