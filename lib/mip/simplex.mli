(** Bounded-variable simplex for linear programs in {!Model.std} form.

    The implementation is a revised simplex over a factorized basis
    ({!Basis}: sparse Markowitz LU with product-form eta updates, or the
    dense Gauss–Jordan inverse kept as a reference backend):

    - slack columns are appended internally (one per row) so the working
      problem is [min c.x  s.t.  Ax + s = b] with bounds on every column;
    - infeasible starts are handled by a piecewise-linear phase 1 that
      minimizes the total bound violation of basic variables (no artificial
      columns are added);
    - two pricing rules are available (see {!pricing}): Devex approximate
      steepest-edge (production) and a full Dantzig scan (the differential
      oracle's rule); both switch to Bland's rule after a run of
      degenerate pivots, which guarantees
      termination; the simplex multipliers are cached and updated
      incrementally after phase-2 pivots instead of being recomputed by a
      full BTRAN every iteration;
    - the basis is refactorized when the update chain exhausts its budget or
      accumulated pivot error crosses a threshold (see {!Basis}), and before
      declaring optimality, bounding numerical drift;
    - solves can be warm-started from the final basis of a previous solve of
      the same model with different bounds — this is how {!Branch_bound}
      restarts each child node from its parent's optimal basis;
    - a warm-started basis that is still dual feasible (the branch-and-bound
      child pattern: parent-optimal basis, tightened bounds) is
      re-optimized by a dual simplex phase — typically a handful of pivots —
      before the primal phases run; the dual phase bails out to the primal
      path on any numerical doubt, so it is purely an accelerator.

    Integrality markers in the input are ignored: this is the LP relaxation
    solver used by {!Branch_bound}. *)

type pricing =
  | Dantzig  (** Full scan, most-negative reduced cost.  The textbook rule;
                 O(n) reduced costs per iteration and prone to long stalls
                 on degenerate problems.  Kept as the differential oracle's
                 rule. *)
  | Devex
      (** Forrest–Goldfarb approximate steepest-edge.  Each nonbasic
          column carries a reference-framework weight [w_j ≥ 1]
          approximating [‖B⁻¹A_j‖²] over a reference basis; the entering
          column maximizes [d_j²/w_j].  Weights are updated from the
          pivot's FTRAN/BTRAN vectors (no extra column passes: the
          neighbour update is folded into the pivot-row pricing pass) and
          the framework is reset — all weights back to 1 — on every solve
          start (cold or warm), on entry to Bland mode, when the accuracy
          estimate strikes out, and on [devex_reset_period].  Fewer
          pivots than Dantzig on degenerate problems.  The production
          rule. *)
(** Entering-variable selection rule for the primal phases. *)

type col_status = Basic | At_lower | At_upper | Nb_free
(** Where a column currently rests: basic, pinned at a bound, or free at
    zero. *)

type warm_basis = {
  wcols : int array;  (** [wcols.(i)] is the column basic in row [i] (slack
                          columns are [nvars + row]). *)
  wstatus : col_status array;
      (** One entry per column including slacks; nonbasic entries record
          which bound the column rests on. *)
  wfac : Basis.t option;
      (** The basis factorization matching [wcols], when available.
          Supplying it lets a restart skip refactorization; dropping it (set
          to [None]) keeps a stored snapshot at O(columns) memory.  It is
          adopted (copied) only when its {!Basis.kind} matches the solve's
          [backend] and its dimension matches the model; otherwise the
          restart refactorizes from [wcols].  When present it must genuinely
          be the factorization of the [wcols] basis — it is not
          cross-checked. *)
}
(** A restartable snapshot of a simplex basis.  Obtained from
    {!result.Optimal} and fed back through [solve ~basis]; the solver
    validates the structural fields and silently falls back to a cold start
    on any mismatch, so a stale snapshot degrades performance, not
    correctness. *)

val remap_basis :
  nvars:int ->
  nrows:int ->
  col_map:int array ->
  row_src:int array ->
  warm_basis ->
  warm_basis * int
(** [remap_basis ~nvars ~nrows ~col_map ~row_src wb] re-indexes [wb] onto a
    model with [nvars] structural columns and [nrows] rows.  [col_map.(c)]
    is the new column of [wb]'s column [c] (structural or slack; length =
    [wb]'s column count), or [-1] when it departed; [row_src.(i)] is the
    row of [wb] that new row [i] comes from, or [-1] for a new row.

    Every new row whose source row's basic column survives keeps that
    column (the first claimant wins); the remaining rows are repaired with
    their own slack when it is free, else the lowest free slack.
    Surviving nonbasic columns keep their resting bound; all other
    nonbasic columns rest at their lower bound.  Returns the re-indexed
    basis, {e without} a factorization ([wfac = None]), and the number of
    rows whose basic column was carried.  The caller checks that [wb] has
    the shape the maps describe.  The cross-round mapping
    ({!Incremental.map_basis}) and the presolve projection of a
    branch-and-bound root basis both run through this function. *)

type kernel_stats = {
  avg_ftran_nnz : float;
      (** Mean nonzeros per sparse FTRAN result over the whole solve.  The
          hypersparse win is exactly this (and its BTRAN twin) staying far
          below the row count [m]: it bounds the eta, ratio-test and
          pricing work that runs over the result's pattern. *)
  avg_btran_nnz : float;
  bound_flips : int;
      (** Nonbasic bound flips performed by the long-step (bound-flip) dual
          ratio test during the dual re-optimization phase.  Each flip
          retires one breakpoint without a basis change; a cluster of flips
          plus one pivot replaces what a textbook dual ratio test does in
          many pivots. *)
}
(** Solve-kernel counters for one solve, reported by {!result.Optimal} and
    surfaced in the bench kernel rows. *)

type workspace
(** Reusable per-solve scratch: all the O(rows + columns) working arrays a
    solve allocates.  Pass the same workspace to consecutive [solve] calls
    on same-shaped models (the branch-and-bound node loop) to make the
    solver's own allocation per solve O(1) arrays instead of O(solve
    count × problem size); a dimension mismatch transparently reallocates.
    A workspace must not be shared across concurrent solves (one per
    domain). *)

val create_workspace : unit -> workspace
(** An empty workspace; arrays are sized on first use. *)

type result =
  | Optimal of {
      x : float array;
      obj : float;
      iterations : int;
      dual_iterations : int;
      bland_iterations : int;
      duals : float array;
      basis : warm_basis;
      kstats : kernel_stats;
    }
      (** [x] has one entry per structural variable; [obj] includes the
          model's objective offset; [duals] holds one simplex multiplier per
          row — the shadow price of the constraint at the optimum (zero for
          non-binding rows).  [iterations] counts every pivot;
          [dual_iterations] is the subset performed by the dual-simplex
          restart phase, and [bland_iterations] the primal subset taken
          under the Bland anti-cycling fallback (nonzero means the solve
          hit a degenerate stall).  [basis] is the final basis (with its
          factorization) for warm-starting related solves. *)
  | Infeasible of { infeasibility : int }
      (** Phase 1 converged with the given number of still-violated basic
          variables. *)
  | Unbounded
  | Iteration_limit of { feasible : bool; obj : float }
      (** The iteration budget ran out; [obj] is meaningful only when
          [feasible]. *)

val solve :
  ?pricing:pricing ->
  ?degen_limit:int ->
  ?devex_reset_period:int ->
  ?trace:(iteration:int -> min_devex_weight:float -> unit) ->
  ?backend:Basis.kind ->
  ?ws:workspace ->
  ?dual_simplex:bool ->
  ?basis:warm_basis ->
  ?lb:float array ->
  ?ub:float array ->
  Model.std ->
  result
(** [solve std] solves the LP relaxation.  [lb]/[ub] override the structural
    variable bounds without touching [std] (this is how branch-and-bound
    explores nodes).  [basis] warm-starts from a previous solve's final
    basis (see {!warm_basis}).  [pricing] selects the entering-variable
    rule (default {!Devex}).  [degen_limit] is the number of consecutive
    degenerate pivots tolerated before switching to Bland's rule (default
    100; [0] switches on the first degenerate pivot — used by the cycling
    tests).  [devex_reset_period] > 0 forces a framework reset every that
    many iterations (default [0]: never; used by the reset-equivalence
    property tests).  [trace], when supplied and pricing is {!Devex}, is
    called after every primal pivot with the iteration count and the
    minimum weight over all columns (test instrumentation).  [backend]
    selects the basis representation ([Basis.Lu] by default; [Basis.Dense]
    is the reference oracle used by the differential tests).
    [ws] supplies a reusable {!workspace}.  [dual_simplex:false] disables
    the dual re-optimization phase on warm starts (the differential
    reference configuration).  The iteration budget scales with problem
    size; the primal and dual feasibility tolerances are [1e-7]. *)
