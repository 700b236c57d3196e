(** One solve phase, instrumented with the paper's time breakdown (Fig. 8):

    - {e RAS build}: symmetry grouping plus construction of RAS's objectives
      and constraints ({!Symmetry.build} + {!Formulation.build});
    - {e solver build}: translation to the solver's standard form
      ({!Ras_mip.Model.compile});
    - {e initial state}: seeding the incumbent with the current assignment
      and the initial LP relaxation solve;
    - {e MIP}: branch-and-bound. *)

type timing = {
  ras_build_s : float;
  solver_build_s : float;
  initial_state_s : float;
  mip_s : float;
}

val total_s : timing -> float

type result = {
  timing : timing;
  formulation : Formulation.t;
  outcome : Ras_mip.Branch_bound.outcome;
  solution : float array;
      (** best incumbent; falls back to the status-quo encoding when the MIP
          found nothing better (softened constraints make it feasible) *)
  grouped_vars : int;  (** assignment variables after symmetry grouping *)
  raw_vars : int;  (** variables a per-server formulation would have *)
  rows : int;
  setup_bytes : int;
      (** bytes allocated during build — the Fig. 11
          memory proxy *)
  lp_duals : float array;
      (** root-LP shadow prices, one per compiled row (empty when the root
          LP did not reach optimality); {!Explain.shadow_prices} turns them
          into per-constraint price reports *)
  compiled : Ras_mip.Model.std;  (** the compiled model the solve ran on *)
  decompose : Ras_mip.Decompose.stats option;
      (** present when the solve ran POP-decomposed ([?decompose] with
          [k > 1] and a positive node limit) *)
  incremental : Solver_state.round_stats option;
      (** present when the solve ran with [?state]: this round's
          cross-round diff sizes, basis-reuse rate, seed outcome and
          pivots saved (mirrors {!Solver_state.last_round}) *)
}

val run :
  ?params:Formulation.params ->
  ?mip_time_limit:float ->
  ?mip_node_limit:int ->
  ?mip_gap_rel:float ->
  ?mip_stall_nodes:int ->
  ?rack_level:bool ->
  ?owners:Ras_broker.Broker.owner list ->
  ?decompose:int ->
  ?state:Solver_state.t ->
  Snapshot.t ->
  Reservation.t list ->
  result
(** [?owners] restricts the assignable pool to the usable servers whose
    snapshot owner is in the list (see {!Symmetry.build}).

    [?decompose:k] with [k > 1] partitions the formulation with
    {!Formulation.partition_vars} and solves the [k] subproblems
    concurrently via {!Ras_mip.Decompose} (POP-style, one domain each),
    merging and repairing the result; the monolith root LP remains the
    reported bound.  Ignored when [k <= 1] or in heuristic-only mode
    ([mip_node_limit <= 0]).

    [?mip_gap_rel] sets the branch-and-bound relative optimality gap
    (default {!Ras_mip.Branch_bound.default_options}'s near-exact 1e-9).
    The continuous loop runs at an interactive tolerance (e.g. 1e-3): with
    small churn, the previous round's patched incumbent usually proves
    within tolerance at the root and the tree search terminates without
    branching.  [?mip_stall_nodes] forwards
    {!Ras_mip.Branch_bound.options.stall_node_limit} — stop once the
    incumbent has not improved for that many nodes (0, the default,
    disables) — which is the stopping rule that actually fires on the
    soft-penalty allocation MIPs, whose integrality gap never closes.

    [?state] threads persistent cross-round solver state through the
    continuous loop: the previous round's optimal root basis warm-starts
    this round's root LP (via the {!Ras_mip.Incremental} name-keyed diff),
    and the previous incumbent — patched for departed servers — competes
    to seed branch-and-bound.  The state is updated in place at the end of
    the solve.  One state object per solve loop; sharing it across
    unrelated model families wastes the cache but stays correct (every
    mapped artifact is validated before use). *)
