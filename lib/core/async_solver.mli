(** The Async Solver (Fig. 6, paper §3.5): a full region solve, run off the
    critical path under a time budget, producing a server-to-reservation
    binding plan.

    Two-phase solving (§3.5.2): phase 1 optimizes the whole region at MSB
    granularity (no rack goals, coarser symmetry classes); phase 2 re-solves
    with rack goals for the worst ~10% of reservations by rack objective —
    capped so the grouped variable count stays bounded — starting from the
    phase-1 result, with every other reservation's servers frozen. *)

type params = {
  formulation : Formulation.params;
  phase1_time_limit_s : float;
  phase2_time_limit_s : float;
  node_limit : int;  (** branch-and-bound nodes per phase *)
  mip_gap_rel : float;
      (** relative optimality gap for both phases' tree searches (forwarded
          to {!Phases.run}).  The default is near-exact; continuous-loop
          deployments run at an interactive tolerance (e.g. [1e-3]) so a
          carried cross-round incumbent that is still within tolerance
          stops the search at the root *)
  mip_stall_nodes : int;
      (** stop a phase's tree search once the incumbent has not improved
          for this many nodes (0 disables; forwarded to {!Phases.run}).
          This is the stopping rule that fires in practice: the allocation
          MIPs' soft-penalty integrality gap never closes, so a round ends
          either here or at [node_limit].  With cross-round state the seed
          is already near-optimal and rounds stop after a handful of
          nodes *)
  run_phase2 : bool;
  phase2_fraction : float;  (** reservations refined in phase 2 *)
  phase2_var_cap : int;  (** grouped assignment-variable cap for phase 2 *)
  decompose : int option;
      (** [Some k] with [k > 1] solves phase 1 POP-decomposed into [k]
          concurrent subproblems (see {!Ras_mip.Decompose}); [None] (the
          default) keeps the monolithic solve.  Phase 2 is never
          decomposed — its rack-scoped slice is too small to pay the split
          overhead. *)
}

val default_params : params

type stats = {
  phase1 : Phases.result;
  phase2 : Phases.result option;  (** [None] when no rack goal needed fixing *)
  plan : Concretize.plan;  (** merged plan, moves relative to the snapshot *)
  duration_s : float;  (** whole-solve wall clock (the Fig. 7 quantity) *)
  shortfalls : (int * float) list;
      (** per-reservation softened capacity violations still present *)
  moves_in_use : int;
  moves_unused : int;
  gap_preemptions : float;
      (** remaining optimality gap expressed in in-use server preemption
          units (Fig. 9's x-axis is this cost scale) *)
  proven_constraints_fixed : bool;
      (** the bound proves no additional softened constraint could have been
          fixed by running longer (Fig. 9: true for ~99% of solves) *)
  solver_nodes : int;  (** branch-and-bound nodes across both phases *)
  solver_lp_iterations : int;  (** simplex pivots across both phases *)
  solver_warm_starts : int;
      (** nodes whose LP restarted from a parent basis (see
          {!Ras_mip.Branch_bound}); the warm-start hit rate of this solve *)
  solver_dual_restarts : int;
      (** warm-started nodes that re-optimized via the dual-simplex phase *)
  solver_dual_pivots : int;  (** dual-simplex pivots across both phases *)
  solver_bland_pivots : int;
      (** primal pivots taken under the Bland anti-cycling fallback across
          both phases — nonzero flags degenerate stalls in the node LPs *)
  decompose : Ras_mip.Decompose.stats option;
      (** phase-1 decomposition statistics when [params.decompose] was
          active (mirrors [phase1.decompose]) *)
  incremental : Solver_state.round_stats option;
      (** phase-1 cross-round warm-start statistics when [?state] was
          given (mirrors [phase1.incremental]) *)
  price_table : Solver_state.price_table option;
      (** phase-1 root-LP dual prices keyed for the tier-1 reactive layer —
          feed to {!Reactive.set_prices} after applying the plan; [None]
          when the root LP did not reach optimality *)
}

val solve :
  ?params:params ->
  ?owners:Ras_broker.Broker.owner list ->
  ?state:Solver_state.t ->
  Snapshot.t ->
  stats
(** [owners] restricts the assignable server pool (on top of the
    availability constraint) to the servers whose snapshot owner is in the
    list; used to roll RAS out to a subset of the fleet while the rest stays
    under legacy management (Fig. 12's gradual enablement).  Phase 2 keeps
    [Free] and its selected reservations, intersected with [owners].

    [state] is the persistent cross-round solver state of the continuous
    loop: pass the same {!Solver_state.t} to every round and phase 1
    warm-starts from the previous round's basis and incumbent (see
    {!Phases.run}).  Phase 2 always solves cold — its reservation slice is
    re-selected each round. *)
