module Model = Ras_mip.Model
module Simplex = Ras_mip.Simplex
module Branch_bound = Ras_mip.Branch_bound

type timing = {
  ras_build_s : float;
  solver_build_s : float;
  initial_state_s : float;
  mip_s : float;
}

let total_s t = t.ras_build_s +. t.solver_build_s +. t.initial_state_s +. t.mip_s

type result = {
  timing : timing;
  formulation : Formulation.t;
  outcome : Branch_bound.outcome;
  solution : float array;
  grouped_vars : int;
  raw_vars : int;
  rows : int;
  setup_bytes : int;
  lp_duals : float array;
  compiled : Model.std;
  decompose : Ras_mip.Decompose.stats option;
  incremental : Solver_state.round_stats option;
}

let now () = Unix.gettimeofday ()

let run ?params ?(mip_time_limit = 60.0) ?(mip_node_limit = 2000)
    ?(mip_gap_rel = Branch_bound.default_options.Branch_bound.gap_rel)
    ?(mip_stall_nodes = 0) ?(rack_level = false) ?owners ?decompose ?state
    snapshot reservations =
  let words_before = Gc.allocated_bytes () in
  let t0 = now () in
  let symmetry = Symmetry.build ~rack_level ?owners snapshot in
  let formulation = Formulation.build ?params ~rack_level symmetry reservations in
  let t1 = now () in
  let std = Model.compile formulation.Formulation.model in
  let t2 = now () in
  let words_after = Gc.allocated_bytes () in
  let status_quo = Formulation.status_quo formulation in
  (* Cross-round warm start: diff against the cached previous round and map
     its optimal root basis and incumbent across (see {!Solver_state}).
     Everything mapped is advisory — the simplex validates the basis and
     falls back to a cold start on any mismatch. *)
  let warm = match state with None -> None | Some st -> Solver_state.prepare st ~next:std in
  let lp =
    match warm with
    | Some { Solver_state.wbasis = Some b; _ } -> Simplex.solve ~basis:b std
    | Some { Solver_state.wbasis = None; _ } | None -> Simplex.solve std
  in
  (* Primal heuristic: round the LP relaxation into a feasible integral
     solution; keep whichever of it and the status quo is cheaper. *)
  let objective_of = Model.objective_value std in
  let initial =
    match lp with
    | Simplex.Optimal { x; _ } ->
      let repaired = Formulation.repair formulation (Formulation.round_lp formulation x) in
      if objective_of repaired <= objective_of status_quo then repaired else status_quo
    | Simplex.Infeasible _ | Simplex.Unbounded | Simplex.Iteration_limit _ -> status_quo
  in
  (* The previous round's incumbent, patched into this round's variable
     space, competes with the LP-rounding incumbent.  Stale seeds degrade
     gracefully: checked as-is, then once through the formulation-aware
     repair, and dropped (with the outcome recorded) if still infeasible. *)
  let seed_status = ref Branch_bound.Seed_none in
  let initial =
    match warm with
    | Some { Solver_state.wseed = Some s; _ } -> (
      match Model.check_solution std s with
      | Ok () ->
        seed_status := Branch_bound.Seed_accepted;
        if objective_of s <= objective_of initial then s else initial
      | Error _ -> (
        let repaired = Formulation.repair formulation s in
        match Model.check_solution std repaired with
        | Ok () ->
          seed_status := Branch_bound.Seed_repaired;
          if objective_of repaired <= objective_of initial then repaired else initial
        | Error _ ->
          seed_status := Branch_bound.Seed_rejected;
          initial))
    | Some { Solver_state.wseed = None; _ } | None -> initial
  in
  let t3 = now () in
  let lp_bound = match lp with Simplex.Optimal { obj; _ } -> obj | _ -> neg_infinity in
  let decompose_stats = ref None in
  let outcome =
    if mip_node_limit <= 0 then begin
      (* heuristic-only mode for long simulations: the LP-guided rounding /
         repair / spread pipeline is the solution, with the LP relaxation as
         the proven bound *)
      let best_bound = lp_bound in
      let objective = objective_of initial in
      {
        Branch_bound.status = Branch_bound.Feasible;
        solution = Some initial;
        objective;
        best_bound;
        gap = objective -. best_bound;
        nodes = 0;
        lp_iterations = 0;
        warm_started_nodes = 0;
        dual_restarted_nodes = 0;
        dual_pivots = 0;
        bound_flips = 0;
        bland_pivots = 0;
        seed = Branch_bound.Seed_none;
        elapsed = 0.0;
      }
    end
    else begin
      let options =
        {
          Branch_bound.default_options with
          Branch_bound.time_limit = mip_time_limit;
          node_limit = mip_node_limit;
          gap_rel = mip_gap_rel;
          stall_node_limit = mip_stall_nodes;
          initial = Some initial;
          (* hand the root LP's optimal basis to the root node: the tree
             search re-optimizes it under the integer-tightened bounds via
             the dual phase instead of re-solving the root from scratch *)
          root_basis =
            (match lp with Simplex.Optimal { basis; _ } -> Some basis | _ -> None);
        }
      in
      match decompose with
      | Some k when k > 1 ->
        (* POP-style split: solve the k partitioned MIPs concurrently, then
           run the merged solution through the formulation-aware repair and
           keep whichever of it and the initial incumbent is cheaper.  The
           monolith root LP stays the proven bound — subproblem bounds do
           not compose into one. *)
        let part = Formulation.partition_vars formulation ~parts:k in
        let dr =
          Ras_mip.Decompose.solve ~options ~num_parts:k
            ~var_part:(fun v -> part.(v))
            std
        in
        decompose_stats := Some dr.Ras_mip.Decompose.stats;
        let out = dr.Ras_mip.Decompose.outcome in
        let best =
          match out.Branch_bound.solution with
          | Some x ->
            let repaired = Formulation.repair formulation x in
            if objective_of repaired <= objective_of initial then repaired else initial
          | None -> initial
        in
        let objective = objective_of best in
        {
          out with
          Branch_bound.status = Branch_bound.Feasible;
          solution = Some best;
          objective;
          best_bound = lp_bound;
          gap = objective -. lp_bound;
        }
      | _ -> Branch_bound.solve ~options std
    end
  in
  let t4 = now () in
  let solution =
    match outcome.Branch_bound.solution with Some x -> x | None -> initial
  in
  let incremental =
    match state with
    | None -> None
    | Some st ->
      let root_basis, root_pivots =
        match lp with
        | Simplex.Optimal { basis; iterations; _ } -> (Some basis, iterations)
        | _ -> (None, 0)
      in
      Solver_state.commit st ~std ~basis:root_basis ~incumbent:(Some solution)
        ~diff:(Option.map (fun w -> w.Solver_state.wdiff) warm)
        ~rows_reused:(match warm with Some w -> w.Solver_state.wrows_reused | None -> 0)
        ~seed:!seed_status ~root_pivots ();
      Solver_state.last_round st
  in
  {
    timing =
      {
        ras_build_s = t1 -. t0;
        solver_build_s = t2 -. t1;
        initial_state_s = t3 -. t2;
        mip_s = t4 -. t3;
      };
    formulation;
    outcome;
    solution;
    grouped_vars = Symmetry.grouped_variable_count symmetry ~reservations;
    raw_vars = Symmetry.raw_variable_count symmetry ~reservations;
    rows = std.Model.nrows;
    setup_bytes = int_of_float (words_after -. words_before);
    lp_duals = (match lp with Simplex.Optimal { duals; _ } -> duals | _ -> [||]);
    compiled = std;
    decompose = !decompose_stats;
    incremental;
  }
