module Broker = Ras_broker.Broker
module Region = Ras_topology.Region
module Branch_bound = Ras_mip.Branch_bound

type params = {
  formulation : Formulation.params;
  phase1_time_limit_s : float;
  phase2_time_limit_s : float;
  node_limit : int;
  mip_gap_rel : float;
  mip_stall_nodes : int;
  run_phase2 : bool;
  phase2_fraction : float;
  phase2_var_cap : int;
  decompose : int option;
}

let default_params =
  {
    formulation = Formulation.default_params;
    phase1_time_limit_s = 10.0;
    phase2_time_limit_s = 5.0;
    node_limit = 300;
    mip_gap_rel = Branch_bound.default_options.Branch_bound.gap_rel;
    mip_stall_nodes = 0;
    run_phase2 = true;
    phase2_fraction = 0.1;
    phase2_var_cap = 6000;
    decompose = None;
  }

type stats = {
  phase1 : Phases.result;
  phase2 : Phases.result option;
  plan : Concretize.plan;
  duration_s : float;
  shortfalls : (int * float) list;
  moves_in_use : int;
  moves_unused : int;
  gap_preemptions : float;
  proven_constraints_fixed : bool;
  solver_nodes : int;
  solver_lp_iterations : int;
  solver_warm_starts : int;
  solver_dual_restarts : int;
  solver_dual_pivots : int;
  solver_bland_pivots : int;
  decompose : Ras_mip.Decompose.stats option;
  incremental : Solver_state.round_stats option;
  price_table : Solver_state.price_table option;
}

(* Rack-spread overflow of every rack-limited reservation under the
   phase-1 owner codes [target] — the phase-2 selection criterion
   ("reservations with the worst rack-level objectives are prioritized",
   §3.5.2).  One pass over the phase-1 class members, so unusable and
   filtered servers never count. *)
let rack_overflows (f : Formulation.t) target reservations =
  let sym = f.Formulation.symmetry in
  let limited =
    List.filter_map
      (fun res -> Option.map (fun a -> (res, a, Hashtbl.create 32)) res.Reservation.rack_spread_limit)
      reservations
  in
  Array.iter
    (fun (cls : Symmetry.cls) ->
      let counted =
        List.filter_map
          (fun (res, _, per_rack) ->
            let rru = res.Reservation.rru_of (Symmetry.hw_of cls) in
            if rru > 0.0 then Some (Broker.owner_code (Reservation.owner res), rru, per_rack)
            else None)
          limited
      in
      if counted <> [] then
        Array.iter
          (fun id ->
            List.iter
              (fun (code, rru, per_rack) ->
                if target.(id) = code then begin
                  let rack = (Snapshot.server sym.Symmetry.snapshot id).Region.loc.Region.rack in
                  let cur = Option.value ~default:0.0 (Hashtbl.find_opt per_rack rack) in
                  Hashtbl.replace per_rack rack (cur +. rru)
                end)
              counted)
          cls.Symmetry.members)
    sym.Symmetry.classes;
  List.map
    (fun (res, alpha_k, per_rack) ->
      let limit = alpha_k *. res.Reservation.capacity_rru in
      (res, Hashtbl.fold (fun _ v acc -> acc +. Float.max 0.0 (v -. limit)) per_rack 0.0))
    limited

(* Merge the two phases' ascending move lists.  On a server both moved,
   phase 2's [to_] wins over phase 1's move, whose [from_]/[was_in_use] are
   the snapshot's, and a server back on its snapshot owner drops out.  A
   server only phase 2 moved was untouched by phase 1, so its move already
   reads the snapshot. *)
let merge_moves moves1 moves2 =
  let rec go acc m1 m2 =
    match (m1, m2) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | (a : Concretize.move) :: t1, (b : Concretize.move) :: t2 ->
      if a.Concretize.server < b.Concretize.server then go (a :: acc) t1 m2
      else if b.Concretize.server < a.Concretize.server then go (b :: acc) m1 t2
      else if b.Concretize.to_ = a.Concretize.from_ then go acc t1 t2
      else go ({ a with Concretize.to_ = b.Concretize.to_ } :: acc) t1 t2
  in
  go [] moves1 moves2

let solve ?(params = default_params) ?owners ?state (snapshot : Snapshot.t) =
  let start = Unix.gettimeofday () in
  let reservations = snapshot.Snapshot.reservations in
  let phase1 =
    (* decomposition and cross-round state apply to phase 1 only: phase 2
       re-solves a small, rack-scoped slice with a per-round reservation
       selection, so neither the split overhead nor the cached basis can
       pay off there *)
    Phases.run ~params:params.formulation ~mip_time_limit:params.phase1_time_limit_s
      ~mip_node_limit:params.node_limit ~mip_gap_rel:params.mip_gap_rel
      ~mip_stall_nodes:params.mip_stall_nodes ~rack_level:false ?owners
      ?decompose:params.decompose ?state snapshot reservations
  in
  let assignment1 = Formulation.decode phase1.Phases.formulation phase1.Phases.solution in
  let plan1 = Concretize.plan phase1.Phases.formulation assignment1 in
  (* ---- phase 2: rack refinement for the worst reservations, its moves
     merged over phase 1's ---- *)
  let phase2, plan =
    if not params.run_phase2 then (None, plan1)
    else begin
      (* the snapshot after phase 1: its moves applied, and a moved server
         preempted, so it arrives idle *)
      let target = Array.copy snapshot.Snapshot.current in
      let in_use = Bytes.copy snapshot.Snapshot.in_use in
      List.iter
        (fun (m : Concretize.move) ->
          target.(m.Concretize.server) <- Broker.owner_code m.Concretize.to_;
          Bytes.set in_use m.Concretize.server '\000')
        plan1.Concretize.moves;
      let scored =
        List.filter (fun (_, overflow) -> overflow > 1e-6)
          (rack_overflows phase1.Phases.formulation target reservations)
      in
      if scored = [] then (None, plan1)
      else begin
        let scored = List.sort (fun (_, a) (_, b) -> compare b a) scored in
        let quota =
          Int.max 1 (int_of_float (params.phase2_fraction *. float_of_int (List.length reservations)))
        in
        (* usable servers per owner code after phase 1 *)
        let histogram = Array.make (1 + Array.fold_left Int.max 0 target) 0 in
        Array.iteri
          (fun id c -> if Snapshot.usable_at snapshot id then histogram.(c) <- histogram.(c) + 1)
          target;
        let usable_with o =
          let c = Broker.owner_code o in
          if c < Array.length histogram then histogram.(c) else 0
        in
        (* accumulate reservations while the grouped-variable estimate stays
           under the cap (one variable per rack-level class x reservation) *)
        let selected = ref [] and var_estimate = ref 0 in
        List.iteri
          (fun i (res, _) ->
            if i < quota then begin
              (* rack-level classes are at worst one per server *)
              let server_count = usable_with (Reservation.owner res) + usable_with Broker.Free in
              if !var_estimate + server_count <= params.phase2_var_cap then begin
                selected := res :: !selected;
                var_estimate := !var_estimate + server_count
              end
            end)
          scored;
        match !selected with
        | [] -> (None, plan1)
        | selected ->
          let phase2_owners = Broker.Free :: List.map Reservation.owner selected in
          let phase2_owners =
            match owners with
            | None -> phase2_owners
            | Some allowed -> List.filter (fun o -> List.mem o allowed) phase2_owners
          in
          let snapshot2 = { (Snapshot.with_current snapshot target) with Snapshot.in_use } in
          let result =
            Phases.run ~params:params.formulation
              ~mip_time_limit:params.phase2_time_limit_s ~mip_node_limit:params.node_limit
              ~mip_gap_rel:params.mip_gap_rel ~mip_stall_nodes:params.mip_stall_nodes
              ~rack_level:true ~owners:phase2_owners snapshot2 selected
          in
          let assignment2 = Formulation.decode result.Phases.formulation result.Phases.solution in
          let plan2 = Concretize.plan result.Phases.formulation assignment2 in
          ( Some result,
            { Concretize.moves = merge_moves plan1.Concretize.moves plan2.Concretize.moves } )
      end
    end
  in
  let shortfalls =
    let base = Formulation.capacity_shortfalls phase1.Phases.formulation phase1.Phases.solution in
    match phase2 with
    | None -> base
    | Some p2 ->
      let selected_ids =
        List.map (fun r -> r.Reservation.id) p2.Phases.formulation.Formulation.reservations
      in
      let p2_shortfalls =
        Formulation.capacity_shortfalls p2.Phases.formulation p2.Phases.solution
      in
      List.filter (fun (rid, _) -> not (List.mem rid selected_ids)) base @ p2_shortfalls
  in
  let gap = phase1.Phases.outcome.Branch_bound.gap in
  (* aggregate B&B kernel counters over both phases: the solver-throughput
     quantity the kernel benchmarks track *)
  let outcomes =
    phase1.Phases.outcome
    :: (match phase2 with Some p2 -> [ p2.Phases.outcome ] | None -> [])
  in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
  {
    phase1;
    phase2;
    plan;
    duration_s = Unix.gettimeofday () -. start;
    shortfalls;
    moves_in_use = Concretize.moves_in_use plan;
    moves_unused = Concretize.moves_unused plan;
    gap_preemptions =
      (if Float.is_finite gap then gap /. params.formulation.Formulation.move_cost_in_use
       else infinity);
    proven_constraints_fixed =
      Float.is_finite gap && gap < params.formulation.Formulation.capacity_slack_cost;
    solver_nodes = sum (fun o -> o.Branch_bound.nodes);
    solver_lp_iterations = sum (fun o -> o.Branch_bound.lp_iterations);
    solver_warm_starts = sum (fun o -> o.Branch_bound.warm_started_nodes);
    solver_dual_restarts = sum (fun o -> o.Branch_bound.dual_restarted_nodes);
    solver_dual_pivots = sum (fun o -> o.Branch_bound.dual_pivots);
    solver_bland_pivots = sum (fun o -> o.Branch_bound.bland_pivots);
    decompose = phase1.Phases.decompose;
    incremental = phase1.Phases.incremental;
    price_table =
      (* phase 1's root-LP duals cover the whole region at the (msb, hw)
         granularity the reactive pools use; phase 2's rack slice does not *)
      (if Array.length phase1.Phases.lp_duals = 0 then None
       else
         Some
           (Solver_state.price_table
              ~round:
                (match phase1.Phases.incremental with
                | Some r -> r.Solver_state.round
                | None -> 0)
              ~row_names:phase1.Phases.compiled.Ras_mip.Model.row_names
              ~duals:phase1.Phases.lp_duals ()));
  }
