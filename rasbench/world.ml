(* The region-scale world shared by loop-large and events-large, one tier-2
   round as production runs it, and the ownership checks every workload
   applies after its rounds. *)

open Common
module Broker = Ras_broker.Broker
module Generator = Ras_topology.Generator
module Region = Ras_topology.Region
module Service = Ras_workload.Service
module Request_gen = Ras_workload.Request_gen
module Capacity_request = Ras_workload.Capacity_request
module Rng = Ras_stats.Rng
module Model = Ras_mip.Model
module Branch_bound = Ras_mip.Branch_bound
module Async_solver = Ras.Async_solver
module Phases = Ras.Phases
module Snapshot = Ras.Snapshot
module Symmetry = Ras.Symmetry
module Concretize = Ras.Concretize
module Reservation = Ras.Reservation
module Reactive = Ras.Reactive
module Online_mover = Ras.Online_mover

(* The interactive solver every round runs: real branch-and-bound bounded
   by 150 nodes per phase, single domain ([decompose = None]). *)
let interactive =
  {
    Async_solver.default_params with
    Async_solver.phase1_time_limit_s = 8.0;
    phase2_time_limit_s = 3.0;
    node_limit = 150;
    decompose = None;
  }

(* The continuous-loop tolerance: stop at a 0.1% gap or after 8 nodes
   without improvement; phase 2 stays on. *)
let continuous = { interactive with Async_solver.mip_gap_rel = 1e-3; mip_stall_nodes = 8 }

(* A trimmed service list keeps region-scale solves tractable while keeping
   generation-pinned, storage, ML and Presto affinity constraints. *)
let region_scale_services =
  List.filter
    (fun s -> s.Service.id <= 12 || s.Service.id = 13 || s.Service.id = 17)
    Service.default_catalog

(* Large requests get a rack-spread limit so phase 2 has work to do. *)
let with_rack_limits =
  List.map (fun (r : Capacity_request.t) ->
      if r.Capacity_request.rru >= 5.0 then
        { r with Capacity_request.rack_spread_limit = Some 0.06 }
      else r)

type t = {
  region : Region.t;
  broker : Broker.t;
  requests : Capacity_request.t list;
  reservations : Reservation.t list;
  reactive : Reactive.t;
  mover : Online_mover.t;
}

(* 4 DCs x 9 MSBs x 580 racks x 48 servers = 1,002,240 servers, 19 requests
   plus the 2% shared buffers. *)
let region_scale () =
  let region =
    Generator.generate { Generator.region_scale_params with Generator.seed = region_seed_large }
  in
  let broker = Broker.create region in
  let requests =
    Request_gen.scenario
      (Rng.create requests_seed)
      ~region ~services:region_scale_services ~target_utilization:0.45
    |> with_rack_limits
  in
  let reservations =
    List.map Reservation.of_request requests
    @ Ras.Buffers.shared_buffer_reservations region ~fraction:0.02 ~first_id:8000
  in
  let reactive = Reactive.create broker in
  let mover = Online_mover.create ~reactive broker in
  Online_mover.set_reservations mover reservations;
  { region; broker; requests; reservations; reactive; mover }

type round = {
  snapshot : Snapshot.t;
  stats : Async_solver.stats;
  apply : Online_mover.apply_stats;
  wall_s : float;  (** snapshot -> plan applied -> prices pushed *)
  snapshot_s : float;
  apply_s : float;
  index_updates : int;  (** reactive index updates the round caused *)
  gc : gc_delta;
}

(* One tier-2 round in the order [System.solve_now] runs it: snapshot,
   solve, push the dual prices to the tier-1 index, apply the plan. *)
let round w ~params ?state () =
  let updates0 = (Reactive.counters w.reactive).Reactive.index_updates in
  let g0 = gc_mark () in
  let t0 = now () in
  let snapshot = Snapshot.take ~home_of:(Online_mover.home_of w.mover) w.broker w.reservations in
  let t1 = now () in
  let stats = Async_solver.solve ~params ?state snapshot in
  (match stats.Async_solver.price_table with
  | Some p -> Reactive.set_prices w.reactive p
  | None -> ());
  let t2 = now () in
  let apply = Online_mover.apply_plan w.mover stats.Async_solver.plan in
  let t3 = now () in
  {
    snapshot;
    stats;
    apply;
    wall_s = t3 -. t0;
    snapshot_s = t1 -. t0;
    apply_s = t3 -. t2;
    index_updates = (Reactive.counters w.reactive).Reactive.index_updates - updates0;
    gc = gc_since g0;
  }

(* ---- output checks ---- *)

(* Solves seen to run undecomposed: [Decompose] is the only user of the
   solver pool, so each of these ran on one domain. *)
let single_domain_solves = ref 0

(* A solve is only comparable across machines when every branch-and-bound
   search ended on its node, stall or gap rule, never on the wall clock,
   and ran on one domain. *)
let check_solve ~params (stats : Async_solver.stats) =
  let check_phase name limit (r : Phases.result) =
    let o = r.Phases.outcome in
    if o.Branch_bound.elapsed >= limit then
      fail "%s search hit its %.1f s time limit (%d nodes): result depends on machine speed"
        name limit o.Branch_bound.nodes;
    match Model.check_solution r.Phases.compiled r.Phases.solution with
    | Ok () -> ()
    | Error e -> fail "%s solution infeasible: %s" name e
  in
  check_phase "phase 1" params.Async_solver.phase1_time_limit_s stats.Async_solver.phase1;
  Option.iter (check_phase "phase 2" params.Async_solver.phase2_time_limit_s) stats.Async_solver.phase2;
  if stats.Async_solver.decompose <> None then fail "phase 1 ran decomposed on the solver pool";
  incr single_domain_solves

(* Every move starts from the owner the snapshot recorded. *)
let check_plan (snapshot : Snapshot.t) (plan : Concretize.plan) =
  List.iter
    (fun (m : Concretize.move) ->
      if Snapshot.current snapshot m.Concretize.server <> m.Concretize.from_ then
        fail "plan move of server %d does not start at its snapshot owner" m.Concretize.server)
    plan.Concretize.moves

(* Each server has exactly one known owner, and a fresh snapshot's symmetry
   histograms agree with [Broker.count_owner] once down and lent servers
   are accounted for. *)
let check_ownership ~broker ~mover ~reservations =
  let n = Broker.num_servers broker in
  let owners =
    Broker.Free :: Broker.Shared_buffer
    :: List.filter_map
         (fun r ->
           if Reservation.is_buffer r then None else Some (Broker.Reservation r.Reservation.id))
         reservations
  in
  let known = Hashtbl.create 64 in
  List.iter (fun o -> Hashtbl.replace known (Broker.owner_code o) ()) owners;
  let elastic = Hashtbl.create 8 and lent = ref 0 in
  for id = 0 to n - 1 do
    let c = Broker.current_code broker id in
    match Broker.owner_of_code c with
    | Broker.Elastic e ->
      Hashtbl.replace elastic e ();
      incr lent
    | o ->
      if Broker.owner_code o <> c || not (Hashtbl.mem known c) then
        fail "server %d has unknown owner code %d" id c
  done;
  let all_owners = owners @ Hashtbl.fold (fun e () acc -> Broker.Elastic e :: acc) elastic [] in
  let counted = List.fold_left (fun acc o -> acc + Broker.count_owner broker o) 0 all_owners in
  if counted <> n then fail "owner counts sum to %d over %d servers" counted n;
  if !lent <> Online_mover.loans_outstanding mover then
    fail "%d elastic owners but %d loans outstanding" !lent (Online_mover.loans_outstanding mover);
  let snapshot = Snapshot.take ~home_of:(Online_mover.home_of mover) broker reservations in
  let sym = Symmetry.build snapshot in
  let expected = Hashtbl.create 64 in
  List.iter (fun o -> Hashtbl.replace expected (Broker.owner_code o) (Broker.count_owner broker o)) owners;
  let bump code d =
    match Hashtbl.find_opt expected code with
    | Some v -> Hashtbl.replace expected code (v + d)
    | None -> ()
  in
  for id = 0 to n - 1 do
    let cur = Broker.current_code broker id in
    if not (Snapshot.usable_at snapshot id) then bump cur (-1)
    else if Snapshot.current_code snapshot id <> cur then begin
      (* lent: the snapshot sees it at its home owner *)
      bump cur (-1);
      bump (Snapshot.current_code snapshot id) 1
    end
  done;
  List.iter
    (fun o ->
      let from_sym =
        Array.fold_left (fun acc c -> acc + Symmetry.current_count sym c o) 0 sym.Symmetry.classes
      in
      let want = Hashtbl.find expected (Broker.owner_code o) in
      if from_sym <> want then
        fail "symmetry histograms count %d servers for owner code %d, broker %d" from_sym
          (Broker.owner_code o) want)
    owners

(* The incremental availability index equals a fresh rebuild, bucket for
   bucket. *)
let check_reactive_index w =
  let nb = w.region.Region.num_msbs and nh = Ras_topology.Hardware.count in
  let read () =
    Array.init (2 * nb * nh) (fun i ->
        let source = if i < nb * nh then `Free else `Buffer in
        let j = i mod (nb * nh) in
        Reactive.available_in_bucket w.reactive ~source ~msb:(j / nh) ~hw:(j mod nh))
  in
  let incremental = read () in
  Reactive.rebuild w.reactive;
  let rebuilt = read () in
  Array.iteri
    (fun i v ->
      if v <> rebuilt.(i) then
        fail "reactive bucket %d holds %d servers, %d after rebuild" i v rebuilt.(i))
    incremental

(* ---- layer re-invocations for traced runs ---- *)

type layers = {
  classes : int;
  symmetry_s : float;
  formulation_s : float;
  compile_s : float;
  concretize_s : float;  (** both phases *)
}

(* Re-run the side-effect-free layers of a round on its own inputs, outside
   the timed round, and time each one. *)
let replay_layers (snapshot : Snapshot.t) (stats : Async_solver.stats) =
  let p1 = stats.Async_solver.phase1 in
  let sym, symmetry_s = timed (fun () -> Symmetry.build snapshot) in
  let form, formulation_s =
    timed (fun () ->
        Ras.Formulation.build ~params:p1.Phases.formulation.Ras.Formulation.params sym
          snapshot.Snapshot.reservations)
  in
  let _, compile_s = timed (fun () -> Model.compile form.Ras.Formulation.model) in
  let concretize (r : Phases.result) =
    snd
      (timed (fun () ->
           Concretize.plan r.Phases.formulation
             (Ras.Formulation.decode r.Phases.formulation r.Phases.solution)))
  in
  let concretize_s =
    concretize p1 +. match stats.Async_solver.phase2 with Some p2 -> concretize p2 | None -> 0.0
  in
  { classes = Symmetry.num_classes sym; symmetry_s; formulation_s; compile_s; concretize_s }

(* Both phases' {!Phases.timing} summed by field, and in total. *)
let phase_time f (s : Async_solver.stats) =
  f s.Async_solver.phase1.Phases.timing
  +. match s.Async_solver.phase2 with Some p -> f p.Phases.timing | None -> 0.0

let phases_total = phase_time Phases.total_s

let total_shortfall (s : Async_solver.stats) =
  List.fold_left (fun a (_, v) -> a +. v) 0.0 s.Async_solver.shortfalls

(* Servers and buckets the reactive index examined per tier-1 event. *)
let reactive_visits (c : Reactive.counters) =
  let per_event x = float_of_int x /. float_of_int (max 1 c.Reactive.events) in
  [
    ("reactive.visited_servers_per_event", per_event c.Reactive.visited_servers);
    ("reactive.visited_classes_per_event", per_event c.Reactive.visited_classes);
  ]

(* Per-layer metrics of the solving workloads: medians over the steady
   solves, each given with its replayed layers and its GC counters. *)
let solve_layers (solves : (Async_solver.stats * layers * gc_delta) list) =
  let med f = median (List.map f solves) in
  let count f = med (fun (s, _, _) -> float_of_int (f s)) in
  let phase f = med (fun (s, _, _) -> phase_time f s) in
  let last, _, _ = List.nth solves (List.length solves - 1) in
  [
    ("symmetry.build_s", med (fun (_, l, _) -> l.symmetry_s));
    ("symmetry.classes", med (fun (_, l, _) -> float_of_int l.classes));
    ("formulation.build_s", med (fun (_, l, _) -> l.formulation_s));
    ("model.compile_s", med (fun (_, l, _) -> l.compile_s));
    ("concretize.plan_s", med (fun (_, l, _) -> l.concretize_s));
    ("concretize.moves", count (fun s -> List.length s.Async_solver.plan.Concretize.moves));
    ( "async_solver.merge_s",
      med (fun (s, l, _) -> s.Async_solver.duration_s -. phases_total s -. l.concretize_s) );
    ("phases.ras_build_s", phase (fun t -> t.Phases.ras_build_s));
    ("phases.solver_build_s", phase (fun t -> t.Phases.solver_build_s));
    ("phases.initial_state_s", phase (fun t -> t.Phases.initial_state_s));
    ("phases.mip_s", phase (fun t -> t.Phases.mip_s));
    ("simplex.pivots", count (fun s -> s.Async_solver.solver_lp_iterations));
    ("simplex.dual_pivots", count (fun s -> s.Async_solver.solver_dual_pivots));
    ("simplex.bland_pivots", count (fun s -> s.Async_solver.solver_bland_pivots));
    ("bb.nodes", count (fun s -> s.Async_solver.solver_nodes));
    ("bb.warm_started_nodes", count (fun s -> s.Async_solver.solver_warm_starts));
    ("bb.dual_restarts", count (fun s -> s.Async_solver.solver_dual_restarts));
    ("quality.preempted_per_round", count (fun s -> s.Async_solver.moves_in_use));
    ("quality.shortfall_rru", total_shortfall last);
    ("gc.minor_words_per_op", med (fun (_, _, g) -> g.minor_words));
    ("gc.major_collections_per_op", med (fun (_, _, g) -> float_of_int g.major_collections));
  ]

(* The fields of one solve's traced record. *)
let solve_record (s : Async_solver.stats) (l : layers) (g : gc_delta) =
  let p1 = s.Async_solver.phase1 in
  let t = p1.Phases.timing in
  [
    ("duration_s", jf s.Async_solver.duration_s);
    ("phase1_ras_build_s", jf t.Phases.ras_build_s);
    ("phase1_solver_build_s", jf t.Phases.solver_build_s);
    ("phase1_initial_state_s", jf t.Phases.initial_state_s);
    ("phase1_mip_s", jf t.Phases.mip_s);
    ( "phase2_s",
      jf (match s.Async_solver.phase2 with Some p -> Phases.total_s p.Phases.timing | None -> 0.0) );
    ("symmetry_build_s", jf l.symmetry_s);
    ("formulation_build_s", jf l.formulation_s);
    ("model_compile_s", jf l.compile_s);
    ("concretize_s", jf l.concretize_s);
    ("objective", jf p1.Phases.outcome.Branch_bound.objective);
    ("nodes", ji s.Async_solver.solver_nodes);
    ("pivots", ji s.Async_solver.solver_lp_iterations);
    ("moves", ji (List.length s.Async_solver.plan.Concretize.moves));
    ("moves_in_use", ji s.Async_solver.moves_in_use);
    ("shortfall_rru", jf (total_shortfall s));
    ("alloc_mb", jf (g.alloc_bytes /. 1e6));
    ("minor_words", jf g.minor_words);
    ("major_collections", ji g.major_collections);
  ]
