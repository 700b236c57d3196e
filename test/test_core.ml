(* Tests for the ras core: reservations, snapshots, symmetry classes, the
   MIP formulation and its heuristics, concretization, the async solver, the
   online mover, health replay, the emergency path and the whole system —
   including the paper's headline invariant: a reservation with an embedded
   buffer survives the loss of any single MSB. *)

open Ras
module Broker = Ras_broker.Broker
module Region = Ras_topology.Region
module Generator = Ras_topology.Generator
module Hw = Ras_topology.Hardware
module Service = Ras_workload.Service
module Capacity_request = Ras_workload.Capacity_request
module Unavail = Ras_failures.Unavail
module Model = Ras_mip.Model
module Simplex = Ras_mip.Simplex

let hw_of broker id = (Broker.region broker).Region.servers.(id).Region.hw

(* Server ids where [f] holds, in descending order. *)
let ids_desc_where broker f =
  let n = Broker.num_servers broker in
  List.filter f (List.init n (fun i -> n - 1 - i))

let web = Service.make ~id:1 ~name:"web" ~profile:Service.Web ()
let ds = Service.make ~id:2 ~name:"ds" ~profile:Service.Data_store ()

(* ---------- shared solved fixture ---------- *)

type fixture = {
  broker : Broker.t;
  reservations : Reservation.t list;
  stats : Async_solver.stats;
}

let build_fixture () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let rng = Ras_stats.Rng.create 11 in
  let requests =
    Ras_workload.Request_gen.scenario rng ~region ~services:Service.default_catalog
      ~target_utilization:0.4
  in
  let reservations =
    List.map Reservation.of_request requests
    @ Buffers.shared_buffer_reservations region ~fraction:0.02 ~first_id:8000
  in
  let snapshot = Snapshot.take broker reservations in
  let params = { Async_solver.default_params with Async_solver.node_limit = 40 } in
  let stats = Async_solver.solve ~params snapshot in
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover reservations;
  ignore (Online_mover.apply_plan mover stats.Async_solver.plan);
  { broker; reservations; stats }

let fixture = lazy (build_fixture ())

(* ---------- Reservation ---------- *)

let test_reservation_of_request () =
  let req =
    Capacity_request.make ~id:5 ~service:web ~rru:20.0 ~msb_spread_limit:0.2
      ~dc_affinity:[ (0, 0.9) ] ()
  in
  let r = Reservation.of_request req in
  Alcotest.(check int) "id" 5 r.Reservation.id;
  Alcotest.(check (float 1e-9)) "capacity" 20.0 r.Reservation.capacity_rru;
  Alcotest.(check bool) "guaranteed" false (Reservation.is_buffer r);
  Alcotest.(check bool) "accepts compute" true
    (Reservation.accepts r (Option.get (Hw.find_by_code "C3")));
  Alcotest.(check bool) "rejects storage" false
    (Reservation.accepts r (Option.get (Hw.find_by_code "C4-S1")))

let test_shared_buffer_reservation () =
  let r = Reservation.shared_buffer ~id:8000 ~category:Hw.Storage ~capacity_rru:50.0 in
  Alcotest.(check bool) "is buffer" true (Reservation.is_buffer r);
  Alcotest.(check bool) "no embedded buffer" false r.Reservation.embedded_buffer;
  Alcotest.(check bool) "accepts its category" true
    (Reservation.accepts r (Option.get (Hw.find_by_code "C4-S1")));
  Alcotest.(check bool) "rejects others" false
    (Reservation.accepts r (Option.get (Hw.find_by_code "C1")))

(* ---------- Snapshot ---------- *)

let test_snapshot_ownership_accounting () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let res = Reservation.of_request (Capacity_request.make ~id:1 ~service:web ~rru:5.0 ()) in
  (* bind two compute servers *)
  let bound = ref [] in
  for id = 0 to Broker.num_servers broker - 1 do
    if List.length !bound < 2 && res.Reservation.rru_of (hw_of broker id) > 0.0 then begin
      Broker.move broker id (Broker.Reservation 1);
      bound := id :: !bound
    end
  done;
  let snap = Snapshot.take broker [ res ] in
  let expected =
    List.fold_left
      (fun acc id ->
        acc +. res.Reservation.rru_of (hw_of broker id))
      0.0 !bound
  in
  Alcotest.(check (float 1e-9)) "current rru" expected (Snapshot.current_rru snap res);
  let by_msb = Snapshot.rru_by_msb snap res in
  Alcotest.(check (float 1e-9)) "per-msb sums to total" expected
    (Array.fold_left ( +. ) 0.0 by_msb)

let test_snapshot_excludes_unusable () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let res = Reservation.of_request (Capacity_request.make ~id:1 ~service:web ~rru:5.0 ()) in
  for id = 0 to Broker.num_servers broker - 1 do
    if res.Reservation.rru_of (hw_of broker id) > 0.0 then Broker.move broker id (Broker.Reservation 1)
  done;
  let before = Snapshot.current_rru (Snapshot.take broker [ res ]) res in
  (* down one bound server with an unplanned event *)
  let victim =
    List.hd (Broker.servers_with_owner broker (Broker.Reservation 1))
  in
  Broker.mark_down broker victim Unavail.Correlated;
  let after = Snapshot.current_rru (Snapshot.take broker [ res ]) res in
  Alcotest.(check bool) "unusable capacity excluded" true (after < before);
  (* planned maintenance still counts (§3.5.1) *)
  Broker.mark_up broker victim;
  Broker.mark_down broker victim Unavail.Planned_maintenance;
  let planned = Snapshot.current_rru (Snapshot.take broker [ res ]) res in
  Alcotest.(check (float 1e-9)) "planned counts as usable" before planned

let test_snapshot_home_overlay () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  Broker.move broker 0 (Broker.Elastic 9000);
  let snap =
    Snapshot.take ~home_of:(fun id -> if id = 0 then Some Broker.Shared_buffer else None) broker []
  in
  Alcotest.(check bool) "lent server resolved home" true
    (Snapshot.current snap 0 = Broker.Shared_buffer)

(* ---------- Symmetry ---------- *)

let test_symmetry_partition () =
  let lazy { broker; reservations; _ } = fixture in
  let snap = Snapshot.take broker reservations in
  let sym = Symmetry.build snap in
  let usable = Array.fold_left ( + ) 0 (Snapshot.usable_hw_histogram snap) in
  Alcotest.(check int) "classes cover usable servers" usable (Symmetry.total_members sym);
  (* members are homogeneous *)
  Array.iter
    (fun (c : Symmetry.cls) ->
      Array.iter
        (fun id ->
          let s = Snapshot.server snap id in
          Alcotest.(check int) "hw matches" c.Symmetry.hw s.Region.hw.Hw.index;
          Alcotest.(check int) "msb matches" c.Symmetry.msb s.Region.loc.Region.msb;
          Alcotest.(check bool) "in_use matches" c.Symmetry.in_use (Snapshot.in_use_at snap id))
        c.Symmetry.members)
    sym.Symmetry.classes

let test_symmetry_rack_level_finer () =
  let lazy { broker; reservations; _ } = fixture in
  let snap = Snapshot.take broker reservations in
  let msb_level = Symmetry.build snap in
  let rack_level = Symmetry.build ~rack_level:true snap in
  Alcotest.(check bool) "rack classes >= msb classes" true
    (Symmetry.num_classes rack_level >= Symmetry.num_classes msb_level);
  Alcotest.(check bool) "grouped <= raw" true
    (Symmetry.grouped_variable_count msb_level ~reservations
    <= Symmetry.raw_variable_count msb_level ~reservations)

let test_symmetry_current_count () =
  let lazy { broker; reservations; _ } = fixture in
  let snap = Snapshot.take broker reservations in
  let sym = Symmetry.build snap in
  (* summed per-class counts for an owner equal the owner's usable servers *)
  let res = List.find (fun r -> not (Reservation.is_buffer r)) reservations in
  let owner = Broker.Reservation res.Reservation.id in
  let from_classes =
    Array.fold_left
      (fun acc c -> acc + Symmetry.current_count sym c owner)
      0 sym.Symmetry.classes
  in
  let direct =
    List.length
      (ids_desc_where broker (fun id ->
           Broker.current_owner broker id = owner && Broker.available_at broker id))
  in
  Alcotest.(check int) "class counts match broker" direct from_classes

(* ---------- Formulation ---------- *)

let formulation_fixture () =
  let lazy { broker; reservations; _ } = fixture in
  let snap = Snapshot.take broker reservations in
  let sym = Symmetry.build snap in
  (Formulation.build sym reservations, snap)

let test_status_quo_feasible () =
  let f, _ = formulation_fixture () in
  let std = Model.compile f.Formulation.model in
  match Model.check_solution std (Formulation.status_quo f) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_round_lp_feasible () =
  let f, _ = formulation_fixture () in
  let std = Model.compile f.Formulation.model in
  match Simplex.solve std with
  | Simplex.Optimal { x; _ } -> (
    let rounded = Formulation.round_lp f x in
    (match Model.check_solution std rounded with Ok () -> () | Error e -> Alcotest.fail e);
    let repaired = Formulation.repair f rounded in
    match Model.check_solution std repaired with Ok () -> () | Error e -> Alcotest.fail e)
  | _ -> Alcotest.fail "LP should solve"

let test_repair_improves_shortfalls () =
  let f, _ = formulation_fixture () in
  let std = Model.compile f.Formulation.model in
  match Simplex.solve std with
  | Simplex.Optimal { x; _ } ->
    let rounded = Formulation.round_lp f x in
    let repaired = Formulation.repair f rounded in
    let total sol =
      List.fold_left (fun acc (_, v) -> acc +. v) 0.0 (Formulation.capacity_shortfalls f sol)
    in
    Alcotest.(check bool) "repair does not increase shortfall" true
      (total repaired <= total rounded +. 1e-6)
  | _ -> Alcotest.fail "LP should solve"

let test_encode_aux_semantics () =
  (* encode must set every pos-part auxiliary to exactly max(0, e) *)
  let f, _ = formulation_fixture () in
  let sq = Formulation.status_quo f in
  List.iter
    (fun (v, exprs) ->
      let expect =
        List.fold_left
          (fun acc e -> Float.max acc (Ras_mip.Lin_expr.eval e (fun i -> sq.(i))))
          0.0 exprs
      in
      Alcotest.(check (float 1e-6)) "aux at its floor" expect sq.(v))
    f.Formulation.aux_defs

let test_status_quo_zero_movement () =
  let f, _ = formulation_fixture () in
  let sq = Formulation.status_quo f in
  Alcotest.(check (float 1e-6)) "no in-use movement" 0.0
    (Formulation.movement_units f sq ~in_use:true);
  Alcotest.(check (float 1e-6)) "no idle movement" 0.0
    (Formulation.movement_units f sq ~in_use:false)

(* The pair-indexed LP rounding and repair against the table-keyed
   references, whole solution vectors compared with [=]: the rounded root
   LP, the status quo, and every pair at its class size (each class
   oversubscribed, which drives the shed loop). *)
let check_heuristics_match label (f : Formulation.t) =
  let same what a b = Alcotest.(check bool) (Printf.sprintf "%s: %s" label what) true (a = b) in
  let repair_same what x = same what (Formulation.repair f x) (Oracles.repair_reference f x) in
  (match Simplex.solve (Model.compile f.Formulation.model) with
  | Simplex.Optimal { x; _ } ->
    let rounded = Formulation.round_lp f x in
    same "round_lp" rounded (Oracles.round_lp_reference f x);
    repair_same "repair of the rounding" rounded
  | _ -> Alcotest.fail "LP should solve");
  repair_same "repair of the status quo" (Formulation.status_quo f);
  repair_same "repair of an oversubscribed assignment"
    (Formulation.encode f
       (Array.map (fun (p : Formulation.pair) -> Symmetry.size p.Formulation.cls) f.Formulation.pairs))

let test_heuristics_match_references () =
  let f, _ = formulation_fixture () in
  check_heuristics_match "fixture" f

(* ---------- Concretize ---------- *)

let test_concretize_stability_and_cover () =
  let f, snap = formulation_fixture () in
  let sq = Formulation.status_quo f in
  let assignment = Formulation.decode f sq in
  let plan = Concretize.plan f assignment in
  Alcotest.(check int) "status quo has no moves" 0 (List.length plan.Concretize.moves);
  (* an empty assignment frees the whole solve: the moves are exactly the
     classed servers that are not free already, each usable and leaving its
     snapshot owner for [Free] *)
  let sym = f.Formulation.symmetry in
  let owned =
    Array.fold_left
      (fun acc (c : Symmetry.cls) ->
        Array.fold_left
          (fun acc id -> if Snapshot.current snap id <> Broker.Free then id :: acc else acc)
          acc c.Symmetry.members)
      [] sym.Symmetry.classes
    |> List.sort compare
  in
  Alcotest.(check bool) "fixture has owned classed servers" true (owned <> []);
  let emptied = Concretize.plan f (Array.make (Formulation.num_assignment_vars f) 0) in
  Alcotest.(check (list int)) "moves cover the owned classed servers" owned
    (List.map (fun (m : Concretize.move) -> m.Concretize.server) emptied.Concretize.moves);
  List.iter
    (fun (m : Concretize.move) ->
      let id = m.Concretize.server in
      Alcotest.(check bool) "moved server usable" true (Snapshot.usable_at snap id);
      Alcotest.(check bool) "move starts at the snapshot owner" true
        (m.Concretize.from_ = Snapshot.current snap id);
      Alcotest.(check bool) "move frees the server" true (m.Concretize.to_ = Broker.Free))
    emptied.Concretize.moves

let test_concretize_counts_respected () =
  let f, snap = formulation_fixture () in
  let std = Model.compile f.Formulation.model in
  match Simplex.solve std with
  | Simplex.Optimal { x; _ } ->
    let sol = Formulation.repair f (Formulation.round_lp f x) in
    let assignment = Formulation.decode f sol in
    let plan = Concretize.plan f assignment in
    Alcotest.(check bool) "plan equals the reference concretizer's moves" true
      (plan.Concretize.moves = fst (Oracles.concretize_reference f assignment));
    (* every move is a usable, classed server *)
    let classed = Hashtbl.create 256 in
    Array.iter
      (fun (c : Symmetry.cls) -> Array.iter (fun id -> Hashtbl.replace classed id ()) c.Symmetry.members)
      f.Formulation.symmetry.Symmetry.classes;
    List.iter
      (fun (m : Concretize.move) ->
        let id = m.Concretize.server in
        Alcotest.(check bool) "moved server usable" true (Snapshot.usable_at snap id);
        Alcotest.(check bool) "moved server classed" true (Hashtbl.mem classed id))
      plan.Concretize.moves;
    (* per (class, reservation) the number of servers the plan leaves with
       the owner equals the decoded count *)
    let target_of = Oracles.plan_target snap plan in
    Array.iteri
      (fun i { Formulation.cls; res; _ } ->
        let owner = Reservation.owner res in
        let got =
          Array.fold_left
            (fun acc id -> if target_of id = owner then acc + 1 else acc)
            0 cls.Symmetry.members
        in
        (* shared-buffer owners pool across category reservations *)
        if not (Reservation.is_buffer res) then
          Alcotest.(check int) "count realized" assignment.(i) got)
      f.Formulation.pairs
  | _ -> Alcotest.fail "LP should solve"

(* ---------- Async solver end-to-end ---------- *)

let test_solver_meets_capacity () =
  let lazy { broker; reservations; stats } = fixture in
  let snap = Snapshot.take broker reservations in
  let short_ids = List.map fst stats.Async_solver.shortfalls in
  List.iter
    (fun res ->
      if (not (Reservation.is_buffer res)) && not (List.mem res.Reservation.id short_ids) then begin
        let bound = Snapshot.current_rru snap res in
        Alcotest.(check bool)
          (Printf.sprintf "capacity met for %s" res.Reservation.name)
          true
          (bound >= res.Reservation.capacity_rru -. 1e-6)
      end)
    reservations

let test_embedded_buffer_survives_any_msb () =
  (* the paper's headline guarantee (expression 6): after losing ANY single
     MSB, a buffered reservation still holds its requested capacity *)
  let lazy { broker; reservations; stats } = fixture in
  let snap = Snapshot.take broker reservations in
  let short_ids = List.map fst stats.Async_solver.shortfalls in
  List.iter
    (fun res ->
      if
        res.Reservation.embedded_buffer
        && (not (Reservation.is_buffer res))
        && not (List.mem res.Reservation.id short_ids)
      then begin
        let per_msb = Snapshot.rru_by_msb snap res in
        let total = Array.fold_left ( +. ) 0.0 per_msb in
        Array.iteri
          (fun msb v ->
            Alcotest.(check bool)
              (Printf.sprintf "%s survives loss of MSB %d" res.Reservation.name msb)
              true
              (total -. v >= res.Reservation.capacity_rru -. 1e-6))
          per_msb
      end)
    reservations

let test_solver_duration_and_phases () =
  let lazy { stats; _ } = fixture in
  Alcotest.(check bool) "positive duration" true (stats.Async_solver.duration_s > 0.0);
  Alcotest.(check bool) "phase1 has variables" true
    (stats.Async_solver.phase1.Phases.grouped_vars > 0);
  Alcotest.(check bool) "raw >= grouped" true
    (stats.Async_solver.phase1.Phases.raw_vars >= stats.Async_solver.phase1.Phases.grouped_vars)

(* A region whose rack-spread limits send reservations to phase 2. *)
let phase2_world () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let rng = Ras_stats.Rng.create 11 in
  let requests =
    Ras_workload.Request_gen.scenario rng ~region ~services:Service.default_catalog
      ~target_utilization:0.4
    |> List.map (fun (r : Capacity_request.t) ->
           if r.Capacity_request.rru >= 5.0 then
             { r with Capacity_request.rack_spread_limit = Some 0.06 }
           else r)
  in
  let reservations =
    List.map Reservation.of_request requests
    @ Buffers.shared_buffer_reservations region ~fraction:0.02 ~first_id:8000
  in
  ignore (Ras_twine.Greedy.fulfill broker requests);
  (Snapshot.take broker reservations, reservations)

let phase2_params = { Async_solver.default_params with Async_solver.node_limit = 40 }

let phase2_solve =
  lazy
    (let snapshot, _ = phase2_world () in
     (snapshot, Async_solver.solve ~params:phase2_params snapshot))

(* The two-phase merge: phase 2 re-places the worst reservations on top of
   phase 1, and the merged plan must be the snapshot diffed against phase
   1's reference targets overlaid by phase 2's. *)
let test_solver_merge_matches_oracle () =
  let snapshot, stats = Lazy.force phase2_solve in
  let phase2 =
    match stats.Async_solver.phase2 with
    | Some p2 -> p2
    | None -> Alcotest.fail "rack-spread limits should send reservations to phase 2"
  in
  let target = Hashtbl.create 1024 in
  List.iter
    (fun (r : Phases.result) ->
      let f = r.Phases.formulation in
      List.iter
        (fun (id, o) -> Hashtbl.replace target id o)
        (snd (Oracles.concretize_reference f (Formulation.decode f r.Phases.solution))))
    [ stats.Async_solver.phase1; phase2 ];
  let expected =
    Hashtbl.fold
      (fun id o acc ->
        let current = Snapshot.current snapshot id in
        if o = current then acc
        else
          { Concretize.server = id; from_ = current; to_ = o;
            was_in_use = Snapshot.in_use_at snapshot id }
          :: acc)
      target []
    |> List.sort (fun (a : Concretize.move) b -> compare a.Concretize.server b.Concretize.server)
  in
  Alcotest.(check bool) "the plan moves servers" true (expected <> []);
  Alcotest.(check bool) "merged plan equals the overlaid reference targets" true
    (stats.Async_solver.plan.Concretize.moves = expected);
  (* both phases' formulations, phase 2's rack-level, heuristics included *)
  check_heuristics_match "phase 1" stats.Async_solver.phase1.Phases.formulation;
  check_heuristics_match "phase 2" phase2.Phases.formulation

(* Phase 2 classes only servers owned, after phase 1, by the free pool or by
   a reservation it refines. *)
let test_phase2_classes_selected_owners () =
  let _, stats = Lazy.force phase2_solve in
  match stats.Async_solver.phase2 with
  | None -> Alcotest.fail "rack-spread limits should send reservations to phase 2"
  | Some p2 ->
    let f = p2.Phases.formulation in
    let sym = f.Formulation.symmetry in
    let owners = Broker.Free :: List.map Reservation.owner f.Formulation.reservations in
    Alcotest.(check bool) "phase 2 classes some servers" true (Symmetry.total_members sym > 0);
    Array.iter
      (fun (c : Symmetry.cls) ->
        Array.iter
          (fun id ->
            Alcotest.(check bool) "member owned by Free or a selected reservation" true
              (List.mem (Snapshot.current sym.Symmetry.snapshot id) owners))
          c.Symmetry.members)
      sym.Symmetry.classes

(* [~owners] confines both phases: no server outside the owner set moves. *)
let test_solver_owner_filter () =
  let snapshot, reservations = phase2_world () in
  let kept = List.filteri (fun i _ -> i mod 2 = 0) reservations in
  let owners = Broker.Free :: List.map Reservation.owner kept in
  let stats = Async_solver.solve ~params:phase2_params ~owners snapshot in
  let moves = stats.Async_solver.plan.Concretize.moves in
  Alcotest.(check bool) "the plan moves servers" true (moves <> []);
  Alcotest.(check bool) "some servers lie outside the owner set" true
    (List.exists
       (fun id -> not (List.mem (Snapshot.current snapshot id) owners))
       (List.init (Snapshot.num_servers snapshot) Fun.id));
  List.iter
    (fun (m : Concretize.move) ->
      Alcotest.(check bool) "moved server's snapshot owner is in the set" true
        (List.mem (Snapshot.current snapshot m.Concretize.server) owners))
    moves

(* ---------- storage quorum spread (paragraph 3.3.2) ---------- *)

let test_quorum_cap_helper () =
  Alcotest.(check (float 1e-9)) "R=3 Q=2" (1.0 /. 3.0)
    (Capacity_request.quorum_cap ~replicas:3 ~quorum:2);
  Alcotest.(check (float 1e-9)) "R=5 Q=3" 0.4 (Capacity_request.quorum_cap ~replicas:5 ~quorum:3);
  Alcotest.(check bool) "bad quorum rejected" true
    (try
       ignore (Capacity_request.quorum_cap ~replicas:3 ~quorum:4);
       false
     with Invalid_argument _ -> true)

let test_quorum_spread_enforced () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let req =
    Capacity_request.make ~id:1 ~service:ds ~rru:12.0 ~embedded_buffer:false
      ~hard_msb_cap:(Capacity_request.quorum_cap ~replicas:3 ~quorum:2)
      ~msb_spread_limit:0.5 ()
  in
  let reservations = [ Reservation.of_request req ] in
  let stats = Async_solver.solve (Snapshot.take broker reservations) in
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover reservations;
  ignore (Online_mover.apply_plan mover stats.Async_solver.plan);
  let snap = Snapshot.take broker reservations in
  let res = List.hd reservations in
  let per_msb = Snapshot.rru_by_msb snap res in
  let total = Array.fold_left ( +. ) 0.0 per_msb in
  Alcotest.(check bool) "capacity met" true (total >= 12.0 -. 1e-6);
  let worst = Array.fold_left Float.max 0.0 per_msb /. total in
  (* one server of granularity tolerance on top of the 1/3 cap *)
  Alcotest.(check bool)
    (Printf.sprintf "max MSB share %.2f within quorum cap" worst)
    true
    (worst <= (1.0 /. 3.0) +. 0.15)

(* ---------- Online mover ---------- *)

let test_mover_failure_replacement () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let res = Reservation.of_request (Capacity_request.make ~id:1 ~service:web ~rru:5.0 ()) in
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover [ res ];
  (* one server in the reservation, one compatible in the shared buffer *)
  let compute =
    ids_desc_where broker (fun id -> res.Reservation.rru_of (hw_of broker id) > 0.0)
  in
  (match compute with
  | a :: b :: _ ->
    Broker.move broker a (Broker.Reservation 1);
    Broker.move broker b Broker.Shared_buffer;
    Broker.mark_down broker a Unavail.Unplanned_hw;
    Alcotest.(check int) "replacement done" 1 (Online_mover.replacements_done mover);
    Alcotest.(check bool) "buffer server moved in" true
      (Broker.current_owner broker b = Broker.Reservation 1)
  | _ -> Alcotest.fail "fixture too small")

(* [apply_plan] writes a target for each planned move, applied or not, and
   touches nothing else. *)
let test_mover_apply_plan_contract () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let mover = Online_mover.create broker in
  let preempted = ref [] in
  Online_mover.on_preempt mover (fun id -> preempted := id :: !preempted);
  Broker.set_in_use broker 0 true;
  Broker.mark_down broker 1 Unavail.Unplanned_hw;
  Broker.set_target broker 2 (Broker.Reservation 7);
  let move server =
    { Concretize.server; from_ = Broker.Free; to_ = Broker.Reservation 1; was_in_use = server = 0 }
  in
  let stats = Online_mover.apply_plan mover { Concretize.moves = [ move 0; move 1 ] } in
  let current id = Broker.current_owner broker id in
  let target id = Broker.owner_of_code (Broker.target_code broker id) in
  Alcotest.(check bool) "applied move: current = to_" true (current 0 = Broker.Reservation 1);
  Alcotest.(check bool) "applied move: target = to_" true (target 0 = Broker.Reservation 1);
  Alcotest.(check int) "applied in-use move counted" 1 stats.Online_mover.moved_in_use;
  Alcotest.(check (list int)) "in-use server preempted" [ 0 ] !preempted;
  Alcotest.(check bool) "skipped move: current unchanged" true (current 1 = Broker.Free);
  Alcotest.(check bool) "skipped move: target = to_" true (target 1 = Broker.Reservation 1);
  Alcotest.(check int) "skipped move counted" 1 stats.Online_mover.skipped_unavailable;
  Alcotest.(check int) "no idle move" 0 stats.Online_mover.moved_unused;
  Alcotest.(check bool) "server outside the plan keeps its target" true
    (target 2 = Broker.Reservation 7 && current 2 = Broker.Free)

(* [apply_plan] is compare-and-set: a server bound elsewhere since the
   snapshot keeps its owner and target; a lent server is compared by its
   home owner. *)
let test_mover_apply_plan_compare_and_set () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let mover = Online_mover.create broker in
  let plan server from_ =
    { Concretize.moves = [ { Concretize.server; from_; to_ = Broker.Reservation 1; was_in_use = false } ] }
  in
  (* a tier-1 write binds server 0 to R2 after the plan's snapshot *)
  Broker.move broker 0 (Broker.Reservation 2);
  Broker.set_target broker 0 (Broker.Reservation 2);
  let stats = Online_mover.apply_plan mover (plan 0 Broker.Free) in
  Alcotest.(check int) "conflict counted" 1 stats.Online_mover.conflicts;
  Alcotest.(check int) "nothing moved" 0
    (stats.Online_mover.moved_in_use + stats.Online_mover.moved_unused);
  Alcotest.(check bool) "owner kept" true (Broker.current_owner broker 0 = Broker.Reservation 2);
  Alcotest.(check bool) "target kept" true
    (Broker.target_code broker 0 = Broker.owner_code (Broker.Reservation 2));
  (* a lent buffer server: the snapshot saw its home, the shared buffer *)
  Broker.move broker 1 Broker.Shared_buffer;
  Alcotest.(check int) "lent" 1 (Online_mover.lend_idle mover ~elastic_id:9000 ~max_servers:1);
  let stats = Online_mover.apply_plan mover (plan 1 Broker.Shared_buffer) in
  Alcotest.(check int) "no conflict" 0 stats.Online_mover.conflicts;
  Alcotest.(check bool) "lent server moved" true (Broker.current_owner broker 1 = Broker.Reservation 1);
  Alcotest.(check int) "loan ended" 0 (Online_mover.loans_outstanding mover)

let test_mover_replacement_fails_without_buffer () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let res = Reservation.of_request (Capacity_request.make ~id:1 ~service:web ~rru:5.0 ()) in
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover [ res ];
  Broker.move broker 0 (Broker.Reservation 1);
  Broker.mark_down broker 0 Unavail.Unplanned_hw;
  Alcotest.(check int) "no replacement available" 1 (Online_mover.replacements_failed mover)

let test_mover_planned_no_replacement () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let res = Reservation.of_request (Capacity_request.make ~id:1 ~service:web ~rru:5.0 ()) in
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover [ res ];
  Broker.move broker 0 (Broker.Reservation 1);
  Broker.mark_down broker 0 Unavail.Planned_maintenance;
  Alcotest.(check int) "planned events need no mover action" 0
    (Online_mover.replacements_done mover + Online_mover.replacements_failed mover)

let test_mover_lend_and_revoke () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let mover = Online_mover.create broker in
  Broker.move broker 0 Broker.Shared_buffer;
  Broker.move broker 1 Broker.Shared_buffer;
  let lent = Online_mover.lend_idle mover ~elastic_id:9000 ~max_servers:5 in
  Alcotest.(check int) "both lent" 2 lent;
  Alcotest.(check int) "loans tracked" 2 (Online_mover.loans_outstanding mover);
  Alcotest.(check bool) "owner is elastic" true
    (Broker.current_owner broker 0 = Broker.Elastic 9000);
  Alcotest.(check bool) "home resolved" true
    (Online_mover.home_of mover 0 = Some Broker.Shared_buffer);
  let revoked = Online_mover.revoke mover ~elastic_id:9000 in
  Alcotest.(check int) "revoked" 2 revoked;
  Alcotest.(check bool) "back home" true
    (Broker.current_owner broker 0 = Broker.Shared_buffer);
  Alcotest.(check int) "no loans left" 0 (Online_mover.loans_outstanding mover)

let test_mover_replacement_revokes_loan () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let res = Reservation.of_request (Capacity_request.make ~id:1 ~service:web ~rru:5.0 ()) in
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover [ res ];
  let compute =
    ids_desc_where broker (fun id -> res.Reservation.rru_of (hw_of broker id) > 0.0)
  in
  match compute with
  | a :: b :: _ ->
    Broker.move broker a (Broker.Reservation 1);
    Broker.move broker b Broker.Shared_buffer;
    ignore (Online_mover.lend_idle mover ~elastic_id:9000 ~max_servers:5);
    Alcotest.(check bool) "b lent out" true
      (Broker.current_owner broker b = Broker.Elastic 9000);
    Broker.mark_down broker a Unavail.Unplanned_hw;
    Alcotest.(check bool) "loan revoked for replacement" true
      (Broker.current_owner broker b = Broker.Reservation 1)
  | _ -> Alcotest.fail "fixture too small"

let test_solver_converges_to_stability () =
  (* continuous optimization must reach a fixed point: after a few
     solve/apply rounds on a static region, plans stop moving servers *)
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let rng = Ras_stats.Rng.create 11 in
  let requests =
    Ras_workload.Request_gen.scenario rng ~region ~services:Service.default_catalog
      ~target_utilization:0.4
  in
  let reservations =
    List.map Reservation.of_request requests
    @ Buffers.shared_buffer_reservations region ~fraction:0.02 ~first_id:8000
  in
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover reservations;
  let params = { Async_solver.default_params with Async_solver.node_limit = 0 } in
  let last_moves = ref max_int in
  for _ = 1 to 4 do
    let stats = Async_solver.solve ~params (Snapshot.take broker reservations) in
    ignore (Online_mover.apply_plan mover stats.Async_solver.plan);
    last_moves := List.length stats.Async_solver.plan.Concretize.moves
  done;
  Alcotest.(check bool)
    (Printf.sprintf "converged (last plan had %d moves)" !last_moves)
    true (!last_moves <= 2)

let test_mover_replacement_sla () =
  (* with an engine attached, replacements land one simulated minute after
     the failure, not before (paragraph 3.3.1's replacement SLO) *)
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let engine = Ras_sim.Engine.create () in
  let res = Reservation.of_request (Capacity_request.make ~id:1 ~service:web ~rru:5.0 ()) in
  let mover = Online_mover.create ~engine broker in
  Online_mover.set_reservations mover [ res ];
  let compute =
    ids_desc_where broker (fun id -> res.Reservation.rru_of (hw_of broker id) > 0.0)
  in
  match compute with
  | a :: b :: _ ->
    Broker.move broker a (Broker.Reservation 1);
    Broker.move broker b Broker.Shared_buffer;
    Ras_sim.Engine.run_until engine 10.0;
    Broker.mark_down broker a Unavail.Unplanned_hw;
    Alcotest.(check int) "nothing replaced synchronously" 0
      (Online_mover.replacements_done mover);
    Ras_sim.Engine.run_until engine (10.0 +. (0.5 /. 60.0));
    Alcotest.(check int) "still pending at 30s" 0 (Online_mover.replacements_done mover);
    Ras_sim.Engine.run_until engine (10.0 +. (1.5 /. 60.0));
    Alcotest.(check int) "replaced within the minute" 1
      (Online_mover.replacements_done mover)
  | _ -> Alcotest.fail "fixture too small"

let test_mover_skips_recovered_server () =
  (* if the server comes back before the one-minute mark, no replacement is
     spent on it *)
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let engine = Ras_sim.Engine.create () in
  let res = Reservation.of_request (Capacity_request.make ~id:1 ~service:web ~rru:5.0 ()) in
  let mover = Online_mover.create ~engine broker in
  Online_mover.set_reservations mover [ res ];
  Broker.move broker 0 (Broker.Reservation 1);
  Broker.move broker 1 Broker.Shared_buffer;
  Broker.mark_down broker 0 Unavail.Unplanned_sw;
  Ras_sim.Engine.run_until engine (0.5 /. 60.0);
  Broker.mark_up broker 0;
  Ras_sim.Engine.run_until engine 1.0;
  Alcotest.(check int) "no replacement for a bounced server" 0
    (Online_mover.replacements_done mover)

(* ---------- Health ---------- *)

let test_health_overlap_severity () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let engine = Ras_sim.Engine.create () in
  let events =
    [
      { Unavail.id = 0; scope = Unavail.Server 0; kind = Unavail.Planned_maintenance; start_h = 1.0; duration_h = 10.0 };
      { Unavail.id = 1; scope = Unavail.Server 0; kind = Unavail.Correlated; start_h = 2.0; duration_h = 2.0 };
    ]
  in
  let _ = Health.install engine broker events in
  Ras_sim.Engine.run_until engine 1.5;
  (* planned maintenance is the one unhealthy state that stays available *)
  let planned () = (not (Broker.healthy_at broker 0)) && Broker.available_at broker 0 in
  Alcotest.(check bool) "planned active" true (planned ());
  Ras_sim.Engine.run_until engine 3.0;
  Alcotest.(check bool) "correlated overrides" false (Broker.available_at broker 0);
  Ras_sim.Engine.run_until engine 5.0;
  Alcotest.(check bool) "falls back to planned" true (planned ());
  Ras_sim.Engine.run_until engine 12.0;
  Alcotest.(check bool) "healthy at the end" true (Broker.healthy_at broker 0)

(* ---------- Emergency ---------- *)

let test_emergency_grant () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let reactive = Reactive.create broker in
  let res = Reservation.of_request (Capacity_request.make ~id:1 ~service:web ~rru:4.0 ()) in
  let grant = Emergency.grant ~reactive broker ~reservation:res ~rru:4.0 ~allow_buffer:false in
  Alcotest.(check bool) "granted" true (grant.Emergency.granted_rru >= 4.0);
  Alcotest.(check int) "nothing from buffer" 0 grant.Emergency.took_from_buffer;
  List.iter
    (fun id ->
      Alcotest.(check bool) "bound directly" true
        (Broker.current_owner broker id = Broker.Reservation 1))
    grant.Emergency.servers

let test_emergency_buffer_opt_in () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  (* put ALL compute in the shared buffer so the free pool cannot satisfy *)
  let res = Reservation.of_request (Capacity_request.make ~id:1 ~service:web ~rru:2.0 ()) in
  for id = 0 to Broker.num_servers broker - 1 do
    if res.Reservation.rru_of (hw_of broker id) > 0.0 then Broker.move broker id Broker.Shared_buffer
  done;
  let reactive = Reactive.create broker in
  let no_buffer = Emergency.grant ~reactive broker ~reservation:res ~rru:2.0 ~allow_buffer:false in
  Alcotest.(check (float 1e-9)) "nothing without opt-in" 0.0 no_buffer.Emergency.granted_rru;
  let with_buffer = Emergency.grant ~reactive broker ~reservation:res ~rru:2.0 ~allow_buffer:true in
  Alcotest.(check bool) "buffer drained with opt-in" true
    (with_buffer.Emergency.granted_rru >= 2.0 && with_buffer.Emergency.took_from_buffer > 0)

let test_solve_repairs_emergency_damage () =
  (* the out-of-band path may drain the shared buffer; the next solve must
     restore the buffer reservation to its capacity (paper §5.4) *)
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let reservations =
    Buffers.shared_buffer_reservations region ~fraction:0.05 ~first_id:8000
  in
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover reservations;
  let params = { Async_solver.default_params with Async_solver.node_limit = 0 } in
  let solve_apply () =
    let stats = Async_solver.solve ~params (Snapshot.take broker reservations) in
    ignore (Online_mover.apply_plan mover stats.Async_solver.plan)
  in
  solve_apply ();
  let buffer_capacity snap =
    List.fold_left
      (fun acc res -> acc +. Snapshot.current_rru snap res)
      0.0 reservations
  in
  let before = buffer_capacity (Snapshot.take broker reservations) in
  Alcotest.(check bool) "buffers filled" true (before > 0.0);
  (* occupy the free compute pool so the urgent grant must dip into the
     shared buffer *)
  let urgent = Reservation.of_request (Capacity_request.make ~id:99 ~service:web ~rru:8.0 ()) in
  for id = 0 to Broker.num_servers broker - 1 do
    if Broker.current_owner broker id = Broker.Free && urgent.Reservation.rru_of (hw_of broker id) > 0.0
    then Broker.move broker id (Broker.Reservation 77)
  done;
  let grant =
    Emergency.grant ~reactive:(Online_mover.reactive mover) broker ~reservation:urgent ~rru:8.0
      ~allow_buffer:true
  in
  Alcotest.(check bool) "emergency took buffer servers" true
    (grant.Emergency.took_from_buffer > 0);
  let drained = buffer_capacity (Snapshot.take broker reservations) in
  Alcotest.(check bool) "buffer depleted" true (drained < before);
  (* release the artificial squatter, then the next solve (with the urgent
     reservation now a first-class citizen) refills the shared buffer *)
  List.iter
    (fun id -> Broker.move broker id Broker.Free)
    (Broker.servers_with_owner broker (Broker.Reservation 77));
  let reservations' = urgent :: reservations in
  Online_mover.set_reservations mover reservations';
  let stats = Async_solver.solve ~params (Snapshot.take broker reservations') in
  ignore (Online_mover.apply_plan mover stats.Async_solver.plan);
  let snap = Snapshot.take broker reservations' in
  List.iter
    (fun res ->
      Alcotest.(check bool)
        (Printf.sprintf "%s restored" res.Reservation.name)
        true
        (Snapshot.current_rru snap res >= res.Reservation.capacity_rru -. 1e-6))
    reservations;
  Alcotest.(check bool) "urgent reservation kept its capacity" true
    (Snapshot.current_rru snap urgent >= 8.0 -. 1e-6)

(* ---------- Buffers ---------- *)

let test_shared_buffer_sizing () =
  let region = Generator.generate Generator.small_params in
  let buffers = Buffers.shared_buffer_reservations region ~fraction:0.02 ~first_id:8000 in
  Alcotest.(check bool) "at least one category" true (buffers <> []);
  List.iter
    (fun b ->
      Alcotest.(check bool) "buffer kind" true (Reservation.is_buffer b);
      Alcotest.(check bool) "positive capacity" true (b.Reservation.capacity_rru >= 1.0))
    buffers

let test_buffer_bounds_ordering () =
  let lazy { broker; reservations; _ } = fixture in
  let snap = Snapshot.take broker reservations in
  let perfect = Buffers.perfect_spread_bound (Broker.region broker) in
  let hw_bound = Buffers.hardware_aware_bound snap reservations in
  let achieved = Buffers.embedded_buffer_fraction snap in
  Alcotest.(check (float 1e-9)) "perfect bound = 1/6" (1.0 /. 6.0) perfect;
  if not (Float.is_nan hw_bound) then
    Alcotest.(check bool) "hardware bound >= perfect - eps" true (hw_bound >= perfect -. 0.02);
  if not (Float.is_nan achieved) && not (Float.is_nan hw_bound) then
    Alcotest.(check bool) "achieved >= hardware bound - eps" true (achieved >= hw_bound -. 0.02)

(* ---------- Explain ---------- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec loop i = i + nn <= nh && (String.sub haystack i nn = needle || loop (i + 1)) in
  nn = 0 || loop 0

let test_explain_reports () =
  let lazy { broker; reservations; stats } = fixture in
  let snap = Snapshot.take broker reservations in
  let res = List.find (fun r -> not (Reservation.is_buffer r)) reservations in
  let report = Explain.reservation_report snap res in
  Alcotest.(check bool) "names the reservation" true (contains report res.Reservation.name);
  Alcotest.(check bool) "mentions spread" true (contains report "spread");
  let solve = Explain.solve_report stats in
  Alcotest.(check bool) "mentions phases" true (contains solve "phase 1");
  let reason = Explain.shortfall_reason snap res ~shortfall:1.0 in
  Alcotest.(check bool) "reason non-empty" true (String.length reason > 20)

let test_shadow_prices_surface_binding_rows () =
  (* a reservation competing for scarce GPU hardware makes its capacity row
     (or the GPU supply rows) carry a non-trivial shadow price *)
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let ml =
    Service.make ~id:1 ~name:"ml" ~profile:Service.Ml_training ~min_generation:2 ()
  in
  let req =
    Capacity_request.make ~id:1 ~service:ml ~rru:500.0 ~embedded_buffer:false
      ~msb_spread_limit:0.5 ()
  in
  let reservations = [ Reservation.of_request req ] in
  let result = Phases.run ~mip_node_limit:0 (Snapshot.take broker reservations) reservations in
  let prices = Explain.shadow_prices ~top:5 result in
  Alcotest.(check bool) "some constraint binds" true (prices <> []);
  List.iter
    (fun (name, price) ->
      Alcotest.(check bool) "named row" true (String.length name > 0);
      Alcotest.(check bool) "non-trivial price" true (Float.abs price > 1e-6))
    prices

(* ---------- System ---------- *)

let test_system_end_to_end () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let rng = Ras_stats.Rng.create 11 in
  let requests =
    Ras_workload.Request_gen.scenario rng ~region ~services:Service.default_catalog
      ~target_utilization:0.4
  in
  let config =
    {
      System.default_config with
      System.solver = { Async_solver.default_params with Async_solver.node_limit = 0 };
    }
  in
  let sys = System.create ~config broker in
  List.iter (System.add_request sys) requests;
  let failures =
    Ras_failures.Failure_model.generate (Ras_stats.Rng.create 5) region
      Ras_failures.Failure_model.calm_params ~horizon_days:1.0
  in
  System.install_failures sys failures;
  System.start sys;
  System.run sys ~until_h:24.0;
  Alcotest.(check bool) "solves happened" true (List.length (System.solve_history sys) >= 24);
  let metrics = System.metrics sys in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " recorded") true (Ras_sim.Metrics.find metrics name <> None))
    [ "max_msb_share"; "power_variance"; "moves_in_use"; "moves_unused"; "unavailable_frac" ];
  (* reservations hold their capacity at the end *)
  let snap = System.snapshot sys in
  let last_shortfalls =
    match List.rev (System.solve_history sys) with
    | last :: _ -> List.map fst last.Async_solver.shortfalls
    | [] -> []
  in
  List.iter
    (fun res ->
      if (not (Reservation.is_buffer res)) && not (List.mem res.Reservation.id last_shortfalls)
      then
        Alcotest.(check bool)
          (Printf.sprintf "%s capacity held" res.Reservation.name)
          true
          (Snapshot.current_rru snap res >= res.Reservation.capacity_rru -. 1e-6))
    (System.reservations sys)

let test_system_remove_reservation () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let sys = System.create broker in
  let req = Capacity_request.make ~id:1 ~service:ds ~rru:4.0 () in
  System.add_request sys req;
  ignore (System.solve_now sys);
  Alcotest.(check bool) "servers bound" true
    (Broker.count_owner broker (Broker.Reservation 1) > 0);
  System.remove_reservation sys 1;
  Alcotest.(check int) "servers released" 0 (Broker.count_owner broker (Broker.Reservation 1))

let suite =
  [
    Alcotest.test_case "reservation of_request" `Quick test_reservation_of_request;
    Alcotest.test_case "shared buffer reservation" `Quick test_shared_buffer_reservation;
    Alcotest.test_case "snapshot ownership" `Quick test_snapshot_ownership_accounting;
    Alcotest.test_case "snapshot excludes unusable" `Quick test_snapshot_excludes_unusable;
    Alcotest.test_case "snapshot home overlay" `Quick test_snapshot_home_overlay;
    Alcotest.test_case "symmetry partition" `Slow test_symmetry_partition;
    Alcotest.test_case "symmetry rack level finer" `Slow test_symmetry_rack_level_finer;
    Alcotest.test_case "symmetry current_count" `Slow test_symmetry_current_count;
    Alcotest.test_case "status quo feasible" `Slow test_status_quo_feasible;
    Alcotest.test_case "round_lp + repair feasible" `Slow test_round_lp_feasible;
    Alcotest.test_case "repair improves shortfalls" `Slow test_repair_improves_shortfalls;
    Alcotest.test_case "encode aux semantics" `Slow test_encode_aux_semantics;
    Alcotest.test_case "status quo zero movement" `Slow test_status_quo_zero_movement;
    Alcotest.test_case "heuristics match references" `Slow test_heuristics_match_references;
    Alcotest.test_case "concretize stability" `Slow test_concretize_stability_and_cover;
    Alcotest.test_case "concretize counts" `Slow test_concretize_counts_respected;
    Alcotest.test_case "solver meets capacity" `Slow test_solver_meets_capacity;
    Alcotest.test_case "embedded buffer survives any MSB" `Slow test_embedded_buffer_survives_any_msb;
    Alcotest.test_case "solver duration/phases" `Slow test_solver_duration_and_phases;
    Alcotest.test_case "solver two-phase merge matches oracle" `Slow test_solver_merge_matches_oracle;
    Alcotest.test_case "solver phase 2 classes selected owners" `Slow test_phase2_classes_selected_owners;
    Alcotest.test_case "solver owner filter" `Slow test_solver_owner_filter;
    Alcotest.test_case "quorum cap helper" `Quick test_quorum_cap_helper;
    Alcotest.test_case "quorum spread enforced" `Slow test_quorum_spread_enforced;
    Alcotest.test_case "mover failure replacement" `Quick test_mover_failure_replacement;
    Alcotest.test_case "mover apply_plan contract" `Quick test_mover_apply_plan_contract;
    Alcotest.test_case "mover apply_plan compare-and-set" `Quick test_mover_apply_plan_compare_and_set;
    Alcotest.test_case "mover replacement fails w/o buffer" `Quick test_mover_replacement_fails_without_buffer;
    Alcotest.test_case "mover ignores planned" `Quick test_mover_planned_no_replacement;
    Alcotest.test_case "mover lend and revoke" `Quick test_mover_lend_and_revoke;
    Alcotest.test_case "mover replacement revokes loan" `Quick test_mover_replacement_revokes_loan;
    Alcotest.test_case "solver converges to stability" `Slow test_solver_converges_to_stability;
    Alcotest.test_case "mover replacement SLA" `Quick test_mover_replacement_sla;
    Alcotest.test_case "mover skips recovered server" `Quick test_mover_skips_recovered_server;
    Alcotest.test_case "health overlap severity" `Quick test_health_overlap_severity;
    Alcotest.test_case "emergency grant" `Quick test_emergency_grant;
    Alcotest.test_case "emergency buffer opt-in" `Quick test_emergency_buffer_opt_in;
    Alcotest.test_case "solve repairs emergency damage" `Slow test_solve_repairs_emergency_damage;
    Alcotest.test_case "shared buffer sizing" `Quick test_shared_buffer_sizing;
    Alcotest.test_case "buffer bounds ordering" `Slow test_buffer_bounds_ordering;
    Alcotest.test_case "explain reports" `Slow test_explain_reports;
    Alcotest.test_case "shadow prices surface binding rows" `Quick
      test_shadow_prices_surface_binding_rows;
    Alcotest.test_case "system end to end" `Slow test_system_end_to_end;
    Alcotest.test_case "system remove reservation" `Quick test_system_remove_reservation;
  ]
