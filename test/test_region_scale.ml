(* Region-scale battery: the streaming, symmetry-aggregated pipeline at the
   north-star preset (§3.3.1: 36 MSBs, ~10^6 servers).

   The region-scale preset varies only [servers_per_rack] between scales;
   rack hardware is drawn once per rack, so the same logical region exists
   at ~2x10^4 (spr=1), ~10^5 (spr=5) and ~10^6 (spr=48) raw servers with
   identical class structure.  That gives three pins:

   - equivalence: the streaming [Symmetry.build] must agree with the
     list-grouping oracle [Oracles.symmetry_reference] class-for-class, over
     every owner and over an owner set, and produce the same compiled model, which must solve to the same
     verdict/objective under every pricing rule and both kernel backends;
   - disaggregation: a class-level solution concretized to per-server
     moves must equal the reference concretizer's, and the resulting
     owners re-aggregated must encode back to a feasible vector with the
     same objective (at the full preset, the LP rounding and repair must
     also equal their table-keyed references);
   - ceilings: compiled size must be independent of raw server count
     (Fig. 10/11 regime), formulation+compile and concretize allocation
     must be bounded by model size and moves (not server count), and the
     columnar snapshot/symmetry live footprint must stay a few words per
     server.

   [dune runtest] keeps the sweep at spr <= 5; RAS_SCALE_TESTS=full adds
   the 10^6 run (the dedicated CI job sets it). *)

open Ras
module Broker = Ras_broker.Broker
module Generator = Ras_topology.Generator
module Region = Ras_topology.Region
module Unavail = Ras_failures.Unavail
module Model = Ras_mip.Model
module Simplex = Ras_mip.Simplex
module Basis = Ras_mip.Basis

let full_scale () = Sys.getenv_opt "RAS_SCALE_TESTS" = Some "full"

let params_at ~servers_per_rack =
  { Generator.region_scale_params with Generator.servers_per_rack }

(* The bench preset's workload (kernels.ml scenario_snapshot), plus churn:
   greedy fulfillment, scattered failures of every kind, and a sparse
   placement attribute, so symmetry sees non-trivial in_use/usable/attr
   columns. *)
let scale_snapshot ?(churn = true) ~servers_per_rack () =
  let region = Generator.generate (params_at ~servers_per_rack) in
  let broker = Broker.create region in
  let services =
    List.filter
      (fun s -> s.Ras_workload.Service.id <= 12 || s.Ras_workload.Service.id = 13
                || s.Ras_workload.Service.id = 17)
      Ras_workload.Service.default_catalog
  in
  let rng = Ras_stats.Rng.create 11 in
  let requests =
    Ras_workload.Request_gen.scenario rng ~region ~services ~target_utilization:0.45
  in
  let reservations =
    List.map Reservation.of_request requests
    @ Buffers.shared_buffer_reservations region ~fraction:0.02 ~first_id:8000
  in
  if churn then begin
    ignore (Ras_twine.Greedy.fulfill broker requests);
    let n = Broker.num_servers broker in
    let frng = Ras_stats.Rng.create 23 in
    for _ = 1 to n / 200 do
      let id = Ras_stats.Rng.int frng n in
      let kind =
        match Ras_stats.Rng.int frng 4 with
        | 0 -> Unavail.Planned_maintenance
        | 1 -> Unavail.Unplanned_sw
        | 2 -> Unavail.Unplanned_hw
        | _ -> Unavail.Correlated
      in
      Broker.mark_down broker id kind
    done
  end;
  (* note: an id-keyed attribute is deliberately confined to the churn
     configuration — server ids shift with [servers_per_rack], so the scale
     sweep (churn = false) must stay attribute-free to remain invariant *)
  let attr_of = if churn then fun id -> if id mod 97 = 0 then 1 else 0 else fun _ -> 0 in
  (Snapshot.take ~attr_of broker reservations, reservations)

(* ---------- aggregation equivalence: streaming vs reference oracle ----- *)

let check_symmetry_equal (a : Symmetry.t) (b : Symmetry.t) =
  Alcotest.(check int) "same class count" (Symmetry.num_classes b) (Symmetry.num_classes a);
  Array.iteri
    (fun i (ca : Symmetry.cls) ->
      let cb = b.Symmetry.classes.(i) in
      Alcotest.(check string) "class name" (Symmetry.class_name cb) (Symmetry.class_name ca);
      Alcotest.(check int) "class index" cb.Symmetry.index ca.Symmetry.index;
      Alcotest.(check (array int)) "class members" cb.Symmetry.members ca.Symmetry.members)
    a.Symmetry.classes

let check_std_equal (a : Model.std) (b : Model.std) =
  Alcotest.(check int) "nvars" b.Model.nvars a.Model.nvars;
  Alcotest.(check int) "nrows" b.Model.nrows a.Model.nrows;
  Alcotest.(check (array string)) "var names" b.Model.var_names a.Model.var_names;
  Alcotest.(check (array string)) "row names" b.Model.row_names a.Model.row_names;
  let farr name xa xb = Alcotest.(check (array (float 0.0))) name xb xa in
  farr "obj" a.Model.obj b.Model.obj;
  Alcotest.(check (float 0.0)) "obj offset" b.Model.obj_offset a.Model.obj_offset;
  farr "lb" a.Model.lb b.Model.lb;
  farr "ub" a.Model.ub b.Model.ub;
  farr "rhs" a.Model.rhs b.Model.rhs;
  Alcotest.(check (array bool)) "integer" b.Model.integer a.Model.integer;
  Alcotest.(check bool) "row senses" true (a.Model.row_sense = b.Model.row_sense);
  Alcotest.(check (array int)) "col_ptr" b.Model.col_ptr a.Model.col_ptr;
  Alcotest.(check (array int)) "col_ind" b.Model.col_ind a.Model.col_ind;
  farr "col_val" a.Model.col_val b.Model.col_val

let test_streaming_matches_reference () =
  let snapshot, reservations = scale_snapshot ~servers_per_rack:1 () in
  let streamed = Symmetry.build snapshot in
  let reference = Oracles.symmetry_reference snapshot in
  check_symmetry_equal streamed reference;
  (* O(1) owner histograms agree with a direct member scan *)
  let owners =
    Broker.Free :: Broker.Shared_buffer
    :: List.filter_map
         (fun (r : Reservation.t) ->
           if Reservation.is_buffer r then None
           else Some (Broker.Reservation r.Reservation.id))
         reservations
  in
  Array.iter
    (fun (c : Symmetry.cls) ->
      List.iter
        (fun owner ->
          let scanned =
            Array.fold_left
              (fun acc id -> if Snapshot.current snapshot id = owner then acc + 1 else acc)
              0 c.Symmetry.members
          in
          Alcotest.(check int) "current_count vs scan" scanned
            (Symmetry.current_count streamed c owner))
        owners)
    streamed.Symmetry.classes;
  (* same compiled model, bit for bit *)
  let std_of sym =
    let f = Formulation.build sym reservations in
    Model.compile f.Formulation.model
  in
  check_std_equal (std_of streamed) (std_of reference);
  (* rack-level builds over an owner set (phase 2's filter: the free pool
     plus every other reservation) agree too, down to the compiled model *)
  let kept = List.filteri (fun i _ -> i mod 2 = 0) reservations in
  let owners = Broker.Free :: List.map Reservation.owner kept in
  let filtered = Symmetry.build ~rack_level:true ~owners snapshot in
  let filtered_reference = Oracles.symmetry_reference ~rack_level:true ~owners snapshot in
  Alcotest.(check bool) "the owner set drops some servers, keeps others" true
    (let kept_members = Symmetry.total_members filtered in
     kept_members > 0 && kept_members < Symmetry.total_members streamed);
  check_symmetry_equal filtered filtered_reference;
  let rack_std_of sym =
    Model.compile (Formulation.build ~rack_level:true sym kept).Formulation.model
  in
  check_std_equal (rack_std_of filtered) (rack_std_of filtered_reference)

(* ---------- solve equivalence across pricing rules ---------- *)

let test_solves_agree_across_rules () =
  let snapshot, reservations = scale_snapshot ~servers_per_rack:1 () in
  let symmetry = Symmetry.build snapshot in
  let f = Formulation.build symmetry reservations in
  let std = Model.compile f.Formulation.model in
  let solve pricing =
    match Simplex.solve ~pricing std with
    | Simplex.Optimal { obj; _ } -> obj
    | _ -> Alcotest.fail "region-scale root LP must be optimal"
  in
  let reference_obj = solve Simplex.Devex in
  List.iter
    (fun pricing ->
      (* pricing rules may take different paths but land on the same LP
         optimum *)
      let obj = solve pricing in
      Alcotest.(check bool) "objective agrees across pricing rules" true
        (Float.abs (obj -. reference_obj) <= 1e-6 *. Float.max 1.0 (Float.abs reference_obj)))
    [ Simplex.Dantzig; Simplex.Devex ]

(* ---------- disaggregation round trip ---------- *)

let test_disaggregation_round_trip () =
  let snapshot, reservations = scale_snapshot ~servers_per_rack:1 () in
  let result = Phases.run ~mip_node_limit:0 snapshot reservations in
  let f = result.Phases.formulation in
  let std = result.Phases.compiled in
  let solution = result.Phases.solution in
  Alcotest.(check bool) "solver solution is feasible" true
    (Model.check_solution std solution = Ok ());
  (* at the full preset, the region-scale rounding and repair equal the
     table-keyed references, whole vectors *)
  if full_scale () then begin
    match Simplex.solve std with
    | Simplex.Optimal { x; _ } ->
      let rounded = Formulation.round_lp f x in
      Alcotest.(check bool) "round_lp equals the reference" true
        (rounded = Oracles.round_lp_reference f x);
      Alcotest.(check bool) "repair equals the reference" true
        (Formulation.repair f rounded = Oracles.repair_reference f rounded);
      let sq = Formulation.status_quo f in
      Alcotest.(check bool) "status-quo repair equals the reference" true
        (Formulation.repair f sq = Oracles.repair_reference f sq)
    | _ -> Alcotest.fail "region-scale root LP must be optimal"
  end;
  (* class counts -> per-server moves, identical to the reference
     concretizer's *)
  let assignment = Formulation.decode f solution in
  let plan = Concretize.plan f assignment in
  Alcotest.(check bool) "plan equals the reference concretizer's moves" true
    (plan.Concretize.moves = fst (Oracles.concretize_reference f assignment));
  let target_of = Oracles.plan_target snapshot plan in
  (* re-aggregate the per-server assignment back into per-pair counts.
     Guaranteed reservations own their targets directly; buffer reservations
     pool [Shared_buffer] servers per hardware category, and every class has
     one hardware subtype, so membership is unambiguous per pair. *)
  let count_of (p : Formulation.pair) =
    let res = p.Formulation.res in
    Array.fold_left
      (fun acc id ->
        match target_of id with
        | Broker.Shared_buffer when Reservation.is_buffer res ->
          if res.Reservation.rru_of (Snapshot.server snapshot id).Region.hw > 0.0 then
            acc + 1
          else acc
        | o when o = Reservation.owner res && not (Reservation.is_buffer res) -> acc + 1
        | _ -> acc)
      0 p.Formulation.cls.Symmetry.members
  in
  let rebuilt = Formulation.encode f (Array.map count_of f.Formulation.pairs) in
  Alcotest.(check bool) "re-aggregated solution is feasible" true
    (Model.check_solution std rebuilt = Ok ());
  let obj_orig = Model.objective_value std solution
  and obj_rebuilt = Model.objective_value std rebuilt in
  Alcotest.(check bool)
    (Printf.sprintf "objective preserved (%.6f vs %.6f)" obj_orig obj_rebuilt)
    true
    (Float.abs (obj_orig -. obj_rebuilt) <= 1e-9 *. Float.max 1.0 (Float.abs obj_orig))

(* ---------- scale sweep: compiled size independent of raw server count -- *)

let compiled_at ~servers_per_rack =
  let snapshot, reservations = scale_snapshot ~churn:false ~servers_per_rack () in
  let symmetry = Symmetry.build snapshot in
  let f = Formulation.build symmetry reservations in
  let std = Model.compile f.Formulation.model in
  let names = Array.map Symmetry.class_name symmetry.Symmetry.classes in
  (Snapshot.num_servers snapshot, names, std)

let test_scale_invariance () =
  let sweep = if full_scale () then [ 1; 5; 48 ] else [ 1; 5 ] in
  let results = List.map (fun spr -> (spr, compiled_at ~servers_per_rack:spr)) sweep in
  let _, (_, names0, std0) = List.hd results in
  List.iter
    (fun (spr, (n, names, std)) ->
      Alcotest.(check int)
        (Printf.sprintf "server count at spr=%d" spr)
        (20_880 * spr) n;
      Alcotest.(check (array string))
        (Printf.sprintf "identical class names at spr=%d" spr)
        names0 names;
      Alcotest.(check int) (Printf.sprintf "identical nvars at spr=%d" spr)
        std0.Model.nvars std.Model.nvars;
      Alcotest.(check int) (Printf.sprintf "identical nrows at spr=%d" spr)
        std0.Model.nrows std.Model.nrows)
    results;
  (* the Fig. 10/11 regime: a region-scale model compiles to thousands of
     variables, not millions *)
  Alcotest.(check bool) "compiled size in the aggregated regime" true
    (std0.Model.nvars < 20_000 && std0.Model.nrows < 20_000);
  if full_scale () then begin
    (* and the full 10^6-server pipeline solves end to end *)
    let snapshot, reservations = scale_snapshot ~servers_per_rack:48 () in
    let result = Phases.run ~mip_node_limit:0 snapshot reservations in
    Alcotest.(check bool) "million-server heuristic solve is feasible" true
      (Model.check_solution result.Phases.compiled result.Phases.solution = Ok ())
  end

(* ---------- memory ceilings ---------- *)

(* Allocation during Formulation.build + Model.compile, and during the
   disaggregation of a solution back to servers, must track model size and
   moves, not raw server count: 5x the servers with the same class
   structure may not cost more than ~1.5x the allocation.  Concretizing the
   status quo moves nothing, so it is billed for its classes alone. *)
let test_build_allocation_scale_independent () =
  let allocated f =
    let before = Gc.allocated_bytes () in
    let r = f () in
    let after = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity r);
    after -. before
  in
  let measure ~servers_per_rack =
    let snapshot, reservations = scale_snapshot ~churn:false ~servers_per_rack () in
    let symmetry = Symmetry.build snapshot in
    (* warm up so one-time lazy setup is not billed to either measurement *)
    ignore (Formulation.build symmetry reservations);
    let build =
      allocated (fun () -> Model.compile (Formulation.build symmetry reservations).Formulation.model)
    in
    let f = Formulation.build symmetry reservations in
    let status_quo = Formulation.decode f (Formulation.status_quo f) in
    let concretize = allocated (fun () -> Concretize.plan f status_quo) in
    (build, concretize)
  in
  let small_build, small_plan = measure ~servers_per_rack:1 in
  let large_build, large_plan = measure ~servers_per_rack:5 in
  Alcotest.(check bool)
    (Printf.sprintf "5x servers => %.2fx build allocation (limit 1.5x)" (large_build /. small_build))
    true
    (large_build <= 1.5 *. small_build);
  Alcotest.(check bool)
    (Printf.sprintf "5x servers => %.2fx concretize allocation (limit 1.5x)"
       (large_plan /. small_plan))
    true
    (large_plan <= 1.5 *. small_plan)

(* The columnar stores must cost O(1) words per server: snapshot columns
   (owner codes + attr ints, two byte columns) and symmetry member arrays
   plus per-class tables. *)
let test_live_words_per_server () =
  let servers_per_rack = 5 in
  let snapshot, _ = scale_snapshot ~servers_per_rack () in
  let n = Snapshot.num_servers snapshot in
  let words o = Obj.reachable_words (Obj.repr o) in
  let snapshot_words =
    words snapshot.Snapshot.current + words snapshot.Snapshot.in_use
    + words snapshot.Snapshot.usable + words snapshot.Snapshot.attr
  in
  (* two int columns (1 word/server) + two byte columns (1/8 word/server) *)
  Alcotest.(check bool)
    (Printf.sprintf "snapshot columns: %.2f words/server (limit 4)"
       (float_of_int snapshot_words /. float_of_int n))
    true
    (snapshot_words <= (4 * n) + 1024);
  let symmetry = Symmetry.build snapshot in
  let symmetry_words =
    words symmetry.Symmetry.classes + words symmetry.Symmetry.owner_counts
  in
  (* member id arrays (1 word/usable server) + class records + histograms *)
  Alcotest.(check bool)
    (Printf.sprintf "symmetry: %.2f words/server (limit 2 + 256K)"
       (float_of_int symmetry_words /. float_of_int n))
    true
    (symmetry_words <= (2 * n) + (256 * 1024))

let suite =
  [
    Alcotest.test_case "streaming symmetry build matches the reference oracle" `Quick
      test_streaming_matches_reference;
    Alcotest.test_case "aggregated model solves identically across pricing rules" `Quick
      test_solves_agree_across_rules;
    Alcotest.test_case "disaggregation round trip preserves feasibility and objective" `Slow
      test_disaggregation_round_trip;
    Alcotest.test_case "compiled model size is invariant in raw server count" `Slow
      test_scale_invariance;
    Alcotest.test_case "build allocation is bounded by model size, not server count" `Slow
      test_build_allocation_scale_independent;
    Alcotest.test_case "columnar stores cost O(1) words per server" `Quick
      test_live_words_per_server;
  ]
