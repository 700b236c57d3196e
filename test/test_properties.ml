(* Cross-cutting property tests: concretization realizes solver counts with
   minimal movement, the simplex survives badly-scaled data, and the whole
   simulated system is deterministic in its seeds. *)

open Ras
module Broker = Ras_broker.Broker
module Generator = Ras_topology.Generator
module Region = Ras_topology.Region
module Service = Ras_workload.Service
module Model = Ras_mip.Model
module Lin_expr = Ras_mip.Lin_expr
module Simplex = Ras_mip.Simplex

(* ---------- concretize: counts realized, movement minimal ---------- *)

let fixture () =
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
  (* put the broker in a non-trivial starting state *)
  ignore (Ras_twine.Greedy.fulfill broker requests);
  let snapshot = Snapshot.take broker reservations in
  let symmetry = Symmetry.build snapshot in
  Formulation.build symmetry reservations

let prop_concretize_realizes_random_counts =
  QCheck.Test.make ~name:"concretize realizes random counts with minimal movement" ~count:25
    QCheck.int
    (fun seed ->
      let f = fixture () in
      let rng = Ras_stats.Rng.create seed in
      (* random feasible counts: walk classes, hand out supply to random
         acceptable reservations *)
      let counts = Array.make (Formulation.num_assignment_vars f) 0 in
      Array.iter
        (fun (cls : Symmetry.cls) ->
          let budget = ref (Symmetry.size cls) in
          Array.iteri
            (fun i (p : Formulation.pair) ->
              if p.Formulation.cls == cls && !budget > 0 then begin
                let take = Ras_stats.Rng.int rng (!budget + 1) in
                counts.(i) <- take;
                budget := !budget - take
              end)
            f.Formulation.pairs)
        f.Formulation.symmetry.Symmetry.classes;
      let solution = Formulation.encode f counts in
      let assignment = Formulation.decode f solution in
      let plan = Concretize.plan f assignment in
      let snapshot = f.Formulation.symmetry.Symmetry.snapshot in
      let target_of = Oracles.plan_target snapshot plan in
      (* 0. the delta plan is the reference concretizer's, move for move *)
      let reference_ok = plan.Concretize.moves = fst (Oracles.concretize_reference f assignment) in
      (* 1. realized counts match (buffer reservations pool per category, so
         check guaranteed ones exactly) *)
      let realized_ok =
        Array.for_all2
          (fun (p : Formulation.pair) count ->
            Reservation.is_buffer p.Formulation.res
            ||
            let owner = Reservation.owner p.Formulation.res in
            let got =
              Array.fold_left
                (fun acc id -> if target_of id = owner then acc + 1 else acc)
                0 p.Formulation.cls.Symmetry.members
            in
            got = count)
          f.Formulation.pairs counts
      in
      (* 2. movement minimality: per guaranteed pair, exactly
         max(0, N0 - n) members leave the owner *)
      let movement_ok =
        Array.for_all2
          (fun (p : Formulation.pair) count ->
            Reservation.is_buffer p.Formulation.res
            ||
            let owner = Reservation.owner p.Formulation.res in
            let n0 = Symmetry.current_count f.Formulation.symmetry p.Formulation.cls owner in
            let stayed =
              Array.fold_left
                (fun acc id ->
                  if Snapshot.current snapshot id = owner && target_of id = owner then acc + 1
                  else acc)
                0 p.Formulation.cls.Symmetry.members
            in
            stayed = min n0 count)
          f.Formulation.pairs counts
      in
      reference_ok && realized_ok && movement_ok)

(* ---------- symmetry aggregation invariants ---------- *)

(* Randomized regions with random churn (greedy fulfillment, failures of
   every kind, a random-modulus placement attribute) exercise the streaming
   aggregation path far from the presets. *)
let aggregation_world seed =
  let module R = Ras_stats.Rng in
  let rng = R.create seed in
  let params =
    {
      Generator.name = "prop-agg";
      Generator.num_dcs = 1 + R.int rng 3;
      msbs_per_dc = 1 + R.int rng 3;
      racks_per_msb = 1 + R.int rng 4;
      servers_per_rack = 1 + R.int rng 6;
      seed = R.int rng 10_000;
    }
  in
  let region = Generator.generate params in
  let broker = Broker.create region in
  let requests =
    Ras_workload.Request_gen.scenario rng ~region ~services:Service.default_catalog
      ~target_utilization:(0.2 +. R.float rng 0.4)
  in
  let reservations =
    List.map Reservation.of_request requests
    @ Buffers.shared_buffer_reservations region ~fraction:0.02 ~first_id:8000
  in
  ignore (Ras_twine.Greedy.fulfill broker requests);
  let n = Broker.num_servers broker in
  for _ = 1 to R.int rng (1 + (n / 10)) do
    let id = R.int rng n in
    let kind =
      match R.int rng 4 with
      | 0 -> Ras_failures.Unavail.Planned_maintenance
      | 1 -> Ras_failures.Unavail.Unplanned_sw
      | 2 -> Ras_failures.Unavail.Unplanned_hw
      | _ -> Ras_failures.Unavail.Correlated
    in
    Broker.mark_down broker id kind
  done;
  let attr_mod = 2 + R.int rng 8 in
  let attr_of id = if id mod attr_mod = 0 then 1 else 0 in
  (broker, reservations, attr_of)

let aggregation_scenario seed =
  let broker, reservations, attr_of = aggregation_world seed in
  (Snapshot.take ~attr_of broker reservations, reservations)

let prop_aggregation_invariants =
  QCheck.Test.make ~name:"symmetry aggregation invariants (200-seed corpus)" ~count:200
    QCheck.int
    (fun seed ->
      let snapshot, reservations = aggregation_scenario seed in
      let sym = Symmetry.build snapshot in
      (* 1. the streaming build matches the list-grouping oracle, over every
         owner and over a seed-chosen owner set (the phase-2 and gradual
         enablement filter), down to the compiled model *)
      let same_classes (a : Symmetry.t) (b : Symmetry.t) =
        Symmetry.num_classes a = Symmetry.num_classes b
        && Array.for_all2
             (fun (a : Symmetry.cls) (b : Symmetry.cls) ->
               Symmetry.class_name a = Symmetry.class_name b
               && a.Symmetry.members = b.Symmetry.members)
             a.Symmetry.classes b.Symmetry.classes
      in
      let owner_rng = Ras_stats.Rng.create (seed lxor 0x0e5) in
      let kept =
        List.filter (fun _ -> Ras_stats.Rng.bool owner_rng) reservations
      in
      let owners = Broker.Free :: List.map Reservation.owner kept in
      let compiled ~rack_level sym reservations =
        Model.compile (Formulation.build ~rack_level sym reservations).Formulation.model
      in
      let matches_reference =
        same_classes sym (Oracles.symmetry_reference snapshot)
        &&
        let filtered = Symmetry.build ~rack_level:true ~owners snapshot in
        let reference = Oracles.symmetry_reference ~rack_level:true ~owners snapshot in
        same_classes filtered reference
        && compare
             (compiled ~rack_level:true filtered kept)
             (compiled ~rack_level:true reference kept)
           = 0
      in
      (* 2. class counts sum to the usable server count *)
      let usable = ref 0 in
      for id = 0 to Snapshot.num_servers snapshot - 1 do
        if Snapshot.usable_at snapshot id then incr usable
      done;
      let counts_sum = Symmetry.total_members sym = !usable in
      (* 3. members really are interchangeable with the representative:
         identical hardware subtype, in-use flag and attribute, so any
         per-class capacity is the representative's value times the count *)
      let representative_ok =
        Array.for_all
          (fun (c : Symmetry.cls) ->
            let hw = Symmetry.hw_of c in
            Array.for_all
              (fun id ->
                (Snapshot.server snapshot id).Region.hw.Ras_topology.Hardware.index
                = hw.Ras_topology.Hardware.index
                && Snapshot.in_use_at snapshot id = c.Symmetry.in_use
                && Snapshot.attr_at snapshot id = c.Symmetry.attr)
              c.Symmetry.members)
          sym.Symmetry.classes
      in
      let capacity_ok =
        List.for_all
          (fun (res : Reservation.t) ->
            Array.for_all
              (fun (c : Symmetry.cls) ->
                let per = res.Reservation.rru_of (Symmetry.hw_of c) in
                let summed =
                  Array.fold_left
                    (fun acc id ->
                      acc +. res.Reservation.rru_of (Snapshot.server snapshot id).Region.hw)
                    0.0 c.Symmetry.members
                in
                Float.abs (summed -. (per *. float_of_int (Symmetry.size c)))
                <= 1e-9 *. (1.0 +. Float.abs summed))
              sym.Symmetry.classes)
          reservations
      in
      (* 4. the O(1) owner histograms cover every member exactly once *)
      let histogram_ok =
        Array.for_all
          (fun (c : Symmetry.cls) ->
            let tbl = sym.Symmetry.owner_counts.(c.Symmetry.index) in
            Hashtbl.fold (fun _ k acc -> acc + k) tbl 0 = Symmetry.size c)
          sym.Symmetry.classes
      in
      (* 5. aggregation o disaggregation is the identity on the current
         assignment: encoding the status quo and concretizing it moves
         nothing, so every server keeps its snapshot owner *)
      let f = Formulation.build sym reservations in
      let assignment = Formulation.decode f (Formulation.status_quo f) in
      let plan = Concretize.plan f assignment in
      let identity_ok = plan.Concretize.moves = [] in
      (* 6. an arbitrary per-pair assignment, oversubscribed classes
         included, concretizes to the reference concretizer's moves *)
      let arbitrary =
        let rng = Ras_stats.Rng.create (seed lxor 0x5eed) in
        Array.map
          (fun (p : Formulation.pair) ->
            Ras_stats.Rng.int rng (Symmetry.size p.Formulation.cls + 1))
          f.Formulation.pairs
      in
      let reference_ok =
        (Concretize.plan f arbitrary).Concretize.moves
        = fst (Oracles.concretize_reference f arbitrary)
      in
      matches_reference && counts_sum && representative_ok && capacity_ok && histogram_ok
      && identity_ok && reference_ok)

(* ---------- formulation heuristics vs their references ---------- *)

(* The pair-indexed LP rounding and repair must return the table-keyed
   references' solution vectors exactly ([=] on the whole float array) on
   every kind of input the solver hands them: the rounded root LP, the
   status quo, an arbitrary per-pair assignment that oversubscribes classes
   (the shed loop), and last round's incumbent mapped onto a churned
   round's formulation, as the continuous loop seeds it. *)
let prop_heuristics_match_references =
  QCheck.Test.make
    ~name:"LP rounding and repair match the table-keyed references (200-seed corpus)"
    ~count:200 QCheck.int
    (fun seed ->
      let module R = Ras_stats.Rng in
      let broker, reservations, attr_of = aggregation_world seed in
      let formulation () =
        let f =
          Formulation.build (Symmetry.build (Snapshot.take ~attr_of broker reservations)) reservations
        in
        (f, Model.compile f.Formulation.model)
      in
      let repair_ok f x = Formulation.repair f x = Oracles.repair_reference f x in
      let f, std = formulation () in
      (* 1. the rounded root LP, then its repair *)
      let lp_ok, incumbent =
        match Simplex.solve std with
        | Simplex.Optimal { x; _ } ->
          let rounded = Formulation.round_lp f x in
          ( rounded = Oracles.round_lp_reference f x && repair_ok f rounded,
            Formulation.repair f rounded )
        | Simplex.Infeasible _ | Simplex.Unbounded | Simplex.Iteration_limit _ ->
          (false, Formulation.status_quo f)
      in
      (* 2. the status quo *)
      let status_quo_ok = repair_ok f (Formulation.status_quo f) in
      (* 3. an arbitrary per-pair assignment, classes oversubscribed *)
      let rng = R.create (seed lxor 0xa11) in
      let arbitrary =
        Formulation.encode f
          (Array.map
             (fun (p : Formulation.pair) -> R.int rng (Symmetry.size p.Formulation.cls + 1))
             f.Formulation.pairs)
      in
      let arbitrary_ok = repair_ok f arbitrary in
      (* 4. churn the region (failures, recoveries, ownership and in-use
         flips), then repair the incumbent mapped onto the new round *)
      let n = Broker.num_servers broker in
      for _ = 1 to 1 + R.int rng (1 + (n / 5)) do
        let id = R.int rng n in
        match R.int rng 4 with
        | 0 -> Broker.mark_down broker id Ras_failures.Unavail.Unplanned_hw
        | 1 -> Broker.mark_up broker id
        | 2 -> Broker.move broker id Broker.Free
        | _ -> Broker.set_in_use broker id (R.bool rng)
      done;
      let f2, std2 = formulation () in
      let stale =
        Ras_mip.Incremental.(map_solution (diff ~prev:std ~next:std2)) incumbent
      in
      lp_ok && status_quo_ok && arbitrary_ok && repair_ok f2 stale)

(* ---------- simplex under bad scaling ---------- *)

let prop_simplex_survives_bad_scaling =
  QCheck.Test.make ~name:"simplex handles wide coefficient ranges" ~count:100 QCheck.int
    (fun seed ->
      let module R = Ras_stats.Rng in
      let rng = R.create seed in
      let n = 2 + R.int rng 3 in
      let m = Model.create () in
      let scale_of () = [| 1e-2; 1.0; 1e2; 1e4 |].(R.int rng 4) in
      let vars = Array.init n (fun _ -> Model.add_var ~ub:(10.0 *. scale_of ()) m) in
      let point = Array.init n (fun i -> Ras_stats.Rng.float rng (Model.var_bounds m vars.(i) |> snd)) in
      for _ = 1 to 1 + R.int rng 3 do
        let cs = Array.init n (fun _ -> scale_of () *. float_of_int (R.int rng 9 - 4)) in
        let lhs = ref 0.0 in
        Array.iteri (fun i c -> lhs := !lhs +. (c *. point.(i))) cs;
        let e = Lin_expr.of_terms (List.init n (fun i -> (cs.(i), vars.(i)))) in
        ignore (Model.add_constraint m e Model.Le (!lhs +. Float.abs !lhs *. 0.01 +. 1.0))
      done;
      Model.set_objective m
        (Lin_expr.of_terms (List.init n (fun i -> (float_of_int (R.int rng 9 - 4), vars.(i)))));
      let std = Model.compile m in
      match Simplex.solve std with
      | Simplex.Optimal { x; _ } ->
        (* relative feasibility: residuals scale with row magnitude *)
        let ok = ref true in
        for i = 0 to std.Model.nrows - 1 do
          let lhs = ref 0.0 and mag = ref 1.0 in
          Array.iteri
            (fun k j ->
              let term = std.Model.row_coefs.(i).(k) *. x.(j) in
              lhs := !lhs +. term;
              mag := !mag +. Float.abs term)
            std.Model.row_cols.(i);
          let slack = std.Model.rhs.(i) -. !lhs in
          (match std.Model.row_sense.(i) with
          | Model.Le -> if slack < -1e-6 *. !mag then ok := false
          | Model.Ge -> if slack > 1e-6 *. !mag then ok := false
          | Model.Eq -> if Float.abs slack > 1e-6 *. !mag then ok := false)
        done;
        !ok
      | Simplex.Unbounded -> true
      | Simplex.Infeasible _ | Simplex.Iteration_limit _ -> false)

(* ---------- Devex pricing invariants ---------- *)

(* Feasible-by-construction bounded random LP: finite boxes and rows
   anchored on an interior point, so every solve is Optimal and the Devex
   machinery actually pivots. *)
let random_bounded_lp seed =
  let module R = Ras_stats.Rng in
  let rng = R.create seed in
  let n = 3 + R.int rng 10 in
  let mrows = 2 + R.int rng 8 in
  let m = Model.create () in
  let lbs = Array.make n 0.0 and ubs = Array.make n 0.0 in
  let vars =
    Array.init n (fun j ->
        let lo = R.float rng 10.0 -. 5.0 in
        let hi = lo +. 1.0 +. R.float rng 9.0 in
        lbs.(j) <- lo;
        ubs.(j) <- hi;
        Model.add_var ~lb:lo ~ub:hi m)
  in
  let point = Array.init n (fun j -> lbs.(j) +. R.float rng (ubs.(j) -. lbs.(j))) in
  for _ = 1 to mrows do
    let k = 1 + R.int rng (min 6 n) in
    let picked = Array.init n (fun i -> i) in
    R.shuffle rng picked;
    let terms =
      List.init k (fun t ->
          ((1.0 +. R.float rng 4.0) *. (if R.bool rng then 1.0 else -1.0), picked.(t)))
    in
    let at_point = List.fold_left (fun acc (c, j) -> acc +. (c *. point.(j))) 0.0 terms in
    let e = Lin_expr.of_terms (List.map (fun (c, j) -> (c, vars.(j))) terms) in
    let sense, rhs =
      match R.int rng 5 with
      | 0 -> (Model.Eq, at_point)
      | 1 | 2 -> (Model.Le, at_point +. R.float rng 5.0)
      | _ -> (Model.Ge, at_point -. R.float rng 5.0)
    in
    ignore (Model.add_constraint m e sense rhs)
  done;
  Model.set_objective m
    (Lin_expr.of_terms (List.init n (fun j -> (R.float rng 10.0 -. 5.0, vars.(j)))));
  Model.compile m

(* Reference-framework weights start at 1 and only ever grow through
   max-updates, so the minimum over all columns must stay >= 1 after every
   single pivot — checked via the solver's trace hook. *)
let prop_devex_weights_ge_one =
  QCheck.Test.make ~name:"devex weights stay >= 1 after every pivot" ~count:100 QCheck.int
    (fun seed ->
      let std = random_bounded_lp seed in
      let ok = ref true and pivots = ref 0 in
      let trace ~iteration:_ ~min_devex_weight =
        incr pivots;
        if min_devex_weight < 1.0 then ok := false
      in
      match Simplex.solve ~pricing:Simplex.Devex ~trace std with
      | Simplex.Optimal _ -> !ok
      | _ -> false)

(* A framework reset mid-solve restarts the weights from a different basis
   but must not change what the solver converges to: same objective, and on
   these continuously-random (tie-free) instances the same optimal basis. *)
let prop_devex_reset_equivalence =
  QCheck.Test.make ~name:"devex mid-solve weight reset preserves the answer" ~count:100
    QCheck.int (fun seed ->
      let std = random_bounded_lp seed in
      let plain = Simplex.solve ~pricing:Simplex.Devex std in
      let reset = Simplex.solve ~pricing:Simplex.Devex ~devex_reset_period:3 std in
      match (plain, reset) with
      | Simplex.Optimal a, Simplex.Optimal b ->
        let same_basis =
          let sorted w = List.sort compare (Array.to_list w.Simplex.wcols) in
          sorted a.basis = sorted b.basis
        in
        Float.abs (a.obj -. b.obj) <= 1e-6 *. (1.0 +. Float.abs a.obj) && same_basis
      | _ -> false)

(* ---------- whole-system determinism ---------- *)

let run_system () =
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
      Ras_failures.Failure_model.default_params ~horizon_days:0.5
  in
  System.install_failures sys failures;
  System.start sys;
  System.run sys ~until_h:12.0;
  let m = System.metrics sys in
  List.map
    (fun name ->
      match Ras_sim.Metrics.find m name with
      | Some s -> (name, Ras_stats.Timeseries.points s)
      | None -> (name, [||]))
    [ "max_msb_share"; "moves_unused"; "unavailable_frac"; "free_servers" ]

let test_system_deterministic () =
  let a = run_system () and b = run_system () in
  List.iter2
    (fun (name_a, pts_a) (name_b, pts_b) ->
      Alcotest.(check string) "same series" name_a name_b;
      Alcotest.(check int) (name_a ^ " same length") (Array.length pts_a) (Array.length pts_b);
      Array.iteri
        (fun i (t, v) ->
          let t', v' = pts_b.(i) in
          Alcotest.(check (float 1e-12)) (name_a ^ " time") t t';
          Alcotest.(check (float 1e-12)) (name_a ^ " value") v v')
        pts_a)
    a b

let suite =
  [
    QCheck_alcotest.to_alcotest prop_concretize_realizes_random_counts;
    QCheck_alcotest.to_alcotest prop_aggregation_invariants;
    QCheck_alcotest.to_alcotest prop_simplex_survives_bad_scaling;
    QCheck_alcotest.to_alcotest prop_devex_weights_ge_one;
    QCheck_alcotest.to_alcotest prop_devex_reset_equivalence;
    Alcotest.test_case "system runs are deterministic" `Slow test_system_deterministic;
    QCheck_alcotest.to_alcotest prop_heuristics_match_references;
  ]
