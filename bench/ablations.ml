(* Ablation benches for the design choices DESIGN.md calls out: symmetry
   grouping, two-phase solving, the shared random-failure buffer, and the
   in-use/unused movement-cost ratio. *)

module Broker = Ras_broker.Broker
module Failure_model = Ras_failures.Failure_model

let scenario preset =
  let region = Scenarios.region_of preset in
  let broker = Broker.create region in
  let requests = Solver_runs.with_rack_limits (Scenarios.requests_of preset region) in
  let reservations =
    List.map Ras.Reservation.of_request requests
    @ Ras.Buffers.shared_buffer_reservations region ~fraction:0.02 ~first_id:8000
  in
  (region, broker, reservations)

let run_symmetry () =
  Report.heading "Ablation: symmetry grouping"
    ~paper:"§3.5.2: grouping identical servers is what makes region solves fit the SLO"
    ~expect:"grouped variables orders of magnitude below per-server variables";
  List.iter
    (fun preset ->
      let _, broker, reservations = scenario preset in
      let snapshot = Ras.Snapshot.take broker reservations in
      let t0 = Unix.gettimeofday () in
      let msb_level = Ras.Symmetry.build snapshot in
      let f = Ras.Formulation.build msb_level reservations in
      let std = Ras_mip.Model.compile f.Ras.Formulation.model in
      let t_grouped = Unix.gettimeofday () -. t0 in
      let t0 = Unix.gettimeofday () in
      let rack_level = Ras.Symmetry.build ~rack_level:true snapshot in
      let f_rack = Ras.Formulation.build ~rack_level:true rack_level reservations in
      let std_rack = Ras_mip.Model.compile f_rack.Ras.Formulation.model in
      let t_rack = Unix.gettimeofday () -. t0 in
      Report.row
        "%-8s per-server vars %6d | MSB-grouped %5d (build %.2fs, %s) | rack-grouped %5d (build %.2fs, %s)\n"
        (Scenarios.label_of preset)
        (Ras.Symmetry.raw_variable_count msb_level ~reservations)
        (Ras.Symmetry.grouped_variable_count msb_level ~reservations)
        t_grouped
        (Format.asprintf "%a" Ras_mip.Model.pp_stats std)
        (Ras.Symmetry.grouped_variable_count rack_level ~reservations)
        t_rack
        (Format.asprintf "%a" Ras_mip.Model.pp_stats std_rack))
    [ Scenarios.Small; Scenarios.Medium ]

let run_phasing () =
  Report.heading "Ablation: two-phase vs single-phase solving"
    ~paper:"§3.5.2: rack goals for all reservations at once blow up the problem"
    ~expect:"single-phase (rack goals everywhere) costs more setup+solve time than two phases";
  let _, broker, reservations = scenario Scenarios.Small in
  let snapshot = Ras.Snapshot.take broker reservations in
  let t0 = Unix.gettimeofday () in
  let two_phase =
    Ras.Async_solver.solve
      ~params:{ Scenarios.interactive_solver with Ras.Async_solver.node_limit = 60 }
      snapshot
  in
  let t_two = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let single =
    Ras.Phases.run ~rack_level:true ~mip_time_limit:8.0 ~mip_node_limit:60 snapshot
      reservations
  in
  let t_single = Unix.gettimeofday () -. t0 in
  Report.row "two-phase:    %.2fs total; phase1 %d vars + phase2 %s vars\n" t_two
    two_phase.Ras.Async_solver.phase1.Ras.Phases.grouped_vars
    (match two_phase.Ras.Async_solver.phase2 with
    | Some p -> string_of_int p.Ras.Phases.grouped_vars
    | None -> "0 (skipped)");
  Report.row "single-phase: %.2fs total; %d vars in one model\n" t_single
    single.Ras.Phases.grouped_vars

let run_buffers () =
  Report.heading "Ablation: shared random-failure buffer"
    ~paper:"§3.3.1: a 2% shared buffer serves all reservations' random failures"
    ~expect:"with the buffer, failures get replacements; without it, replacements fail";
  let trial fraction =
    let region = Scenarios.region_of Scenarios.Small in
    let broker = Broker.create region in
    let requests = Scenarios.requests_of Scenarios.Small region in
    let config =
      {
        Ras.System.default_config with
        Ras.System.solver = Scenarios.simulation_solver;
        shared_buffer_fraction = fraction;
        job_fill_fraction = 0.7;
      }
    in
    let sys = Ras.System.create ~config broker in
    List.iter (Ras.System.add_request sys) requests;
    let failures =
      Failure_model.generate (Ras_stats.Rng.create 17) region
        { Failure_model.default_params with Failure_model.sw_events_per_server_day = 0.08 }
        ~horizon_days:2.0
    in
    Ras.System.install_failures sys failures;
    Ras.System.start sys;
    Ras.System.run sys ~until_h:48.0;
    ( Ras.Online_mover.replacements_done (Ras.System.mover sys),
      Ras.Online_mover.replacements_failed (Ras.System.mover sys) )
  in
  let ok2, fail2 = trial 0.02 in
  let ok0, fail0 = trial 0.0 in
  Report.row "with 2%% shared buffer:    %3d replacements ok, %3d failed\n" ok2 fail2;
  Report.row "without shared buffer:    %3d replacements ok, %3d failed\n" ok0 fail0

let run_move_cost () =
  Report.heading "Ablation: in-use movement-cost ratio"
    ~paper:"§4.6: in-use moves cost 10x, keeping preemption rare"
    ~expect:"ratio 1x produces more in-use moves than ratio 10x";
  let trial ratio =
    let solver =
      {
        Scenarios.interactive_solver with
        Ras.Async_solver.node_limit = 60;
        formulation =
          {
            Ras.Formulation.default_params with
            Ras.Formulation.move_cost_in_use =
              ratio *. Ras.Formulation.default_params.Ras.Formulation.move_cost_unused;
          };
      }
    in
    let runs = Solver_runs.collect ~solver ~solves:(Scenarios.scaled 8) () in
    List.fold_left
      (fun (iu, uu) (r : Solver_runs.run) ->
        ( iu + r.Solver_runs.stats.Ras.Async_solver.moves_in_use,
          uu + r.Solver_runs.stats.Ras.Async_solver.moves_unused ))
      (0, 0) runs
  in
  let iu10, uu10 = trial 10.0 in
  let iu1, uu1 = trial 1.0 in
  Report.row "ratio 10x: %4d in-use moves, %4d unused\n" iu10 uu10;
  Report.row "ratio  1x: %4d in-use moves, %4d unused\n" iu1 uu1

let run_quorum () =
  Report.heading "Ablation: storage quorum spread vs embedded buffer (paragraph 3.3.2)"
    ~paper:"storage services use all capacity for replicas and survive MSB loss via spread, not idle buffers"
    ~expect:"quorum reservation binds ~1.0x its request and still survives; buffered one binds ~1.2x";
  let region = Scenarios.region_of Scenarios.Small in
  let ds =
    Ras_workload.Service.make ~id:1 ~name:"store" ~profile:Ras_workload.Service.Data_store ()
  in
  let trial ~use_quorum =
    let broker = Broker.create region in
    let req =
      if use_quorum then
        Ras_workload.Capacity_request.make ~id:1 ~service:ds ~rru:12.0 ~embedded_buffer:false
          ~hard_msb_cap:(Ras_workload.Capacity_request.quorum_cap ~replicas:3 ~quorum:2)
          ~msb_spread_limit:0.5 ()
      else
        Ras_workload.Capacity_request.make ~id:1 ~service:ds ~rru:12.0 ~msb_spread_limit:0.5 ()
    in
    let reservations = [ Ras.Reservation.of_request req ] in
    let mover = Ras.Online_mover.create broker in
    Ras.Online_mover.set_reservations mover reservations;
    let stats =
      Ras.Async_solver.solve ~params:Scenarios.simulation_solver
        (Ras.Snapshot.take broker reservations)
    in
    ignore (Ras.Online_mover.apply_plan mover stats.Ras.Async_solver.plan);
    let snap = Ras.Snapshot.take broker reservations in
    let res = List.hd reservations in
    let per_msb = Ras.Snapshot.rru_by_msb snap res in
    let total = Array.fold_left ( +. ) 0.0 per_msb in
    let worst = Array.fold_left Float.max 0.0 per_msb in
    (total, total -. worst)
  in
  let t_q, surv_q = trial ~use_quorum:true in
  let t_b, surv_b = trial ~use_quorum:false in
  Report.row "quorum spread:    %.1f RRU bound (%.2fx request), %.1f surviving an MSB loss\n"
    t_q (t_q /. 12.0) surv_q;
  Report.row "embedded buffer:  %.1f RRU bound (%.2fx request), %.1f surviving an MSB loss\n"
    t_b (t_b /. 12.0) surv_b

let run_wear () =
  Report.heading "Ablation: IO/wear-aware placement (paragraph 5.2, future work)"
    ~paper:"planned goal: SSD burnout reduction via IO-aware assignment; new attributes break symmetry"
    ~expect:"IO-heavy service gets fresher flash when the goal is on; variable count grows";
  let region = Scenarios.region_of Scenarios.Medium in
  let wear = Ras_workload.Wear.generate (Ras_stats.Rng.create 31) region in
  let flashy =
    Ras_workload.Service.make ~id:1 ~name:"io-heavy" ~profile:Ras_workload.Service.Cache ()
  in
  let trial ~aware =
    let broker = Broker.create region in
    let req =
      Ras_workload.Capacity_request.make ~id:1 ~service:flashy ~rru:12.0
        ~embedded_buffer:false ~msb_spread_limit:0.5
        ~io_intensity:(if aware then 1.0 else 0.0)
        ()
    in
    let reservations = [ Ras.Reservation.of_request req ] in
    let attr_of = if aware then Ras_workload.Wear.bucket wear else fun _ -> 0 in
    let snapshot = Ras.Snapshot.take ~attr_of broker reservations in
    let stats = Ras.Async_solver.solve ~params:Scenarios.simulation_solver snapshot in
    let mover = Ras.Online_mover.create broker in
    Ras.Online_mover.set_reservations mover reservations;
    ignore (Ras.Online_mover.apply_plan mover stats.Ras.Async_solver.plan);
    (* mean wear of the flash servers the reservation received *)
    let total = ref 0.0 and n = ref 0 in
    let servers = (Broker.region broker).Ras_topology.Region.servers in
    for id = 0 to Broker.num_servers broker - 1 do
      if
        Broker.current_owner broker id = Broker.Reservation 1
        && Ras_workload.Wear.has_flash servers.(id)
      then begin
        total := !total +. Ras_workload.Wear.fraction wear id;
        incr n
      end
    done;
    let mean = if !n = 0 then nan else !total /. float_of_int !n in
    (mean, stats.Ras.Async_solver.phase1.Ras.Phases.grouped_vars)
  in
  let wear_on, vars_on = trial ~aware:true in
  let wear_off, vars_off = trial ~aware:false in
  Report.row "wear-aware ON:  mean flash wear %.2f over %d grouped vars\n" wear_on vars_on;
  Report.row "wear-aware OFF: mean flash wear %.2f over %d grouped vars\n" wear_off vars_off;
  Report.row "symmetry cost of the new attribute: %d -> %d variables (%.1fx)\n" vars_off vars_on
    (float_of_int vars_on /. float_of_int (Stdlib.max 1 vars_off))

let run () =
  run_symmetry ();
  run_phasing ();
  run_buffers ();
  run_move_cost ();
  run_quorum ();
  run_wear ()
