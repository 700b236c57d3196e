(* sim-medium: the whole [Ras.System] at the medium preset (864 servers)
   over a span of simulated hours — hourly interactive solves bounded by
   150 branch-and-bound nodes, failures replayed through [Health], diurnal
   capacity resizes, Twine job fill and elastic lending.  The solver does
   the work here; [System] solves cold, without cross-round state. *)

open Common
module W = World
module Broker = Ras_broker.Broker
module Generator = Ras_topology.Generator
module Rng = Ras_stats.Rng
module Capacity_request = Ras_workload.Capacity_request
module Request_gen = Ras_workload.Request_gen
module Failure_model = Ras_failures.Failure_model
module Engine = Ras_sim.Engine
module Async_solver = Ras.Async_solver
module Phases = Ras.Phases
module System = Ras.System
module Online_mover = Ras.Online_mover
module Allocator = Ras_twine.Allocator
module Branch_bound = Ras_mip.Branch_bound

(* Simulated hours measured per run: one per two seconds asked for, at
   least four; like loop-large, the work depends on [seconds] only. *)
let hours_for ~seconds = max 4 (seconds / 2)

let medium =
  {
    Generator.name = "region-medium";
    num_dcs = 3;
    msbs_per_dc = 6;
    racks_per_msb = 6;
    servers_per_rack = 8;
    seed = region_seed_medium;
  }

type solve = {
  stats : Async_solver.stats;
  wall_s : float;  (** [System.solve_now]: snapshot -> plan applied -> prices pushed *)
  gc : gc_delta;
  replayed : (W.layers * float) option;
      (** traced runs: the replayed layers and a re-taken snapshot's time *)
}

(* Builds the system, installs failures and the resize stream over the
   horizon, and runs the initial placement solve at t = 0. *)
let setup ~seed ~hours =
  let region = Generator.generate medium in
  let broker = Broker.create region in
  let requests =
    Request_gen.scenario
      (Rng.create requests_seed)
      ~region ~services:Ras_workload.Service.default_catalog ~target_utilization:0.40
  in
  let config =
    { System.default_config with System.solver = W.interactive; job_fill_fraction = 0.8 }
  in
  let sys = System.create ~config broker in
  List.iter (System.add_request sys) requests;
  let days = (hours / 24) + 1 in
  System.install_failures sys
    (Failure_model.generate
       (Rng.create (derive seed seed_failures))
       region Failure_model.default_params ~horizon_days:(float_of_int days));
  let resize_rng = Rng.create (derive seed seed_resizes) in
  let req_array = Array.of_list requests in
  List.iter
    (fun at ->
      if at < float_of_int hours then
        Engine.schedule (System.engine sys) ~at (fun _ ->
            let r = req_array.(Rng.int resize_rng (Array.length req_array)) in
            (* requests skew toward growth; large shrinks are rare *)
            let factor = 0.95 +. Rng.float resize_rng 0.25 in
            System.resize_request sys
              { r with Capacity_request.rru = Float.max 1.0 (r.Capacity_request.rru *. factor) }))
    (Request_gen.arrivals_over
       (Rng.create (derive seed seed_arrivals))
       ~days ~mean_per_workday:6.0);
  let initial = System.solve_now sys in
  (sys, initial)

let run ~seed ~seconds ~trace ~setups =
  let hours = hours_for ~seconds in
  let (sys, initial), setup_s, scaled_setup_s =
    repeated_setup ~times:setups (fun () -> setup ~seed ~hours)
  in
  let mover = System.mover sys in
  let params = W.interactive in
  let check (stats : Async_solver.stats) =
    let snapshot = stats.Async_solver.phase1.Phases.formulation.Ras.Formulation.symmetry.Ras.Symmetry.snapshot in
    W.check_solve ~params stats;
    W.check_plan snapshot stats.Async_solver.plan;
    W.check_ownership ~broker:(System.broker sys) ~mover ~reservations:(System.reservations sys)
  in
  check initial;
  let twine () =
    List.fold_left
      (fun (placed, pending) r ->
        match System.allocator sys r.Ras.Reservation.id with
        | Some a -> (placed + Allocator.placed_containers a, pending + Allocator.pending_containers a)
        | None -> (placed, pending))
      (0, 0) (System.reservations sys)
  in
  let failed_repairs0 = Online_mover.replacements_failed mover in
  (* the hourly solve, timed around [System.solve_now]; checks and traced
     re-invocations run after it and are taken out of the hour's time and
     allocation *)
  let solves = ref [] and excluded = ref 0.0 and excluded_alloc = ref 0.0 in
  Engine.schedule_every (System.engine sys) ~first:0.5 ~period:1.0 (fun _ ->
      let g0 = gc_mark () in
      let stats, wall_s = timed (fun () -> System.solve_now sys) in
      let gc = gc_since g0 in
      let t0 = now () and g1 = gc_mark () in
      check stats;
      let replayed =
        if not trace then None
        else begin
          let snap = stats.Async_solver.phase1.Phases.formulation.Ras.Formulation.symmetry.Ras.Symmetry.snapshot in
          let layers = W.replay_layers snap stats in
          Some (layers, snd (timed (fun () -> System.snapshot sys)))
        end
      in
      excluded := !excluded +. (now () -. t0);
      excluded_alloc := !excluded_alloc +. (gc_since g1).alloc_bytes;
      solves := { stats; wall_s; gc; replayed } :: !solves);
  let hour_s = ref [] and scaled_hour_s = ref [] and hour_alloc = ref [] and twine_counts = ref [] in
  for h = 1 to hours do
    excluded := 0.0;
    excluded_alloc := 0.0;
    let g0 = gc_mark () in
    let alloc = ref 0.0 in
    let (), wall, speed =
      calibrated ~samples:3 (fun () ->
          System.run sys ~until_h:(float_of_int h);
          alloc := (gc_since g0).alloc_bytes -. !excluded_alloc)
    in
    hour_alloc := !alloc :: !hour_alloc;
    hour_s := (wall -. !excluded) :: !hour_s;
    scaled_hour_s := ((wall -. !excluded) *. speed) :: !scaled_hour_s;
    twine_counts := twine () :: !twine_counts
  done;
  let solves = List.rev !solves in
  let sorted_hours = Array.of_list !hour_s in
  Array.sort Float.compare sorted_hours;
  let med f = median (List.map f solves) in
  let failed_rounds =
    List.length (List.filter (fun s -> s.stats.Async_solver.price_table = None) solves)
  in
  let p1 = initial.Async_solver.phase1 in
  let p50_ms = 1e3 *. quantile_sorted sorted_hours 0.5
  and p99_ms = 1e3 *. quantile_sorted sorted_hours 0.99
  and ops_per_s = float_of_int hours /. List.fold_left ( +. ) 0.0 !hour_s in
  let info =
    [
      ("seed", ji seed);
      ("region_seed", ji region_seed_medium);
      ("requests_seed", ji requests_seed);
      ("servers", ji (Broker.num_servers (System.broker sys)));
      ("reservations", ji (List.length (System.reservations sys)));
      ("nvars", ji p1.Phases.compiled.Ras_mip.Model.nvars);
      ("nrows", ji p1.Phases.compiled.Ras_mip.Model.nrows);
      ("simulated_hours", ji hours);
      ("solves", ji (List.length solves));
      ("replacements", ji (Online_mover.replacements_done mover));
      ("loans_outstanding", ji (Online_mover.loans_outstanding mover));
      ("single_domain_solves", ji !W.single_domain_solves);
      raw_times ~setup_s ~p50_ms ~p99_ms ~ops_per_s;
    ]
  in
  let scaled = Array.of_list !scaled_hour_s in
  Array.sort Float.compare scaled;
  let end_to_end =
    [
      ("setup_s", scaled_setup_s);
      ("op_p50_ms", 1e3 *. quantile_sorted scaled 0.5);
      ("op_p99_ms", 1e3 *. quantile_sorted scaled 0.99);
      ("ops_per_s", float_of_int hours /. Array.fold_left ( +. ) 0.0 scaled);
      ("alloc_mb_per_op", List.fold_left ( +. ) 0.0 !hour_alloc /. float_of_int hours /. 1e6);
      ("peak_heap_mb", peak_heap_mb ());
      ("plan_objective", med (fun s -> s.stats.Async_solver.phase1.Phases.outcome.Branch_bound.objective));
    ]
  in
  let per_layer, records =
    if not trace then ([], [])
    else begin
      let layers s = fst (Option.get s.replayed) in
      let per_layer =
        [
          ("snapshot.take_s", med (fun s -> snd (Option.get s.replayed)));
          ("mover.moved_in_use", med (fun s -> float_of_int s.stats.Async_solver.moves_in_use));
          ("mover.moved_unused", med (fun s -> float_of_int s.stats.Async_solver.moves_unused));
          ("system.post_solve_s", med (fun s -> s.wall_s -. s.stats.Async_solver.duration_s));
          ("twine.placed", median (List.map (fun (p, _) -> float_of_int p) !twine_counts));
          ("twine.pending", median (List.map (fun (_, q) -> float_of_int q) !twine_counts));
          ("trace.op_p50_ms", p50_ms);
          ( "trace.replay_s_per_op",
            List.fold_left
              (fun a s ->
                let l = layers s in
                a +. l.W.symmetry_s +. l.W.formulation_s +. l.W.compile_s +. l.W.concretize_s)
              0.0 solves
            /. float_of_int hours );
        ]
        @ W.reactive_visits (Ras.Reactive.counters (System.reactive sys))
        @ W.solve_layers (List.map (fun s -> (s.stats, layers s, s.gc)) solves)
      in
      let record i s =
        json_obj
          ([ ("hour", ji (i + 1)); ("solve_wall_s", jf s.wall_s) ]
          @ W.solve_record s.stats (layers s) s.gc)
      in
      (per_layer, List.mapi record solves)
    end
  in
  {
    attempted = List.length solves;
    failed = failed_rounds + Online_mover.replacements_failed mover - failed_repairs0;
    end_to_end;
    per_layer;
    info;
    records;
  }
