(* loop-large: the tier-2 continuous loop at region scale.  One persistent
   [Solver_state] is threaded through every round; between rounds ~0.3% of
   servers fail (repaired at once by the tier-1 index) and the containers
   of the last round stop while ~5% of reservation servers start new ones,
   so every round sees the same in-use share. *)

open Common
module W = World
module Broker = Ras_broker.Broker
module Rng = Ras_stats.Rng
module Async_solver = Ras.Async_solver
module Phases = Ras.Phases
module Solver_state = Ras.Solver_state
module Branch_bound = Ras_mip.Branch_bound
module Online_mover = Ras.Online_mover

let churn = 0.003
let flip_prob = 0.05

(* Steady rounds measured per run: one per four seconds asked for, at
   least two.  The count depends on [seconds] only, never on machine speed,
   so every run of a seed does the same work. *)
let rounds_for ~seconds = max 2 (seconds / 4)

let setup () =
  let w = W.region_scale () in
  let state = Solver_state.create () in
  let r0 = W.round w ~params:W.continuous ~state () in
  (w, state, r0)

let run ~seed ~seconds ~trace ~setups =
  let (w, state, r0), setup_s, scaled_setup_s = repeated_setup ~times:setups setup in
  let params = W.continuous in
  let check (r : W.round) =
    W.check_solve ~params r.W.stats;
    W.check_plan r.W.snapshot r.W.stats.Async_solver.plan;
    W.check_ownership ~broker:w.W.broker ~mover:w.W.mover ~reservations:w.W.reservations
  in
  check r0;
  let n = Broker.num_servers w.W.broker in
  let rng = Rng.create (derive seed seed_churn) in
  let repair_us = Samples.create () and restore_us = Samples.create () in
  let failed_repairs0 = Online_mover.replacements_failed w.W.mover in
  let rounds = rounds_for ~seconds in
  let results = ref [] and failed_rounds = ref 0 and replay_s = ref 0.0 and in_use = ref [] in
  let scaled_walls = ref [] in
  let tier1 samples f =
    let t0 = now_ns () in
    f ();
    Samples.add samples (Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-3)
  in
  for i = 1 to rounds do
    let down =
      List.init (max 1 (int_of_float (float_of_int n *. churn))) (fun _ -> Rng.int rng n)
    in
    List.iter
      (fun id -> tier1 repair_us (fun () -> Broker.mark_down w.W.broker id Ras_failures.Unavail.Unplanned_sw))
      down;
    List.iter (fun id -> Broker.set_in_use w.W.broker id false) !in_use;
    in_use := [];
    for id = 0 to n - 1 do
      match Broker.current_owner w.W.broker id with
      | Broker.Reservation _ ->
        if Rng.float rng 1.0 < flip_prob then begin
          Broker.set_in_use w.W.broker id true;
          in_use := id :: !in_use
        end
      | Broker.Free | Broker.Shared_buffer | Broker.Elastic _ -> ()
    done;
    let r, _, speed = calibrated ~samples:8 (fun () -> W.round w ~params ~state ()) in
    scaled_walls := (r.W.wall_s *. speed) :: !scaled_walls;
    List.iter (fun id -> tier1 restore_us (fun () -> Broker.mark_up w.W.broker id)) down;
    check r;
    if r.W.stats.Async_solver.price_table = None then incr failed_rounds;
    let layers =
      if trace then begin
        let l, dt = timed (fun () -> W.replay_layers r.W.snapshot r.W.stats) in
        replay_s := !replay_s +. dt;
        Some l
      end
      else None
    in
    results := (i, r, layers) :: !results
  done;
  let results = List.rev !results in
  let rs = List.map (fun (_, r, _) -> r) results in
  let walls = List.map (fun r -> r.W.wall_s) rs in
  let sorted_walls = Array.of_list walls in
  Array.sort Float.compare sorted_walls;
  let med f = median (List.map f rs) in
  let obj r = r.W.stats.Async_solver.phase1.Phases.outcome.Branch_bound.objective in
  let failed_repairs = Online_mover.replacements_failed w.W.mover - failed_repairs0 in
  let attempted = rounds + Samples.length repair_us + Samples.length restore_us in
  let p1 = r0.W.stats.Async_solver.phase1 in
  let p50_ms = 1e3 *. quantile_sorted sorted_walls 0.5
  and p99_ms = 1e3 *. quantile_sorted sorted_walls 0.99
  and ops_per_s = float_of_int rounds /. List.fold_left ( +. ) 0.0 walls in
  let info =
    [
      ("seed", ji seed);
      ("region_seed", ji region_seed_large);
      ("requests_seed", ji requests_seed);
      ("servers", ji n);
      ("reservations", ji (List.length w.W.reservations));
      ("nvars", ji p1.Phases.compiled.Ras_mip.Model.nvars);
      ("nrows", ji p1.Phases.compiled.Ras_mip.Model.nrows);
      ("initial_moves", ji (List.length r0.W.stats.Async_solver.plan.Ras.Concretize.moves));
      ("steady_rounds", ji rounds);
      ("tier1_repairs", ji (Samples.length repair_us));
      ("tier1_restores", ji (Samples.length restore_us));
      ("single_domain_solves", ji !W.single_domain_solves);
      raw_times ~setup_s ~p50_ms ~p99_ms ~ops_per_s;
    ]
  in
  let scaled = Array.of_list !scaled_walls in
  Array.sort Float.compare scaled;
  let end_to_end =
    [
      ("setup_s", scaled_setup_s);
      ("op_p50_ms", 1e3 *. quantile_sorted scaled 0.5);
      ("op_p99_ms", 1e3 *. quantile_sorted scaled 0.99);
      ("ops_per_s", float_of_int rounds /. Array.fold_left ( +. ) 0.0 scaled);
      ( "alloc_mb_per_op",
        List.fold_left (fun a r -> a +. r.W.gc.alloc_bytes) 0.0 rs /. float_of_int rounds /. 1e6 );
      ("peak_heap_mb", peak_heap_mb ());
      ("plan_objective", med obj);
    ]
  in
  let per_layer, records =
    if not trace then ([], [])
    else begin
      let solves = List.map (fun (_, r, l) -> (r.W.stats, Option.get l, r.W.gc)) results in
      let incr_rounds = List.filter_map (fun r -> r.W.stats.Async_solver.incremental) rs in
      let seeds s =
        float_of_int (List.length (List.filter (fun x -> x.Solver_state.seed = s) incr_rounds))
      in
      let repair = Samples.sorted repair_us and restore = Samples.sorted restore_us in
      let per_layer =
        [
          ("snapshot.take_s", med (fun r -> r.W.snapshot_s));
          ("mover.apply_s", med (fun r -> r.W.apply_s));
          ("mover.moved_in_use", med (fun r -> float_of_int r.W.apply.Online_mover.moved_in_use));
          ("mover.moved_unused", med (fun r -> float_of_int r.W.apply.Online_mover.moved_unused));
          ( "mover.skipped_unavailable",
            med (fun r -> float_of_int r.W.apply.Online_mover.skipped_unavailable) );
          ("reactive.index_updates", med (fun r -> float_of_int r.W.index_updates));
          ("incremental.basis_reuse", median (List.map Solver_state.basis_reuse_rate incr_rounds));
          ( "incremental.pivots_saved",
            median (List.map (fun x -> float_of_int x.Solver_state.pivots_saved) incr_rounds) );
          ("incremental.seed_accepted", seeds Branch_bound.Seed_accepted);
          ("incremental.seed_repaired", seeds Branch_bound.Seed_repaired);
          ("incremental.seed_rejected", seeds Branch_bound.Seed_rejected);
          ("tier1.repair_p50_us", quantile_sorted repair 0.5);
          ("tier1.repair_p99_us", quantile_sorted repair 0.99);
          ("tier1.restore_p50_us", quantile_sorted restore 0.5);
          ("tier1.restore_p99_us", quantile_sorted restore 0.99);
          ("trace.op_p50_ms", p50_ms);
          ("trace.replay_s_per_op", !replay_s /. float_of_int rounds);
        ]
        @ W.reactive_visits (Ras.Reactive.counters w.W.reactive)
        @ W.solve_layers solves
      in
      let record (i, (r : W.round), l) =
        json_obj
          ([
             ("round", ji i);
             ("wall_s", jf r.W.wall_s);
             ("snapshot_s", jf r.W.snapshot_s);
             ("apply_s", jf r.W.apply_s);
             ("index_updates", ji r.W.index_updates);
           ]
          @ W.solve_record r.W.stats (Option.get l) r.W.gc)
      in
      (per_layer, List.map record results)
    end
  in
  {
    attempted;
    failed = failed_repairs + !failed_rounds;
    end_to_end;
    per_layer;
    info;
    records;
  }
