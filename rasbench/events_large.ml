(* events-large: the tier-1 path at region scale.  After one tier-2 round
   whose dual prices are pushed to the reactive index, one caller drives a
   seeded stream of mixed events in a closed loop: server failures repaired
   through the Online Mover and the reactive index, recoveries, emergency
   grants and their release, elastic lending and revocation, and capacity
   requests submitted to the Portal.  The solver and [Concretize] are not
   touched after set-up. *)

open Common
module W = World
module Broker = Ras_broker.Broker
module Rng = Ras_stats.Rng
module Capacity_request = Ras_workload.Capacity_request
module Async_solver = Ras.Async_solver
module Online_mover = Ras.Online_mover
module Reactive = Ras.Reactive
module Emergency = Ras.Emergency
module Portal = Ras.Portal
module Reservation = Ras.Reservation
module Failure_model = Ras_failures.Failure_model

type kind = Repair | Restore | Grant | Release | Lend | Revoke | Submit

let kinds = [| Repair; Restore; Grant; Release; Lend; Revoke; Submit |]

let kind_name = function
  | Repair -> "repair"
  | Restore -> "restore"
  | Grant -> "grant"
  | Release -> "release"
  | Lend -> "lend"
  | Revoke -> "revoke"
  | Submit -> "submit"

let kind_index = function
  | Repair -> 0
  | Restore -> 1
  | Grant -> 2
  | Release -> 3
  | Lend -> 4
  | Revoke -> 5
  | Submit -> 6

(* Event rates per simulated hour, taken from the models the repository
   already has:

   - repair and restore: the random server failures of
     [Failure_model.default_params] (software and hardware) at the region's
     size, the only failures the Online Mover repairs.  Each down server
     recovers after a mean time in repair, so restores come at rate
     [down / mean time], and the number down holds near its steady state
     [rate x mean time] (~0.4% of the fleet), where the stream starts.
     Failure spikes take 3% of the fleet down at once, a burst a
     one-at-a-time stream does not model, and are left out.
   - submit: capacity resizes arriving as [Request_gen.arrivals_over] with 6
     per workday (0.15 of that on weekends), as fig16 and sim-medium draw
     them; each a 0.95-1.20 resize of an existing request.
   - lend: [System.solve_now] lends idle buffer servers to its one elastic
     reservation (id 9000) once per hourly solve.
   - revoke, grant and release have no arrival model in the repository.
     The stream assumes a revoke per lend, so loans stay bounded, and an
     emergency grant per resize arrival, each released later.
   - Sizes have no model either: grants of 2-8 RRU and lends of 1-5
     servers, the range the repository's own tests use.  Lends do not
     drain every idle buffer server as [System] does, so repairs rarely
     reclaim loans. *)
let fm = Failure_model.default_params

let failures_per_h n =
  float_of_int n
  *. (fm.Failure_model.sw_events_per_server_day +. fm.Failure_model.hw_events_per_server_day)
  /. 24.0

(* Servers down in the steady state: the sum over failure kinds of rate x
   mean duration. *)
let steady_down n =
  float_of_int n /. 24.0
  *. ((fm.Failure_model.sw_events_per_server_day *. fm.Failure_model.sw_hours_mean)
     +. (fm.Failure_model.hw_events_per_server_day *. fm.Failure_model.hw_days_mean *. 24.0))

let resizes_per_h = 6.0 *. (5.0 +. (2.0 *. 0.15)) /. 7.0 /. 24.0

let elastic_id = 9000

(* Events are timed in epochs of this many, each after its own reference
   kernel sample; the traced output keeps one record per epoch, so drift
   over a run stays visible. *)
let epoch = 50_000

(* Epochs per run: three per second asked for.  Like the other workloads,
   the work depends on [seconds] only, so every run of a seed replays the
   same stream. *)
let epochs_for ~seconds = max 4 (3 * seconds)

let setup () =
  let w = W.region_scale () in
  let r0 = W.round w ~params:W.continuous () in
  let snapshot =
    Ras.Snapshot.take ~home_of:(Online_mover.home_of w.W.mover) w.W.broker w.W.reservations
  in
  (w, r0, snapshot)

let run ~seed ~seconds ~trace ~setups =
  let (w, r0, snapshot), setup_s, scaled_setup_s = repeated_setup ~times:setups setup in
  W.check_solve ~params:W.continuous r0.W.stats;
  W.check_plan r0.W.snapshot r0.W.stats.Async_solver.plan;
  W.check_ownership ~broker:w.W.broker ~mover:w.W.mover ~reservations:w.W.reservations;
  let broker = w.W.broker and mover = w.W.mover and reactive = w.W.reactive in
  let n = Broker.num_servers broker in
  let guaranteed =
    Array.of_list (List.filter (fun r -> not (Reservation.is_buffer r)) w.W.reservations)
  in
  let requests = Array.of_list w.W.requests in
  let portal = Portal.create () in
  let rng = Rng.create (derive seed seed_events) in
  let failures = failures_per_h n and steady = steady_down n in
  let mean_down_h = steady /. failures in
  let max_down = 2 * int_of_float steady in
  let down = Array.make max_down 0 and down_len = ref 0 in
  let is_down = Bytes.make n '\000' in
  let grants = Queue.create () in
  let by_kind = Array.map (fun _ -> Samples.create ()) kinds in
  let epochs = ref [] in
  let failed = Array.map (fun _ -> 0) kinds and grant_visited = ref 0 and accepted = ref 0 in
  let fail_op k = failed.(kind_index k) <- failed.(kind_index k) + 1 in
  (* rates in [kinds] order; only the restore rate changes, with the number
     of servers down *)
  let rate_per_h = [| failures; 0.0; resizes_per_h; resizes_per_h; 1.0; 1.0; resizes_per_h |] in
  let pick () =
    rate_per_h.(1) <- float_of_int !down_len /. mean_down_h;
    let x = Rng.float rng (Array.fold_left ( +. ) 0.0 rate_per_h) in
    let rec go i acc =
      if i = Array.length kinds - 1 || x < acc +. rate_per_h.(i) then kinds.(i)
      else go (i + 1) (acc +. rate_per_h.(i))
    in
    match go 0 0.0 with
    | Repair when !down_len >= max_down -> Restore
    | Release when Queue.is_empty grants -> Grant
    | k -> k
  in
  (* each event is prepared (random choices) outside its latency window and
     executed inside it *)
  let prepare = function
    | Repair ->
      let rec fresh () =
        let id = Rng.int rng n in
        if Bytes.get is_down id = '\001' then fresh () else id
      in
      let id = fresh () in
      down.(!down_len) <- id;
      incr down_len;
      Bytes.set is_down id '\001';
      fun () ->
        let before = Online_mover.replacements_failed mover in
        Broker.mark_down broker id Ras_failures.Unavail.Unplanned_sw;
        if Online_mover.replacements_failed mover > before then fail_op Repair
    | Restore ->
      let i = Rng.int rng !down_len in
      let id = down.(i) in
      decr down_len;
      down.(i) <- down.(!down_len);
      Bytes.set is_down id '\000';
      fun () -> Broker.mark_up broker id
    | Grant ->
      let reservation = guaranteed.(Rng.int rng (Array.length guaranteed)) in
      let rru = 2.0 +. Rng.float rng 6.0 in
      fun () ->
        let g = Emergency.grant ~reactive broker ~reservation ~rru ~allow_buffer:false in
        if g.Emergency.granted_rru < rru then fail_op Grant;
        grant_visited := !grant_visited + g.Emergency.visited;
        Queue.push (Broker.owner_code (Broker.Reservation reservation.Reservation.id), g.Emergency.servers) grants
    | Release ->
      let code, servers = Queue.pop grants in
      fun () ->
        List.iter
          (fun id ->
            if Broker.current_code broker id = code then begin
              Broker.move broker id Broker.Free;
              Broker.set_target broker id Broker.Free
            end)
          servers
    | Lend ->
      let max_servers = 1 + Rng.int rng 5 in
      fun () -> ignore (Online_mover.lend_idle mover ~elastic_id ~max_servers)
    | Revoke ->
      fun () -> ignore (Online_mover.revoke mover ~elastic_id)
    | Submit ->
      let r = requests.(Rng.int rng (Array.length requests)) in
      let req =
        { r with Capacity_request.rru = Float.max 1.0 (r.Capacity_request.rru *. (0.95 +. Rng.float rng 0.25)) }
      in
      fun () ->
        match Portal.submit portal snapshot req with
        | Portal.Accepted -> incr accepted
        | Portal.Rejected _ -> ()
  in
  (* reach the failure model's steady state the way the model does, from
     no server down, by running the stream untimed for five mean times in
     repair *)
  let warm_up =
    int_of_float (5.0 *. mean_down_h *. (2.0 *. failures +. 2.0 +. (3.0 *. resizes_per_h)))
  in
  for _ = 1 to warm_up do
    (prepare (pick ())) ()
  done;
  let failed_in_warm_up = Array.fold_left ( + ) 0 failed in
  Reactive.reset_counters reactive;
  let num_epochs = epochs_for ~seconds in
  let events = num_epochs * epoch in
  (* per epoch, at the reference speed: p50 and p99 event latency (us) and
     events per second; the run reports the median epoch *)
  let p50s = ref [] and p99s = ref [] and rates = ref [] in
  let raw_p50s = ref [] and raw_p99s = ref [] and raw_rates = ref [] in
  let lat = Array.make epoch 0.0 in
  let alloc = ref 0.0 and minor = ref 0.0 and majors = ref 0 in
  for e = 1 to num_epochs do
    let eg = gc_mark () in
    let gd = ref (gc_since eg) in
    let (), wall, f =
      calibrated ~samples:1 (fun () ->
          for i = 0 to epoch - 1 do
            let k = pick () in
            let run = prepare k in
            let t0 = now_ns () in
            run ();
            let us = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-3 in
            lat.(i) <- us;
            Samples.add by_kind.(kind_index k) us
          done;
          gd := gc_since eg)
    in
    let gd = !gd in
    alloc := !alloc +. gd.alloc_bytes;
    minor := !minor +. gd.minor_words;
    majors := !majors + gd.major_collections;
    Array.sort Float.compare lat;
    raw_p50s := quantile_sorted lat 0.5 :: !raw_p50s;
    raw_p99s := quantile_sorted lat 0.99 :: !raw_p99s;
    raw_rates := (float_of_int epoch /. wall) :: !raw_rates;
    p50s := (f *. quantile_sorted lat 0.5) :: !p50s;
    p99s := (f *. quantile_sorted lat 0.99) :: !p99s;
    rates := (float_of_int epoch /. (f *. wall)) :: !rates;
    if trace then begin
      epochs :=
        json_obj
          [
            ("epoch", ji e);
            ("wall_s", jf wall);
            ("p50_us", jf (quantile_sorted lat 0.5));
            ("p99_us", jf (quantile_sorted lat 0.99));
            ("speed_factor", jf f);
            ("alloc_bytes_per_event", jf (gd.alloc_bytes /. float_of_int epoch));
            ("major_collections", ji gd.major_collections);
            ("down", ji !down_len);
            ("grants_outstanding", ji (Queue.length grants));
            ("loans_outstanding", ji (Online_mover.loans_outstanding mover));
          ]
        :: !epochs
    end
  done;
  let counters = Reactive.counters reactive in
  (* the tier-2 objective of the allocation the event stream leaves behind,
     once its transient state is undone: failed servers recovered, grants
     released and loans revoked.  What remains is the permanent effect of
     the tier-1 repairs on the tier-2 plan. *)
  for i = 0 to !down_len - 1 do
    Broker.mark_up broker down.(i)
  done;
  while not (Queue.is_empty grants) do
    (prepare Release) ()
  done;
  ignore (Online_mover.revoke mover ~elastic_id);
  let objective =
    let snap = Ras.Snapshot.take ~home_of:(Online_mover.home_of mover) broker w.W.reservations in
    let f = Ras.Formulation.build (Ras.Symmetry.build snap) w.W.reservations in
    let std = Ras_mip.Model.compile f.Ras.Formulation.model in
    let x = Ras.Formulation.status_quo f in
    let acc = ref std.Ras_mip.Model.obj_offset in
    Array.iteri (fun j c -> acc := !acc +. (c *. x.(j))) std.Ras_mip.Model.obj;
    !acc
  in
  W.check_ownership ~broker ~mover ~reservations:w.W.reservations;
  W.check_reactive_index w;
  let per_kind = Array.map Samples.sorted by_kind in
  let p1 = r0.W.stats.Async_solver.phase1 in
  let info =
    [
      ("seed", ji seed);
      ("region_seed", ji region_seed_large);
      ("requests_seed", ji requests_seed);
      ("servers", ji n);
      ("reservations", ji (List.length w.W.reservations));
      ("nvars", ji p1.Ras.Phases.compiled.Ras_mip.Model.nvars);
      ("nrows", ji p1.Ras.Phases.compiled.Ras_mip.Model.nrows);
      ("warm_up_events", ji warm_up);
      ("warm_up_failed", ji failed_in_warm_up);
      ("events", ji events);
      ( "events_per_kind",
        json_obj (Array.to_list (Array.map (fun k -> (kind_name k, ji (Samples.length by_kind.(kind_index k)))) kinds)) );
      ("submits_accepted", ji !accepted);
      ( "failed_per_kind",
        json_obj (Array.to_list (Array.map (fun k -> (kind_name k, ji failed.(kind_index k))) kinds)) );
      ("single_domain_solves", ji !W.single_domain_solves);
      raw_times ~setup_s ~p50_ms:(1e-3 *. median !raw_p50s) ~p99_ms:(1e-3 *. median !raw_p99s)
        ~ops_per_s:(median !raw_rates);
    ]
  in
  let end_to_end =
    [
      ("setup_s", scaled_setup_s);
      ("op_p50_ms", 1e-3 *. median !p50s);
      ("op_p99_ms", 1e-3 *. median !p99s);
      ("ops_per_s", median !rates);
      ("alloc_mb_per_op", !alloc /. float_of_int events /. 1e6);
      ("peak_heap_mb", peak_heap_mb ());
      ("plan_objective", objective);
    ]
  in
  let per_layer, records =
    if not trace then ([], [])
    else begin
      let q k p = quantile_sorted per_kind.(kind_index k) p in
      let grants_n = Samples.length by_kind.(kind_index Grant) in
      let per_kind_layers =
        List.concat_map
          (fun (prefix, k) -> [ (prefix ^ "_p50_us", q k 0.5); (prefix ^ "_p99_us", q k 0.99) ])
          [
            ("tier1.repair", Repair);
            ("tier1.restore", Restore);
            ("tier1.grant", Grant);
            ("tier1.release", Release);
            ("tier1.lend", Lend);
            ("tier1.revoke", Revoke);
            ("portal.submit", Submit);
          ]
      in
      let per_event x = x /. float_of_int events in
      let per_layer =
        per_kind_layers
        @ [
            ("reactive.index_updates", per_event (float_of_int counters.Reactive.index_updates));
            ("emergency.visited_per_grant", float_of_int !grant_visited /. float_of_int (max 1 grants_n));
            ("gc.minor_words_per_op", per_event !minor);
            ("gc.major_collections_per_op", per_event (float_of_int !majors));
            ("trace.op_p50_ms", 1e-3 *. median !raw_p50s);
          ]
        @ W.reactive_visits counters
      in
      let kind_record k =
        let a = per_kind.(kind_index k) in
        json_obj
          [
            ("kind", Printf.sprintf "%S" (kind_name k));
            ("count", ji (Array.length a));
            ("p50_us", jf (quantile_sorted a 0.5));
            ("p90_us", jf (quantile_sorted a 0.9));
            ("p99_us", jf (quantile_sorted a 0.99));
            ("max_us", jf (quantile_sorted a 1.0));
          ]
      in
      (per_layer, Array.to_list (Array.map kind_record kinds) @ List.rev !epochs)
    end
  in
  {
    attempted = warm_up + events;
    failed = Array.fold_left ( + ) 0 failed;
    end_to_end;
    per_layer;
    info;
    records;
  }
