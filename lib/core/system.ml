module Broker = Ras_broker.Broker
module Region = Ras_topology.Region
module Engine = Ras_sim.Engine
module Metrics = Ras_sim.Metrics
module Allocator = Ras_twine.Allocator
module Job = Ras_twine.Job
module Power = Ras_workload.Power
module Traffic = Ras_workload.Traffic
module Capacity_request = Ras_workload.Capacity_request

type config = {
  solve_period_h : float;
  solver : Async_solver.params;
  shared_buffer_fraction : float;
  elastic_id : int option;
  job_fill_fraction : float;
  metrics_period_h : float;
}

let default_config =
  {
    solve_period_h = 1.0;
    solver = Async_solver.default_params;
    shared_buffer_fraction = 0.02;
    elastic_id = Some 9000;
    job_fill_fraction = 0.8;
    metrics_period_h = 1.0;
  }

type t = {
  config : config;
  eng : Engine.t;
  brk : Broker.t;
  mv : Online_mover.t;
  mtr : Metrics.t;
  mutable guaranteed : Reservation.t list;  (* newest first *)
  buffers : Reservation.t list;
  allocators : (int, Allocator.t) Hashtbl.t;
  requests : (int, Capacity_request.t) Hashtbl.t;
  mutable next_job_id : int;
  mutable history : Async_solver.stats list;  (* newest first *)
  mutable moves_in_use_acc : int;
  mutable moves_unused_acc : int;
  mutable last_replacements : int;
}

let engine t = t.eng
let broker t = t.brk
let metrics t = t.mtr
let mover t = t.mv
let reactive t = Online_mover.reactive t.mv

let reservations t = List.rev t.guaranteed @ t.buffers

let create ?(config = default_config) brk =
  let eng = Engine.create () in
  let mv = Online_mover.create ~engine:eng brk in
  let buffers =
    Buffers.shared_buffer_reservations (Broker.region brk)
      ~fraction:config.shared_buffer_fraction ~first_id:8000
  in
  let t =
    {
      config;
      eng;
      brk;
      mv;
      mtr = Metrics.create ();
      guaranteed = [];
      buffers;
      allocators = Hashtbl.create 32;
      requests = Hashtbl.create 32;
      next_job_id = 1;
      history = [];
      moves_in_use_acc = 0;
      moves_unused_acc = 0;
      last_replacements = 0;
    }
  in
  Online_mover.set_reservations mv (reservations t);
  (* preemption: route to the allocator of the server's current owner *)
  Online_mover.on_preempt mv (fun id ->
      match Broker.current_owner brk id with
      | Broker.Reservation rid | Broker.Elastic rid -> (
        match Hashtbl.find_opt t.allocators rid with
        | Some alloc -> Allocator.evict_server alloc id
        | None -> ())
      | Broker.Free | Broker.Shared_buffer -> ());
  t

let add_request t req =
  let res = Reservation.of_request req in
  t.guaranteed <- res :: t.guaranteed;
  Hashtbl.replace t.requests res.Reservation.id req;
  Online_mover.set_reservations t.mv (reservations t);
  if t.config.job_fill_fraction > 0.0 && not (Hashtbl.mem t.allocators res.Reservation.id) then begin
    let alloc =
      Allocator.create t.brk ~reservation:res.Reservation.id ~rru_of:res.Reservation.rru_of
    in
    Hashtbl.replace t.allocators res.Reservation.id alloc
  end

(* Resizing keeps the reservation's identity and bound servers; only the
   spec changes, and the next solve grows or trims the binding. *)
let resize_request t req =
  let rid = req.Capacity_request.id in
  if Hashtbl.mem t.requests rid then begin
    Hashtbl.replace t.requests rid req;
    let res = Reservation.of_request req in
    t.guaranteed <-
      List.map (fun r -> if r.Reservation.id = rid then res else r) t.guaranteed;
    Online_mover.set_reservations t.mv (reservations t)
  end

let remove_reservation t rid =
  t.guaranteed <- List.filter (fun r -> r.Reservation.id <> rid) t.guaranteed;
  Hashtbl.remove t.requests rid;
  Hashtbl.remove t.allocators rid;
  Online_mover.set_reservations t.mv (reservations t);
  List.iter
    (fun id ->
      Broker.move t.brk id Broker.Free;
      Broker.set_target t.brk id Broker.Free)
    (Broker.servers_with_owner t.brk (Broker.Reservation rid))

let install_failures t events = ignore (Health.install t.eng t.brk events)

let snapshot t =
  Snapshot.take ~home_of:(Online_mover.home_of t.mv) t.brk (reservations t)

(* Fill each reservation's allocator with 1-RRU containers up to the
   configured fraction of its requested capacity, so that servers carry
   running containers and movement costs are real. *)
let fill_jobs t =
  if t.config.job_fill_fraction > 0.0 then
    List.iter
      (fun res ->
        match Hashtbl.find_opt t.allocators res.Reservation.id with
        | None -> ()
        | Some alloc ->
          ignore (Allocator.retry_pending alloc);
          let want = t.config.job_fill_fraction *. res.Reservation.capacity_rru in
          let have = Allocator.used_rru alloc in
          let missing = int_of_float (Float.floor (want -. have)) in
          if missing > 0 then begin
            let job =
              Job.make ~id:t.next_job_id ~reservation:res.Reservation.id ~replicas:missing
                ~rru_per_replica:1.0 ()
            in
            t.next_job_id <- t.next_job_id + 1;
            (* placement failure is fine: capacity may still be arriving *)
            ignore (Allocator.place_job alloc job)
          end)
      t.guaranteed

let solve_now t =
  let snap = snapshot t in
  let stats = Async_solver.solve ~params:t.config.solver snap in
  (* refresh the tier-1 repair policy with this round's dual prices *)
  (match stats.Async_solver.price_table with
  | Some p -> Reactive.set_prices (reactive t) p
  | None -> ());
  (* apply the plan; moving a lent server ends its loan in the same step,
     so no loan is revoked up front *)
  let apply = Online_mover.apply_plan t.mv stats.Async_solver.plan in
  t.moves_in_use_acc <- t.moves_in_use_acc + apply.Online_mover.moved_in_use;
  t.moves_unused_acc <- t.moves_unused_acc + apply.Online_mover.moved_unused;
  (* hand idle buffers to the elastic reservation *)
  (match t.config.elastic_id with
  | Some eid -> ignore (Online_mover.lend_idle t.mv ~elastic_id:eid ~max_servers:max_int)
  | None -> ());
  fill_jobs t;
  t.history <- stats :: t.history;
  stats

let record_metrics t =
  let now = Engine.now t.eng in
  let snap = snapshot t in
  let frac = Buffers.embedded_buffer_fraction snap in
  if not (Float.is_nan frac) then Metrics.record t.mtr "max_msb_share" ~time:now frac;
  (* power *)
  let usage_of (s : Region.server) =
    let id = s.Region.id in
    match Broker.current_owner t.brk id with
    | Broker.Free -> Power.Idle_free
    | Broker.Shared_buffer -> Power.Assigned_idle
    | Broker.Reservation _ | Broker.Elastic _ ->
      if Broker.in_use_at t.brk id then Power.Assigned_busy else Power.Assigned_idle
  in
  let draw = Power.msb_power (Broker.region t.brk) ~usage_of in
  Metrics.record t.mtr "power_variance" ~time:now (Power.normalized_variance draw);
  let capacity =
    Power.msb_power (Broker.region t.brk) ~usage_of:(fun _ -> Power.Assigned_busy)
  in
  Metrics.record t.mtr "power_headroom" ~time:now
    (Power.headroom ~capacity_watts:capacity ~draw_watts:draw);
  (* churn: replacements count as unused moves (they move idle buffer servers) *)
  let repl = Online_mover.replacements_done t.mv in
  let new_repl = repl - t.last_replacements in
  t.last_replacements <- repl;
  Metrics.record t.mtr "moves_in_use" ~time:now (float_of_int t.moves_in_use_acc);
  Metrics.record t.mtr "moves_unused" ~time:now (float_of_int (t.moves_unused_acc + new_repl));
  t.moves_in_use_acc <- 0;
  t.moves_unused_acc <- 0;
  (* cross-DC share for reservations with affinity *)
  List.iter
    (fun res ->
      match res.Reservation.dc_affinity with
      | (dc, _) :: _ ->
        let per_dc = Snapshot.rru_by_dc snap res in
        let frac =
          Traffic.cross_dc_working_fraction ~data_dc:dc ~capacity_per_dc:per_dc
            ~requested:res.Reservation.capacity_rru
        in
        if not (Float.is_nan frac) then
          Metrics.record t.mtr
            (Printf.sprintf "cross_dc:%s" res.Reservation.name)
            ~time:now frac
      | [] -> ())
    t.guaranteed;
  (* availability + pool state *)
  let down = ref 0 in
  for id = 0 to Broker.num_servers t.brk - 1 do
    if not (Broker.healthy_at t.brk id) then incr down
  done;
  Metrics.record t.mtr "unavailable_frac" ~time:now
    (float_of_int !down /. float_of_int (Broker.num_servers t.brk));
  Metrics.record t.mtr "free_servers" ~time:now
    (float_of_int (Broker.count_owner t.brk Broker.Free));
  Metrics.record t.mtr "loans_outstanding" ~time:now
    (float_of_int (Online_mover.loans_outstanding t.mv))

let start t =
  Engine.schedule_every t.eng ~first:0.0 ~period:t.config.solve_period_h (fun _ ->
      ignore (solve_now t));
  Engine.schedule_every t.eng ~first:(t.config.metrics_period_h /. 2.0)
    ~period:t.config.metrics_period_h (fun _ -> record_metrics t)

let run t ~until_h = Engine.run_until t.eng until_h

let solve_history t = List.rev t.history

let allocator t rid = Hashtbl.find_opt t.allocators rid
