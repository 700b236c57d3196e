(* Fig. 14: normalized power-consumption variance across MSBs over four
   months, starting from the greedy baseline.  The paper's variance falls
   from ~0.9 to ~0.2 (normalized), and the most-loaded MSB's headroom rises
   from ~0 to 11%. *)

module Broker = Ras_broker.Broker
module Region = Ras_topology.Region
module Power = Ras_workload.Power
module Greedy = Ras_twine.Greedy

let power_state broker =
  let usage_of (s : Region.server) =
    match Broker.current_owner broker s.Region.id with
    | Broker.Free -> Power.Idle_free
    | Broker.Shared_buffer -> Power.Assigned_idle
    | Broker.Reservation _ | Broker.Elastic _ -> Power.Assigned_busy
  in
  let draw = Power.msb_power (Broker.region broker) ~usage_of in
  let capacity = Power.msb_power (Broker.region broker) ~usage_of:(fun _ -> Power.Assigned_busy) in
  (Power.normalized_variance draw, Power.headroom ~capacity_watts:capacity ~draw_watts:draw)

let run () =
  Report.heading "Figure 14: power variance across MSBs"
    ~paper:"normalized variance 0.9 -> 0.2 over four months; worst-MSB headroom ~0 -> 11%"
    ~expect:"monotone-ish variance decrease after RAS enablement; headroom improves";
  let region = Scenarios.region_of Scenarios.Wide in
  let broker = Broker.create region in
  let requests = Scenarios.requests_of ~utilization:0.42 Scenarios.Wide region in
  ignore (Greedy.fulfill broker requests);
  let v0, h0 = power_state broker in
  Report.row "month 0.0 (greedy): normalized variance %.3f (=1.00 rel), headroom %.1f%%\n" v0
    (Report.pct h0);
  let reservations =
    List.map Ras.Reservation.of_request requests
    @ Ras.Buffers.shared_buffer_reservations region ~fraction:0.02 ~first_id:8000
  in
  let mover = Ras.Online_mover.create broker in
  Ras.Online_mover.set_reservations mover reservations;
  let months = Scenarios.scaled 4 in
  (* weekly solves over four months; RAS coverage ramps over the first month *)
  for week = 0 to (months * 4) - 1 do
    let coverage = Stdlib.min 1.0 (float_of_int (week + 1) /. 4.0) in
    let guaranteed = List.filter (fun r -> not (Ras.Reservation.is_buffer r)) reservations in
    let enabled_n =
      Stdlib.max 1 (int_of_float (coverage *. float_of_int (List.length guaranteed)))
    in
    let enabled =
      List.filteri (fun i _ -> i < enabled_n) guaranteed
      @ List.filter Ras.Reservation.is_buffer reservations
    in
    let snapshot = Ras.Snapshot.take broker enabled in
    let stats = Ras.Async_solver.solve ~params:Scenarios.simulation_solver snapshot in
    ignore (Ras.Online_mover.apply_plan mover stats.Ras.Async_solver.plan);
    if (week + 1) mod 4 = 0 then begin
      let v, h = power_state broker in
      Report.row "month %.1f: normalized variance %.3f (%.2f rel to start), headroom %.1f%%\n"
        (float_of_int (week + 1) /. 4.0)
        v (v /. v0) (Report.pct h)
    end
  done
