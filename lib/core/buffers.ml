module Region = Ras_topology.Region
module Hw = Ras_topology.Hardware
module Simplex = Ras_mip.Simplex
module Model = Ras_mip.Model

let all_categories =
  [ Hw.Compute; Hw.Storage; Hw.Memory; Hw.Flash; Hw.Gpu; Hw.Asic; Hw.Compute_dense ]

let shared_buffer_reservations region ~fraction ~first_id =
  let capacity_of category =
    Array.fold_left
      (fun acc (s : Region.server) ->
        if s.Region.hw.Hw.category = category then acc +. s.Region.hw.Hw.base_rru else acc)
      0.0 region.Region.servers
  in
  let _, reservations =
    List.fold_left
      (fun (id, acc) category ->
        let cap = fraction *. capacity_of category in
        if cap >= 1.0 then
          (id + 1, Reservation.shared_buffer ~id ~category ~capacity_rru:cap :: acc)
        else (id, acc))
      (first_id, []) all_categories
  in
  List.rev reservations

let embedded_buffer_fraction (snapshot : Snapshot.t) =
  let buffer_sum = ref 0.0 and total_sum = ref 0.0 in
  List.iter
    (fun res ->
      if (not (Reservation.is_buffer res)) && res.Reservation.embedded_buffer then begin
        let per_msb = Snapshot.rru_by_msb snapshot res in
        let total = Array.fold_left ( +. ) 0.0 per_msb in
        if total > 0.0 then begin
          buffer_sum := !buffer_sum +. Array.fold_left Float.max 0.0 per_msb;
          total_sum := !total_sum +. total
        end
      end)
    snapshot.Snapshot.reservations;
  if !total_sum > 0.0 then !buffer_sum /. !total_sum else nan

let perfect_spread_bound (region : Region.t) =
  if region.Region.num_msbs = 0 then nan else 1.0 /. float_of_int region.Region.num_msbs

let hardware_aware_bound (snapshot : Snapshot.t) reservations =
  (* buffer-only objective: no stability or spread costs, capacity enforced
     through heavy softening; the continuous relaxation gives the floor *)
  let params =
    {
      Formulation.move_cost_unused = 0.0;
      move_cost_in_use = 0.0;
      spread_penalty = 0.0;
      buffer_cost = 1.0;
      capacity_slack_cost = 1e7;
      affinity_slack_cost = 0.0;
      assignment_cost = 0.0;
      wear_penalty = 0.0;
    }
  in
  let symmetry = Symmetry.build snapshot in
  let f = Formulation.build ~params symmetry reservations in
  let std = Model.compile f.Formulation.model in
  match Simplex.solve std with
  | Simplex.Optimal { x; _ } ->
    let buffer_sum =
      List.fold_left
        (fun acc (_, z) -> acc +. x.(z))
        0.0 f.Formulation.buffer_var
    in
    let total_sum =
      Array.fold_left
        (fun acc (p : Formulation.pair) ->
          if p.Formulation.res.Reservation.embedded_buffer then
            acc +. (p.Formulation.rru *. x.(p.Formulation.var))
          else acc)
        0.0 f.Formulation.pairs
    in
    if total_sum > 0.0 then buffer_sum /. total_sum else nan
  | Simplex.Infeasible _ | Simplex.Unbounded | Simplex.Iteration_limit _ -> nan
