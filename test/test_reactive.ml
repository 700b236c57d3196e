(* Tier-1 reactive repair battery.

   Pins, in order: the incremental availability index never drifts from a
   fresh rebuild under churn (including region growth); the emergency
   grant covers what the full-scan oracle ([Oracles.grant_reference])
   covers, free pool before buffer, while visiting only the servers it
   takes, and refuses an index bound to another broker; the replacement
   search stays inside the oracle's preference classes on seeded failure
   storms and respects the dual prices; a mover built without an index
   repairs through its own, and a system shares its mover's; the
   replace_failed swap leaves no double-counted capacity behind (checked
   through the Symmetry current-owner histograms); loan bookkeeping
   round-trips under double failures; and the tier-2 objective drift caused
   by tier-1 repairs is bounded against oracle-repaired state.

   RAS_SCALE_TESTS=full adds the 10^6-server pins: per-event visited
   servers/classes bounded by class structure (not region size) and
   allocation-bounded emergency grants. *)

open Ras
module Broker = Ras_broker.Broker
module Region = Ras_topology.Region
module Generator = Ras_topology.Generator
module Hw = Ras_topology.Hardware
module Service = Ras_workload.Service
module Capacity_request = Ras_workload.Capacity_request
module Unavail = Ras_failures.Unavail
module Rng = Ras_stats.Rng

let full_scale () = Sys.getenv_opt "RAS_SCALE_TESTS" = Some "full"

let web = Service.make ~id:1 ~name:"web" ~profile:Service.Web ()

let reservation_of_rru ~id rru =
  Reservation.of_request (Capacity_request.make ~id ~service:web ~rru ())

(* Two structurally identical worlds: the differential tests run the same
   deterministic op sequence against both and compare outcomes. *)
let fresh_broker ?(params = Generator.small_params) () =
  Broker.create (Generator.generate params)

let check_index_matches_rebuild t =
  (* a freshly built index over the same broker is the ground truth the
     incremental one must agree with, bucket-for-bucket *)
  let fresh = Reactive.create (Reactive.broker t) in
  let region = Broker.region (Reactive.broker t) in
  for msb = 0 to region.Region.num_msbs - 1 do
    for hw = 0 to Hw.count - 1 do
      List.iter
        (fun source ->
          Alcotest.(check int)
            (Printf.sprintf "bucket m%d h%d" msb hw)
            (Reactive.available_in_bucket fresh ~source ~msb ~hw)
            (Reactive.available_in_bucket t ~source ~msb ~hw))
        [ `Free; `Buffer ]
    done
  done

let test_index_tracks_churn () =
  let broker = fresh_broker () in
  let t = Reactive.create broker in
  let n = Broker.num_servers broker in
  let rng = Rng.create 42 in
  for _ = 1 to 2000 do
    let id = Rng.int rng n in
    (match Rng.int rng 6 with
    | 0 -> Broker.move broker id Broker.Shared_buffer
    | 1 -> Broker.move broker id Broker.Free
    | 2 -> Broker.move broker id (Broker.Reservation (1 + Rng.int rng 3))
    | 3 -> Broker.mark_down broker id Unavail.Unplanned_hw
    | 4 -> Broker.mark_up broker id
    | _ -> Broker.set_in_use broker id (Rng.int rng 2 = 0));
    ()
  done;
  check_index_matches_rebuild t;
  Alcotest.(check bool) "index absorbed updates" true
    ((Reactive.counters t).Reactive.index_updates > 0)

let test_index_survives_region_growth () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let t = Reactive.create broker in
  let before = Reactive.num_buckets t in
  let grown =
    Generator.extend region ~new_msbs_per_dc:1 ~racks_per_msb:2 ~servers_per_rack:2 ~seed:99
  in
  Broker.extend_region broker grown;
  Alcotest.(check bool) "bucket space grew with the region" true
    (Reactive.num_buckets t > before);
  check_index_matches_rebuild t;
  (* adopted servers arrive Free and healthy: they must be in the pools *)
  let total_free = ref 0 in
  let r = Broker.region broker in
  for msb = 0 to r.Region.num_msbs - 1 do
    for hw = 0 to Hw.count - 1 do
      total_free := !total_free + Reactive.available_in_bucket t ~source:`Free ~msb ~hw
    done
  done;
  Alcotest.(check int) "every free healthy server indexed" (Broker.count_owner broker Broker.Free)
    !total_free

(* ---------- emergency grant: reactive vs full-scan oracle ---------- *)

(* Run the same pre-grant damage on both brokers so their columns agree. *)
let seed_buffer_and_damage broker =
  let n = Broker.num_servers broker in
  let rng = Rng.create 7 in
  for _ = 1 to n / 4 do
    Broker.move broker (Rng.int rng n) Broker.Shared_buffer
  done;
  for _ = 1 to n / 10 do
    Broker.mark_down broker (Rng.int rng n) Unavail.Unplanned_sw
  done;
  for _ = 1 to n / 10 do
    Broker.set_in_use broker (Rng.int rng n) true
  done

(* The price-guided grant may serve other servers than the id-ordered
   scan, but it must grant the same RRU, drain the free pool before the
   buffer, and draw as many servers from the buffer. *)
let test_grant_matches_oracle () =
  let res = reservation_of_rru ~id:1 6.0 in
  List.iter
    (fun (allow_buffer, rru) ->
      let a = fresh_broker () and b = fresh_broker () in
      seed_buffer_and_damage a;
      seed_buffer_and_damage b;
      let reactive = Reactive.create a in
      let owner_before = Array.init (Broker.num_servers a) (Broker.current_code a) in
      let g = Emergency.grant ~reactive a ~reservation:res ~rru ~allow_buffer in
      let o = Oracles.grant_reference b ~reservation:res ~rru ~allow_buffer in
      let tag = Printf.sprintf "(allow_buffer=%b, rru=%g)" allow_buffer rru in
      Alcotest.(check (float 1e-9)) ("same rru " ^ tag) o.Emergency.granted_rru
        g.Emergency.granted_rru;
      Alcotest.(check int) ("same buffer draw " ^ tag) o.Emergency.took_from_buffer
        g.Emergency.took_from_buffer;
      let from_free = List.length g.Emergency.servers - g.Emergency.took_from_buffer in
      List.iteri
        (fun i id ->
          let expected = if i < from_free then Broker.Free else Broker.Shared_buffer in
          Alcotest.(check int)
            (Printf.sprintf "server %d drawn free pool first %s" id tag)
            (Broker.owner_code expected) owner_before.(id))
        g.Emergency.servers;
      Alcotest.(check bool) ("visits only what it takes " ^ tag) true
        (g.Emergency.visited = List.length g.Emergency.servers
        && g.Emergency.visited <= o.Emergency.visited))
    [ (false, 6.0); (true, 6.0); (true, 1e4) ]

let test_grant_terminates_early () =
  let broker = fresh_broker () in
  let reactive = Reactive.create broker in
  let res = reservation_of_rru ~id:1 2.0 in
  let n = Broker.num_servers broker in
  let alloc0 = Gc.allocated_bytes () in
  let g = Emergency.grant ~reactive broker ~reservation:res ~rru:2.0 ~allow_buffer:false in
  let alloc = Gc.allocated_bytes () -. alloc0 in
  Alcotest.(check bool) "covered" true (g.Emergency.granted_rru >= 2.0);
  (* the whole free pool is acceptable compute-heavy supply, so coverage
     must come from a few servers — not a full scan *)
  Alcotest.(check bool)
    (Printf.sprintf "early termination (visited %d of %d)" g.Emergency.visited n)
    true
    (g.Emergency.visited < n);
  (* the grant materializes no records: allocation is O(classes + grant),
     not O(region) — a generous fixed budget catches an O(n) record build *)
  Alcotest.(check bool)
    (Printf.sprintf "allocation bounded (%.0f bytes)" alloc)
    true (alloc < 64_000.0)

let test_grant_rejects_foreign_index () =
  let broker = fresh_broker () in
  let reactive = Reactive.create (fresh_broker ()) in
  let res = reservation_of_rru ~id:1 2.0 in
  let owners = Array.init (Broker.num_servers broker) (Broker.current_code broker) in
  Alcotest.check_raises "index of another broker"
    (Invalid_argument "Emergency.grant: reactive index is bound to a different broker")
    (fun () ->
      ignore (Emergency.grant ~reactive broker ~reservation:res ~rru:2.0 ~allow_buffer:true));
  Alcotest.(check bool) "no server moved" true
    (Array.for_all Fun.id
       (Array.mapi (fun id c -> Broker.current_code broker id = c) owners))

(* ---------- replacement search vs the oracle on storms ---------- *)

let storm_world () =
  let broker = fresh_broker () in
  let res = reservation_of_rru ~id:1 10.0 in
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover [ res ];
  (* bind some compute to the reservation, park some in the buffer *)
  let bound = ref [] in
  let count_res = ref 0 and count_buf = ref 0 in
  for id = 0 to Broker.num_servers broker - 1 do
    if res.Reservation.rru_of (Broker.region broker).Region.servers.(id).Region.hw > 0.0 then begin
      if !count_res < 10 then begin
        Broker.move broker id (Broker.Reservation 1);
        bound := id :: !bound;
        incr count_res
      end
      else if !count_buf < 6 then begin
        Broker.move broker id Broker.Shared_buffer;
        incr count_buf
      end
    end
  done;
  (broker, res, mover, List.rev !bound)

(* The reactive pick may differ from the oracle's server, but only inside
   the same preference class: same subtype-match rank and same source
   kind. *)
let check_same_class broker ~failed_hw reference fast =
  let region = Broker.region broker in
  match (reference, fast) with
  | None, None -> ()
  | Some r, Some f ->
    let cls id =
      ( region.Region.servers.(id).Region.hw.Hw.index = failed_hw,
        Broker.current_code broker id )
    in
    Alcotest.(check (pair bool int)) "same preference class" (cls r) (cls f)
  | Some _, None -> Alcotest.fail "reactive found nothing where the oracle found a server"
  | None, Some _ -> Alcotest.fail "reactive found a server the oracle could not"

let test_replacement_matches_oracle_on_storm () =
  let broker, res, mover, bound = storm_world () in
  let rng = Rng.create 13 in
  List.iter
    (fun victim ->
      if Broker.healthy_at broker victim then begin
        let failed_hw =
          (Broker.region broker).Region.servers.(victim).Region.hw.Hw.index
        in
        (* decision class equality BEFORE the state advances... *)
        let fast = Online_mover.find_replacement mover res ~failed_hw in
        let slow = Oracles.find_replacement_reference broker mover res ~failed_hw in
        check_same_class broker ~failed_hw slow fast;
        (* ...then advance it: fail the victim, let the mover repair *)
        Broker.mark_down broker victim Unavail.Unplanned_hw;
        (* occasionally sprinkle extra churn between events *)
        if Rng.int rng 2 = 0 then
          Broker.set_in_use broker (Rng.int rng (Broker.num_servers broker)) true
      end)
    bound;
  Alcotest.(check bool) "storm produced replacements" true
    (Online_mover.replacements_done mover > 0);
  check_index_matches_rebuild (Online_mover.reactive mover)

let test_reactive_replacement_same_class () =
  (* a mover sharing an explicitly created index answers like the oracle
     up to the tie-break inside a preference class *)
  let broker, res, mover, bound = storm_world () in
  let reactive = Reactive.create broker in
  let rmover = Online_mover.create ~reactive broker in
  Alcotest.(check bool) "shares the given index" true (Online_mover.reactive rmover == reactive);
  Online_mover.set_reservations rmover [ res ];
  let region = Broker.region broker in
  List.iter
    (fun victim ->
      let failed_hw = region.Region.servers.(victim).Region.hw.Hw.index in
      let reference = Oracles.find_replacement_reference broker mover res ~failed_hw in
      let fast = Online_mover.find_replacement rmover res ~failed_hw in
      check_same_class broker ~failed_hw reference fast)
    bound

let test_mover_builds_own_index () =
  let broker = fresh_broker () in
  let res = reservation_of_rru ~id:1 4.0 in
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover [ res ];
  let ri = Online_mover.reactive mover in
  Alcotest.(check bool) "index bound to the mover's broker" true (Reactive.broker ri == broker);
  Broker.move broker 0 (Broker.Reservation 1);
  Broker.move broker 1 (Broker.Reservation 1);
  for id = 2 to 7 do
    Broker.move broker id Broker.Shared_buffer
  done;
  let before = Reactive.counters ri in
  Broker.mark_down broker 0 Unavail.Unplanned_hw;
  Broker.mark_down broker 1 Unavail.Unplanned_sw;
  Alcotest.(check int) "both failures repaired" 2 (Online_mover.replacements_done mover);
  let after = Reactive.counters ri in
  Alcotest.(check int) "repairs served by the index" (before.Reactive.events + 2)
    after.Reactive.events;
  Alcotest.(check bool) "index absorbed the moves" true
    (after.Reactive.index_updates > before.Reactive.index_updates);
  (* churn, then the incremental index must equal a fresh rebuild *)
  let n = Broker.num_servers broker in
  let rng = Rng.create 5 in
  for _ = 1 to 500 do
    let id = Rng.int rng n in
    match Rng.int rng 4 with
    | 0 -> Broker.move broker id Broker.Shared_buffer
    | 1 -> Broker.move broker id Broker.Free
    | 2 -> Broker.mark_up broker id
    | _ -> Broker.set_in_use broker id (Rng.bool rng)
  done;
  check_index_matches_rebuild ri

let test_system_shares_mover_index () =
  let sys = System.create (fresh_broker ()) in
  Alcotest.(check bool) "one index per system" true
    (System.reactive sys == Online_mover.reactive (System.mover sys))

let test_reactive_respects_prices () =
  let broker = fresh_broker () in
  let reactive = Reactive.create broker in
  let region = Broker.region broker in
  (* make msb 0 expensive for every subtype; everything else free *)
  let row_names =
    Array.init Hw.count (fun hw -> Printf.sprintf "supply_m0h%du0a0" hw)
  in
  let duals = Array.make Hw.count 5.0 in
  Reactive.set_prices reactive (Solver_state.price_table ~row_names ~duals ());
  let res = reservation_of_rru ~id:1 3.0 in
  let g = Reactive.grant reactive ~reservation:res ~rru:3.0 ~allow_buffer:false in
  Alcotest.(check bool) "granted" true (g.Reactive.granted_rru >= 3.0);
  List.iter
    (fun id ->
      Alcotest.(check bool) "avoided the expensive msb" true
        (region.Region.servers.(id).Region.loc.Region.msb <> 0))
    g.Reactive.servers

let test_price_table_parsing () =
  let row_names =
    [| "supply_m3h5u1a0"; "supply_m3k7h5u0a2"; "supply_m12h0u0a0"; "capacity_r42"; "spread_x" |]
  in
  let duals = [| -2.0; 3.5; 1e-15; -7.25; 9.9 |] in
  let p = Solver_state.price_table ~round:4 ~row_names ~duals () in
  (* max |dual| over the class variants of (msb 3, hw 5), rack rows folded *)
  Alcotest.(check (float 1e-9)) "class max-abs aggregate" 3.5
    (Solver_state.class_price p ~msb:3 ~hw:5);
  Alcotest.(check (float 1e-9)) "negligible dual skipped" 0.0
    (Solver_state.class_price p ~msb:12 ~hw:0);
  (* the capacity and spread rows carry no class scope and are skipped *)
  Alcotest.(check int) "only supply rows priced" 1
    (Hashtbl.length p.Solver_state.class_prices);
  Alcotest.(check (float 1e-9)) "unknown scope prices 0" 0.0
    (Solver_state.class_price p ~msb:0 ~hw:0)

(* ---------- replace_failed swap accounting ---------- *)

let test_replace_failed_releases_dead_server () =
  let broker = fresh_broker () in
  let res = reservation_of_rru ~id:1 4.0 in
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover [ res ];
  Broker.move broker 0 (Broker.Reservation 1);
  Broker.move broker 1 Broker.Shared_buffer;
  let owned_before = Broker.count_owner broker (Broker.Reservation 1) in
  Broker.mark_down broker 0 Unavail.Unplanned_hw;
  Alcotest.(check int) "one replacement" 1 (Online_mover.replacements_done mover);
  (* the swap: replacement in, dead server out to the shared buffer *)
  Alcotest.(check bool) "replacement bound" true
    (Broker.current_owner broker 1 = Broker.Reservation 1);
  Alcotest.(check bool) "dead server released to the buffer" true
    (Broker.current_owner broker 0 = Broker.Shared_buffer);
  Alcotest.(check bool) "target follows" true
    (Broker.target_code broker 0 = Broker.owner_code Broker.Shared_buffer);
  Alcotest.(check int) "no double-counted membership" owned_before
    (Broker.count_owner broker (Broker.Reservation 1));
  (* the accounting the solver sees: symmetry's current-owner histograms
     must attribute exactly [owned_before] servers to the reservation even
     after the failed one heals *)
  Broker.mark_up broker 0;
  let snapshot = Snapshot.take broker [ res ] in
  let symmetry = Symmetry.build snapshot in
  let counted =
    Array.fold_left
      (fun acc cls -> acc + Symmetry.current_count symmetry cls (Broker.Reservation 1))
      0 symmetry.Symmetry.classes
  in
  Alcotest.(check int) "symmetry histogram agrees" owned_before counted

let test_double_failure_loan_round_trip () =
  let broker = fresh_broker () in
  let res = reservation_of_rru ~id:1 6.0 in
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover [ res ];
  (* two reservation servers; buffer supply exists only as loans to an
     elastic reservation, so replacements must reclaim loans *)
  Broker.move broker 0 (Broker.Reservation 1);
  Broker.move broker 1 (Broker.Reservation 1);
  Broker.move broker 2 Broker.Shared_buffer;
  Broker.move broker 3 Broker.Shared_buffer;
  Broker.move broker 4 Broker.Shared_buffer;
  let lent = Online_mover.lend_idle mover ~elastic_id:9000 ~max_servers:3 in
  Alcotest.(check int) "three loans out" 3 lent;
  Alcotest.(check int) "loans tracked" 3 (Online_mover.loans_outstanding mover);
  Broker.mark_down broker 0 Unavail.Unplanned_hw;
  Broker.mark_down broker 1 Unavail.Unplanned_sw;
  Alcotest.(check int) "both failures replaced" 2 (Online_mover.replacements_done mover);
  Alcotest.(check int) "replacements consumed loans" 1 (Online_mover.loans_outstanding mover);
  Alcotest.(check int) "reservation back to strength" 2
    (Broker.count_owner broker (Broker.Reservation 1));
  Alcotest.(check int) "dead servers parked in the buffer" 2
    (Broker.count_owner broker Broker.Shared_buffer);
  (* the surviving loan still round-trips home *)
  let revoked = Online_mover.revoke mover ~elastic_id:9000 in
  Alcotest.(check int) "remaining loan revoked" 1 revoked;
  Alcotest.(check int) "no loans left" 0 (Online_mover.loans_outstanding mover);
  Alcotest.(check int) "no elastic holdings left" 0
    (Broker.count_owner broker (Broker.Elastic 9000))

(* ---------- tier-2 drift bound ---------- *)

let test_tier1_repair_drift_bounded () =
  (* identical worlds; one repaired by tier-1 (reactive), one by the legacy
     oracle scans.  Re-solving both repaired states must give objectives
     within a small relative band: tier-1's price-guided picks may differ
     server-for-server, never materially in tier-2 cost. *)
  let build () =
    let region = Generator.generate Generator.small_params in
    let broker = Broker.create region in
    let rng = Rng.create 11 in
    let requests =
      Ras_workload.Request_gen.scenario rng ~region ~services:Service.default_catalog
        ~target_utilization:0.4
    in
    let reservations =
      List.map Reservation.of_request requests
      @ Buffers.shared_buffer_reservations region ~fraction:0.05 ~first_id:8000
    in
    (broker, reservations)
  in
  let solve_objective broker reservations =
    let snapshot = Snapshot.take broker reservations in
    let result = Phases.run ~mip_node_limit:0 snapshot reservations in
    result.Phases.outcome.Ras_mip.Branch_bound.objective
  in
  let repair use_reactive =
    let broker, reservations = build () in
    let mover = Online_mover.create broker in
    Online_mover.set_reservations mover reservations;
    (* bind capacity with one heuristic round *)
    let snapshot = Snapshot.take broker reservations in
    let stats =
      Async_solver.solve
        ~params:{ Async_solver.default_params with Async_solver.node_limit = 0 }
        snapshot
    in
    ignore (Online_mover.apply_plan mover stats.Async_solver.plan);
    (match stats.Async_solver.price_table with
    | Some p -> Reactive.set_prices (Online_mover.reactive mover) p
    | None -> ());
    (* deterministic storm over reservation-bound servers *)
    let victims = ref [] in
    for id = 0 to Broker.num_servers broker - 1 do
      match Broker.current_owner broker id with
      | Broker.Reservation rid when rid < 8000 && List.length !victims < 8 ->
        victims := id :: !victims
      | _ -> ()
    done;
    let victims = List.rev !victims in
    let repaired =
      if use_reactive then begin
        List.iter (fun id -> Broker.mark_down broker id Unavail.Unplanned_hw) victims;
        Online_mover.replacements_done mover
      end
      else begin
        (* the oracle repair: the mover stands down (no reservations) and
           the full-scan reference picks each replacement, with the same
           swap the mover performs *)
        Online_mover.set_reservations mover [];
        List.fold_left
          (fun repaired id ->
            let rid =
              match Broker.current_owner broker id with
              | Broker.Reservation rid -> rid
              | _ -> assert false
            in
            let res = List.find (fun r -> r.Reservation.id = rid) reservations in
            let failed_hw = (Broker.region broker).Region.servers.(id).Region.hw.Hw.index in
            Broker.mark_down broker id Unavail.Unplanned_hw;
            match Oracles.find_replacement_reference broker mover res ~failed_hw with
            | Some r ->
              Broker.move broker r (Broker.Reservation rid);
              Broker.set_target broker r (Broker.Reservation rid);
              Broker.move broker id Broker.Shared_buffer;
              Broker.set_target broker id Broker.Shared_buffer;
              repaired + 1
            | None -> repaired)
          0 victims
      end
    in
    (solve_objective broker reservations, repaired)
  in
  let obj_oracle, repl_oracle = repair false in
  let obj_reactive, repl_reactive = repair true in
  Alcotest.(check int) "both repaired the same storm" repl_oracle repl_reactive;
  let drift = Float.abs (obj_reactive -. obj_oracle) in
  let bound = 0.05 *. Float.max 1.0 (Float.abs obj_oracle) in
  Alcotest.(check bool)
    (Printf.sprintf "tier-2 objective drift %.3f within %.3f" drift bound)
    true (drift <= bound)

(* ---------- region scale (RAS_SCALE_TESTS=full) ---------- *)

let scale_world () =
  let region = Generator.generate Generator.region_scale_params in
  let broker = Broker.create region in
  let rng = Rng.create 31 in
  let n = Broker.num_servers broker in
  (* a realistic event-path state: some reservation-bound servers, a
     populated shared buffer — placed columnar, no solve needed *)
  let res = reservation_of_rru ~id:1 1e9 in
  let bound = ref [] in
  for _ = 1 to 4000 do
    let id = Rng.int rng n in
    if
      Broker.current_code broker id = Broker.owner_code Broker.Free
      && res.Reservation.rru_of region.Region.servers.(id).Region.hw > 0.0
    then begin
      Broker.move broker id (Broker.Reservation 1);
      bound := id :: !bound
    end
  done;
  for _ = 1 to 8000 do
    let id = Rng.int rng n in
    if Broker.current_code broker id = Broker.owner_code Broker.Free then
      Broker.move broker id Broker.Shared_buffer
  done;
  (broker, res, !bound)

let test_scale_reactive_visits_classes_not_servers () =
  if not (full_scale ()) then () (* 10^6-server pin: RAS_SCALE_TESTS=full only *)
  else begin
    let broker, res, bound = scale_world () in
    let reactive = Reactive.create broker in
    let mover = Online_mover.create ~reactive broker in
    Online_mover.set_reservations mover [ res ];
    let n = Broker.num_servers broker in
    let buckets = Reactive.num_buckets reactive in
    Reactive.reset_counters reactive;
    let events = 50 in
    let victims = List.filteri (fun i _ -> i < events) bound in
    let alloc0 = Gc.allocated_bytes () in
    List.iter (fun id -> Broker.mark_down broker id Unavail.Unplanned_hw) victims;
    let alloc = Gc.allocated_bytes () -. alloc0 in
    let c = Reactive.counters reactive in
    Alcotest.(check int) "every event repaired" events (Online_mover.replacements_done mover);
    let per_event_classes = c.Reactive.visited_classes / events in
    let per_event_servers = c.Reactive.visited_servers / events in
    Alcotest.(check bool)
      (Printf.sprintf "classes/event %d bounded by bucket count %d (region %d)"
         per_event_classes buckets n)
      true
      (per_event_classes <= buckets);
    Alcotest.(check bool)
      (Printf.sprintf "servers/event %d is O(1), not O(n=%d)" per_event_servers n)
      true (per_event_servers <= 2);
    (* repair allocation per event must not scale with the region *)
    Alcotest.(check bool)
      (Printf.sprintf "alloc/event %.0f bytes bounded" (alloc /. float_of_int events))
      true
      (alloc /. float_of_int events < 128_000.0)
  end

let test_scale_grant_bounded () =
  if not (full_scale ()) then () (* 10^6-server pin: RAS_SCALE_TESTS=full only *)
  else begin
    let broker, res, _ = scale_world () in
    let reactive = Reactive.create broker in
    let n = Broker.num_servers broker in
    let alloc0 = Gc.allocated_bytes () in
    let g = Emergency.grant ~reactive broker ~reservation:res ~rru:50.0 ~allow_buffer:false in
    let alloc = Gc.allocated_bytes () -. alloc0 in
    Alcotest.(check bool) "covered" true (g.Emergency.granted_rru >= 50.0);
    Alcotest.(check bool)
      (Printf.sprintf "visited %d of %d: early termination held" g.Emergency.visited n)
      true
      (g.Emergency.visited < n / 10);
    Alcotest.(check bool)
      (Printf.sprintf "grant allocation %.0f bytes bounded" alloc)
      true (alloc < 1_000_000.0)
  end

let suite =
  [
    Alcotest.test_case "index tracks churn" `Quick test_index_tracks_churn;
    Alcotest.test_case "index survives region growth" `Quick test_index_survives_region_growth;
    Alcotest.test_case "grant matches oracle" `Quick test_grant_matches_oracle;
    Alcotest.test_case "grant terminates early" `Quick test_grant_terminates_early;
    Alcotest.test_case "grant rejects an index of another broker" `Quick
      test_grant_rejects_foreign_index;
    Alcotest.test_case "replacement matches oracle on storm" `Quick
      test_replacement_matches_oracle_on_storm;
    Alcotest.test_case "reactive replacement stays in class" `Quick
      test_reactive_replacement_same_class;
    Alcotest.test_case "mover without an index repairs through its own" `Quick
      test_mover_builds_own_index;
    Alcotest.test_case "system shares its mover's index" `Quick test_system_shares_mover_index;
    Alcotest.test_case "reactive grant respects prices" `Quick test_reactive_respects_prices;
    Alcotest.test_case "price table parsing" `Quick test_price_table_parsing;
    Alcotest.test_case "replace_failed releases dead server" `Quick
      test_replace_failed_releases_dead_server;
    Alcotest.test_case "double failure loan round trip" `Quick
      test_double_failure_loan_round_trip;
    Alcotest.test_case "tier-1 repair drift bounded" `Quick test_tier1_repair_drift_bounded;
    Alcotest.test_case "scale: visits classes not servers" `Slow
      test_scale_reactive_visits_classes_not_servers;
    Alcotest.test_case "scale: grant bounded" `Slow test_scale_grant_bounded;
  ]
