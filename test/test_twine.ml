(* Tests for ras_twine: jobs, the in-reservation container allocator
   (stacking, spread, failure handling) and the greedy baseline. *)

module Broker = Ras_broker.Broker
module Region = Ras_topology.Region
module Generator = Ras_topology.Generator
module Hw = Ras_topology.Hardware
module Service = Ras_workload.Service
module Capacity_request = Ras_workload.Capacity_request
module Job = Ras_twine.Job
module Allocator = Ras_twine.Allocator
module Greedy = Ras_twine.Greedy
module Unavail = Ras_failures.Unavail

let rru_of hw = hw.Hw.base_rru

let setup ?(owned = 12) () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  (* give reservation 1 the first [owned] servers *)
  for id = 0 to owned - 1 do
    Broker.move broker id (Broker.Reservation 1)
  done;
  let alloc = Allocator.create broker ~reservation:1 ~rru_of in
  (broker, alloc)

let test_job_validation () =
  Alcotest.check_raises "zero replicas" (Invalid_argument "Job.make: replicas must be positive")
    (fun () -> ignore (Job.make ~id:1 ~reservation:1 ~replicas:0 ~rru_per_replica:1.0 ()));
  let j = Job.make ~id:1 ~reservation:1 ~replicas:3 ~rru_per_replica:2.0 () in
  Alcotest.(check (float 1e-9)) "total rru" 6.0 (Job.total_rru j);
  Alcotest.(check int) "containers" 3 (List.length (Job.containers j))

let test_place_and_stop () =
  let broker, alloc = setup () in
  let job = Job.make ~id:1 ~reservation:1 ~replicas:4 ~rru_per_replica:0.5 () in
  (match Allocator.place_job alloc job with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "placed" 4 (Allocator.placed_containers alloc);
  Alcotest.(check (float 1e-9)) "used rru" 2.0 (Allocator.used_rru alloc);
  let in_use = Allocator.servers_in_use alloc in
  List.iter
    (fun sid ->
      Alcotest.(check bool) "broker marked in use" true (Broker.in_use_at broker sid))
    in_use;
  Allocator.stop_job alloc job;
  Alcotest.(check int) "stopped" 0 (Allocator.placed_containers alloc);
  List.iter
    (fun sid ->
      Alcotest.(check bool) "in_use cleared" false (Broker.in_use_at broker sid))
    in_use

let test_wrong_reservation_rejected () =
  let _, alloc = setup () in
  let job = Job.make ~id:1 ~reservation:2 ~replicas:1 ~rru_per_replica:1.0 () in
  Alcotest.check_raises "wrong reservation"
    (Invalid_argument "Allocator.place_job: job belongs to a different reservation") (fun () ->
      ignore (Allocator.place_job alloc job))

let test_capacity_rejection_atomic () =
  let _, alloc = setup ~owned:2 () in
  let huge = Job.make ~id:2 ~reservation:1 ~replicas:100 ~rru_per_replica:5.0 () in
  (match Allocator.place_job alloc huge with
  | Ok () -> Alcotest.fail "should not fit"
  | Error _ -> ());
  Alcotest.(check int) "atomic rollback" 0 (Allocator.placed_containers alloc)

let test_stacking_respects_capacity () =
  let _, alloc = setup () in
  let job = Job.make ~id:3 ~reservation:1 ~replicas:20 ~rru_per_replica:0.4 ~spread_msbs:false () in
  (match Allocator.place_job alloc job with Ok () -> () | Error e -> Alcotest.fail e);
  (* no server may exceed its own RRU value *)
  let loads = Hashtbl.create 16 in
  List.iter
    (fun c ->
      match Allocator.server_of_container alloc c with
      | Some sid ->
        Hashtbl.replace loads sid
          (0.4 +. (try Hashtbl.find loads sid with Not_found -> 0.0))
      | None -> Alcotest.fail "unplaced container")
    (Job.containers job);
  Alcotest.(check bool) "stacked" true (Hashtbl.length loads < 20)

let test_spread_across_msbs () =
  (* server ids are rack-major within MSB: 0..23 are MSB 0, 24..47 MSB 1;
     give the reservation capacity in both *)
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  List.iter (fun id -> Broker.move broker id (Broker.Reservation 1))
    [ 0; 1; 2; 24; 25; 26 ];
  let alloc = Allocator.create broker ~reservation:1 ~rru_of in
  let job = Job.make ~id:4 ~reservation:1 ~replicas:6 ~rru_per_replica:0.25 () in
  (match Allocator.place_job alloc job with Ok () -> () | Error e -> Alcotest.fail e);
  let msbs = Hashtbl.create 8 in
  List.iter
    (fun c ->
      match Allocator.server_of_container alloc c with
      | Some sid ->
        let msb = (Broker.region broker).Region.servers.(sid).Region.loc.Region.msb in
        Hashtbl.replace msbs msb ()
      | None -> ())
    (Job.containers job);
  Alcotest.(check bool) "replicas span several msbs" true (Hashtbl.length msbs >= 2)

let test_failure_replacement () =
  let broker, alloc = setup ~owned:12 () in
  let job = Job.make ~id:5 ~reservation:1 ~replicas:3 ~rru_per_replica:0.5 () in
  (match Allocator.place_job alloc job with Ok () -> () | Error e -> Alcotest.fail e);
  let victim = List.hd (Allocator.servers_in_use alloc) in
  Broker.mark_down broker victim Unavail.Unplanned_hw;
  (* containers re-placed on remaining capacity automatically *)
  Alcotest.(check int) "all replicas still placed" 3 (Allocator.placed_containers alloc);
  Alcotest.(check int) "none pending" 0 (Allocator.pending_containers alloc);
  List.iter
    (fun sid -> Alcotest.(check bool) "victim evacuated" true (sid <> victim))
    (Allocator.servers_in_use alloc)

let test_failure_without_capacity_goes_pending () =
  let broker, alloc = setup ~owned:1 () in
  let hw = (Broker.region broker).Region.servers.(0).Region.hw in
  let job = Job.make ~id:6 ~reservation:1 ~replicas:1 ~rru_per_replica:(rru_of hw) () in
  (match Allocator.place_job alloc job with Ok () -> () | Error e -> Alcotest.fail e);
  Broker.mark_down broker 0 Unavail.Unplanned_hw;
  Alcotest.(check int) "pending" 1 (Allocator.pending_containers alloc);
  (* capacity arrives: a new server joins the reservation *)
  Broker.move broker 1 (Broker.Reservation 1);
  let stats = Allocator.retry_pending alloc in
  Alcotest.(check int) "replaced" 1 stats.Allocator.replaced;
  Alcotest.(check int) "no strand" 0 stats.Allocator.stranded

let test_evict_server () =
  let _, alloc = setup () in
  let job = Job.make ~id:7 ~reservation:1 ~replicas:2 ~rru_per_replica:0.5 () in
  (match Allocator.place_job alloc job with Ok () -> () | Error e -> Alcotest.fail e);
  match Allocator.servers_in_use alloc with
  | sid :: _ ->
    Allocator.evict_server alloc sid;
    Alcotest.(check bool) "pending or re-placed" true
      (Allocator.pending_containers alloc >= 0);
    Alcotest.(check bool) "server no longer hosts" true
      (not (List.mem sid (Allocator.servers_in_use alloc)))
  | [] -> Alcotest.fail "nothing placed"

let web = Service.make ~id:1 ~name:"web" ~profile:Service.Web ()

let test_greedy_fulfill_and_release () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let req = Capacity_request.make ~id:1 ~service:web ~rru:10.0 () in
  let result = Greedy.fulfill broker [ req ] in
  (match result with
  | [ (1, shortfall) ] -> Alcotest.(check (float 1e-9)) "fully satisfied" 0.0 shortfall
  | _ -> Alcotest.fail "unexpected result shape");
  let owned = Broker.servers_with_owner broker (Broker.Reservation 1) in
  Alcotest.(check bool) "servers bound" true (List.length owned > 0);
  (* greedy takes servers in pool order: concentrated in early MSBs *)
  let msbs =
    List.map (fun sid -> (Broker.region broker).Region.servers.(sid).Region.loc.Region.msb) owned
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "concentrated placement" true (List.length msbs <= 3);
  Greedy.release broker ~reservation:1;
  Alcotest.(check int) "released" 0 (Broker.count_owner broker (Broker.Reservation 1))

let test_greedy_reports_shortfall () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let req = Capacity_request.make ~id:1 ~service:web ~rru:1e9 () in
  match Greedy.fulfill broker [ req ] with
  | [ (1, shortfall) ] -> Alcotest.(check bool) "shortfall reported" true (shortfall > 0.0)
  | _ -> Alcotest.fail "unexpected result shape"

let test_greedy_skips_unacceptable_hw () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let storage = Service.make ~id:2 ~name:"ds" ~profile:Service.Data_store () in
  let req = Capacity_request.make ~id:2 ~service:storage ~rru:5.0 () in
  ignore (Greedy.fulfill broker [ req ]);
  List.iter
    (fun sid ->
      let hw = (Broker.region broker).Region.servers.(sid).Region.hw in
      Alcotest.(check bool) "only storage hardware" true (hw.Hw.category = Hw.Storage))
    (Broker.servers_with_owner broker (Broker.Reservation 2))

let suite =
  [
    Alcotest.test_case "job validation" `Quick test_job_validation;
    Alcotest.test_case "place and stop" `Quick test_place_and_stop;
    Alcotest.test_case "wrong reservation rejected" `Quick test_wrong_reservation_rejected;
    Alcotest.test_case "capacity rejection atomic" `Quick test_capacity_rejection_atomic;
    Alcotest.test_case "stacking respects capacity" `Quick test_stacking_respects_capacity;
    Alcotest.test_case "spread across msbs" `Quick test_spread_across_msbs;
    Alcotest.test_case "failure replacement" `Quick test_failure_replacement;
    Alcotest.test_case "failure goes pending" `Quick test_failure_without_capacity_goes_pending;
    Alcotest.test_case "evict server" `Quick test_evict_server;
    Alcotest.test_case "greedy fulfill/release" `Quick test_greedy_fulfill_and_release;
    Alcotest.test_case "greedy reports shortfall" `Quick test_greedy_reports_shortfall;
    Alcotest.test_case "greedy hw acceptability" `Quick test_greedy_skips_unacceptable_hw;
  ]
