(* Benchmark entry point:

     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   Runs one workload, checks its outputs, and prints as the last line of
   standard output one JSON object with the keys [correct], [attempted],
   [failed] and [metrics].  An untraced run ([--trace 0]) reports the
   end-to-end metrics; a traced run reports the per-layer metrics, and
   writes its per-round and per-event-kind records to
   [.rasbench/trace-<workload>-seed<n>.json].  A failed output check prints
   [correct: false] and exits with code 1. *)

open Common

(* Metric names and units, in output order.  Every run prints every metric
   of its kind; a layer a workload bypasses reports 0. *)
let end_to_end_units =
  [
    ("setup_s", "s");
    ("op_p50_ms", "ms");
    ("op_p99_ms", "ms");
    ("ops_per_s", "1/s");
    ("alloc_mb_per_op", "MB");
    ("peak_heap_mb", "MB");
    ("plan_objective", "cost");
  ]

let per_layer_units =
  [
    ("snapshot.take_s", "s");
    ("symmetry.build_s", "s");
    ("symmetry.classes", "count");
    ("formulation.build_s", "s");
    ("model.compile_s", "s");
    ("concretize.plan_s", "s");
    ("concretize.moves", "count");
    ("async_solver.merge_s", "s");
    ("mover.apply_s", "s");
    ("mover.moved_in_use", "count");
    ("mover.moved_unused", "count");
    ("mover.skipped_unavailable", "count");
    ("reactive.index_updates", "count");
    ("phases.ras_build_s", "s");
    ("phases.solver_build_s", "s");
    ("phases.initial_state_s", "s");
    ("phases.mip_s", "s");
    ("simplex.pivots", "count");
    ("simplex.dual_pivots", "count");
    ("simplex.bland_pivots", "count");
    ("bb.nodes", "count");
    ("bb.warm_started_nodes", "count");
    ("bb.dual_restarts", "count");
    ("incremental.basis_reuse", "fraction");
    ("incremental.pivots_saved", "count");
    ("incremental.seed_accepted", "count");
    ("incremental.seed_repaired", "count");
    ("incremental.seed_rejected", "count");
    ("system.post_solve_s", "s");
    ("twine.placed", "count");
    ("twine.pending", "count");
    ("quality.preempted_per_round", "count");
    ("quality.shortfall_rru", "rru");
    ("tier1.repair_p50_us", "us");
    ("tier1.repair_p99_us", "us");
    ("tier1.restore_p50_us", "us");
    ("tier1.restore_p99_us", "us");
    ("tier1.grant_p50_us", "us");
    ("tier1.grant_p99_us", "us");
    ("tier1.release_p50_us", "us");
    ("tier1.release_p99_us", "us");
    ("tier1.lend_p50_us", "us");
    ("tier1.lend_p99_us", "us");
    ("tier1.revoke_p50_us", "us");
    ("tier1.revoke_p99_us", "us");
    ("portal.submit_p50_us", "us");
    ("portal.submit_p99_us", "us");
    ("reactive.visited_servers_per_event", "count");
    ("reactive.visited_classes_per_event", "count");
    ("emergency.visited_per_grant", "count");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections_per_op", "count");
    ("trace.op_p50_ms", "ms");
    ("trace.replay_s_per_op", "s");
  ]

let workloads =
  [
    ("loop-large", fun ~seed ~seconds ~trace -> Loop_large.run ~seed ~seconds ~trace ~setups:2);
    ("sim-medium", fun ~seed ~seconds ~trace -> Sim_medium.run ~seed ~seconds ~trace ~setups:3);
    ("events-large", fun ~seed ~seconds ~trace -> Events_large.run ~seed ~seconds ~trace ~setups:2);
  ]

let usage () =
  prerr_endline
    ("usage: main.exe --workload <"
    ^ String.concat "|" (List.map fst workloads)
    ^ "> --seed <n> --seconds <s> --trace <0|1>");
  exit 2

let write_records ~workload ~seed (r : result) =
  let dir = ".rasbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "trace-%s-seed%d.json" workload seed) in
  let oc = open_out path in
  output_string oc
    (json_obj
       [
         ("workload", Printf.sprintf "%S" workload);
         ("info", json_obj r.info);
         ("per_layer", json_obj (List.map (fun (k, v) -> (k, jf v)) r.per_layer));
         ("records", "[\n  " ^ String.concat ",\n  " r.records ^ "\n]");
       ]);
  output_char oc '\n';
  close_out oc;
  path

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run = match List.assoc_opt !workload workloads with Some f -> f | None -> usage () in
  let traced = !trace = 1 in
  let emit ~correct ~attempted ~failed metrics =
    let metrics =
      List.map
        (fun (name, unit_) ->
          let v = Option.value (List.assoc_opt name metrics) ~default:0.0 in
          (name, json_obj [ ("value", jf v); ("unit", Printf.sprintf "%S" unit_) ]))
        (if traced then per_layer_units else end_to_end_units)
    in
    print_endline
      (json_obj
         [
           ("correct", string_of_bool correct);
           ("attempted", ji attempted);
           ("failed", ji failed);
           ("metrics", json_obj metrics);
         ])
  in
  match run ~seed:!seed ~seconds:!seconds ~trace:traced with
  | r ->
    let info = r.info @ [ ("reference_kernel_s", jf (median_kernel_s ())) ] in
    print_endline (json_obj [ ("workload", Printf.sprintf "%S" !workload); ("info", json_obj info) ]);
    if traced then Printf.printf "records: %s\n" (write_records ~workload:!workload ~seed:!seed r);
    emit ~correct:true ~attempted:r.attempted ~failed:r.failed
      (if traced then r.per_layer else r.end_to_end)
  | exception Check_failed msg ->
    Printf.printf "check failed: %s\n" msg;
    emit ~correct:false ~attempted:1 ~failed:1 [];
    exit 1
