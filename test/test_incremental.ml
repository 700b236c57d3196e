(* Cross-round incremental re-solve: the correctness contracts behind the
   continuous-loop perf numbers.

   - diff counters: every [Incremental.stats] counter equals a recount by
     name over the two compiled models, over randomized churn (variables
     and rows added, removed and perturbed);
   - basis remapping: the identity map returns its input, and a presolve
     projection keeps every carried basic column and restarts warm;
   - incremental-vs-cold equivalence: re-solving with a mapped warm basis
     (LP chains) or a mapped basis + patched seed (B&B chains) reaches the
     same objective as a cold solve — the warm path is a pure perf change;
   - naming stability: failing a server changes only the entities that
     actually changed — surviving variable/row names are preserved, so the
     cross-round diff stays proportional to the churn;
   - stale seeds degrade gracefully: an invalid carried incumbent is
     repaired or rejected (and counted), never an exception. *)

open Ras
module Broker = Ras_broker.Broker
module Generator = Ras_topology.Generator
module Service = Ras_workload.Service
module Unavail = Ras_failures.Unavail
module Model = Ras_mip.Model
module Lin_expr = Ras_mip.Lin_expr
module Simplex = Ras_mip.Simplex
module Incremental = Ras_mip.Incremental
module Branch_bound = Ras_mip.Branch_bound
module Presolve = Ras_mip.Presolve

(* ---------- randomized named-model worlds ---------- *)

(* A world is a list of named variables and named rows over them; churn
   mutates the world the way region churn mutates the formulation: some
   entities disappear, fresh ones appear, surviving ones drift. *)

type vspec = { vid : int; vlb : float; vub : float; vobj : float; vint : bool }

type rspec = {
  rid : int;
  terms : (int * float) list; (* (vid, coef) *)
  sense : Model.sense;
  rrhs : float;
}

type world = { vs : vspec list; rs : rspec list; fresh : int }

let frand rng lo hi = lo +. Ras_stats.Rng.float rng (hi -. lo)

let random_var rng vid =
  let vlb = frand rng (-3.0) 0.0 in
  {
    vid;
    vlb;
    vub = vlb +. frand rng 0.5 4.0;
    vobj = frand rng (-5.0) 5.0;
    vint = Ras_stats.Rng.int rng 3 = 0;
  }

let random_row rng rid vs =
  let terms =
    List.filter_map
      (fun v ->
        if Ras_stats.Rng.int rng 3 = 0 then
          Some (v.vid, frand rng (-4.0) 4.0)
        else None)
      vs
  in
  let sense =
    match Ras_stats.Rng.int rng 3 with
    | 0 -> Model.Le
    | 1 -> Model.Ge
    | _ -> Model.Eq
  in
  { rid; terms; sense; rrhs = frand rng (-6.0) 8.0 }

let random_world rng =
  let nv = 4 + Ras_stats.Rng.int rng 8 in
  let nr = 3 + Ras_stats.Rng.int rng 6 in
  let vs = List.init nv (random_var rng) in
  { vs; rs = List.init nr (fun i -> random_row rng i vs); fresh = nv + nr }

(* Small churn: each entity independently removed or perturbed with low
   probability, and a couple of fresh entities appear at the end. *)
let churn rng w =
  let keep p = Ras_stats.Rng.float rng 1.0 >= p in
  let vs =
    List.filter_map
      (fun v ->
        if not (keep 0.1) then None
        else if keep 0.7 then Some v
        else
          (* drift bounds/objective; occasionally flip integrality *)
          let vlb = v.vlb +. frand rng (-0.3) 0.3 in
          Some
            {
              v with
              vlb;
              vub = Float.max (vlb +. 0.1) (v.vub +. frand rng (-0.3) 0.3);
              vobj = v.vobj +. frand rng (-1.0) 1.0;
            })
      w.vs
  in
  let alive = List.map (fun v -> v.vid) vs in
  let fresh = ref w.fresh in
  let new_vs =
    List.init (Ras_stats.Rng.int rng 3) (fun _ ->
        incr fresh;
        random_var rng !fresh)
  in
  let vs = vs @ new_vs in
  let rs =
    List.filter_map
      (fun r ->
        if not (keep 0.1) then None
        else
          let terms = List.filter (fun (vid, _) -> List.mem vid alive) r.terms in
          if keep 0.7 then Some { r with terms }
          else if keep 0.5 then Some { r with terms; rrhs = r.rrhs +. frand rng (-1.0) 1.0 }
          else
            Some
              {
                r with
                terms = List.map (fun (vid, c) -> (vid, c +. frand rng (-0.5) 0.5)) terms;
              })
      w.rs
  in
  let new_rs =
    List.init (Ras_stats.Rng.int rng 2) (fun _ ->
        incr fresh;
        random_row rng !fresh vs)
  in
  { vs; rs = rs @ new_rs; fresh = !fresh }

let compile_world w =
  let m = Model.create () in
  let index = Hashtbl.create 16 in
  List.iter
    (fun v ->
      let var =
        Model.add_var
          ~name:(Printf.sprintf "v%d" v.vid)
          ~lb:v.vlb ~ub:v.vub
          ~kind:(if v.vint then Model.Integer else Model.Continuous)
          m
      in
      Hashtbl.replace index v.vid var)
    w.vs;
  List.iter
    (fun r ->
      let terms =
        List.filter_map
          (fun (vid, c) ->
            match Hashtbl.find_opt index vid with
            | Some var -> Some (c, var)
            | None -> None)
          r.terms
      in
      ignore
        (Model.add_constraint
           ~name:(Printf.sprintf "r%d" r.rid)
           m (Lin_expr.of_terms terms) r.sense r.rrhs))
    w.rs;
  Model.set_objective m
    (Lin_expr.of_terms
       (List.filter_map
          (fun v ->
            if v.vobj = 0.0 then None else Some (v.vobj, Hashtbl.find index v.vid))
          w.vs));
  Model.compile m

(* ---------- diff counters, derived by name ---------- *)

(* name -> index in one compiled model (the worlds' names are unique) *)
let index_of names =
  let h = Hashtbl.create 16 in
  Array.iteri (fun i n -> Hashtbl.replace h n i) names;
  h

(* row [i]'s (variable name, coefficient) pairs sorted by name, keeping the
   variables [keep] accepts *)
let row_terms (std : Model.std) keep i =
  Array.to_list std.Model.row_cols.(i)
  |> List.mapi (fun k c -> (std.Model.var_names.(c), std.Model.row_coefs.(i).(k)))
  |> List.filter (fun (n, _) -> keep n)
  |> List.sort compare

(* Every counter of [Incremental.stats], recomputed from the two models by
   name alone: an entity is added/removed when its name is missing on the
   other side, and a surviving one changed when its values under that name
   differ.  A row's coefficients changed when its terms over the variables
   that survive differ (dropping a removed variable is not a change). *)
let expected_stats (prev : Model.std) (next : Model.std) =
  let pv = index_of prev.Model.var_names and nv = index_of next.Model.var_names in
  let pr = index_of prev.Model.row_names and nr = index_of next.Model.row_names in
  let count names p =
    let k = ref 0 in
    Array.iteri (fun i n -> if p i n then incr k) names;
    !k
  in
  let missing h _ n = not (Hashtbl.mem h n) in
  let changed h f i n = match Hashtbl.find_opt h n with Some s -> f s i | None -> false in
  {
    Incremental.vars_added = count next.Model.var_names (missing pv);
    vars_removed = count prev.Model.var_names (missing nv);
    rows_added = count next.Model.row_names (missing pr);
    rows_removed = count prev.Model.row_names (missing nr);
    bounds_changed =
      count next.Model.var_names
        (changed pv (fun s j ->
             prev.Model.lb.(s) <> next.Model.lb.(j) || prev.Model.ub.(s) <> next.Model.ub.(j)));
    obj_changed =
      count next.Model.var_names (changed pv (fun s j -> prev.Model.obj.(s) <> next.Model.obj.(j)))
      + if prev.Model.obj_offset <> next.Model.obj_offset then 1 else 0;
    rhs_changed =
      count next.Model.row_names
        (changed pr (fun s i ->
             prev.Model.rhs.(s) <> next.Model.rhs.(i)
             || prev.Model.row_sense.(s) <> next.Model.row_sense.(i)));
    coefs_changed =
      count next.Model.row_names
        (changed pr (fun s i ->
             row_terms prev (Hashtbl.mem nv) s <> row_terms next (fun _ -> true) i));
    structure_identical =
      prev.Model.var_names = next.Model.var_names && prev.Model.row_names = next.Model.row_names;
  }

let prop_diff_stats_by_name =
  QCheck.Test.make ~name:"diff counters match a by-name recount" ~count:200 QCheck.int
    (fun seed ->
      let rng = Ras_stats.Rng.create seed in
      let w = ref (random_world rng) in
      for _ = 1 to 3 do
        let prev = compile_world !w in
        w := churn rng !w;
        let next = compile_world !w in
        let got = Incremental.stats (Incremental.diff ~prev ~next) in
        let want = expected_stats prev next in
        if got <> want then
          QCheck.Test.fail_reportf "diff {%a} but by name {%a}" Incremental.pp_stats got
            Incremental.pp_stats want
      done;
      true)

let prop_diff_self_empty =
  QCheck.Test.make ~name:"diff(model, model) reports zero changes" ~count:50
    QCheck.int (fun seed ->
      let rng = Ras_stats.Rng.create seed in
      let std = compile_world (random_world rng) in
      let d = Incremental.diff ~prev:std ~next:std in
      let s = Incremental.stats d in
      Incremental.total_changes s = 0 && s.Incremental.structure_identical)

(* ---------- basis remapping ---------- *)

(* max 3x + 2y + z over two coupling rows and a third that survives
   presolve, plus the singleton rows x <= 10 and z <= 7 that presolve folds
   into bounds and drops *)
let singleton_lp () =
  let m = Model.create () in
  let x = Model.add_var ~name:"x" m in
  let y = Model.add_var ~name:"y" m in
  let z = Model.add_var ~name:"z" m in
  let row name terms sense rhs =
    ignore (Model.add_constraint ~name m (Lin_expr.of_terms terms) sense rhs)
  in
  row "r0" [ (1.0, x); (1.0, y); (1.0, z) ] Model.Le 4.0;
  row "r1" [ (1.0, x); (3.0, y) ] Model.Le 6.0;
  row "sx" [ (1.0, x) ] Model.Le 10.0;
  row "r3" [ (1.0, y); (2.0, z) ] Model.Le 5.0;
  row "sz" [ (1.0, z) ] Model.Le 7.0;
  Model.set_objective m (Lin_expr.of_terms [ (-3.0, x); (-2.0, y); (-1.0, z) ]);
  Model.compile m

let optimal_lp ?basis std =
  match Simplex.solve ?basis std with
  | Simplex.Optimal { obj; iterations; basis; _ } -> (obj, iterations, basis)
  | _ -> Alcotest.fail "expected an optimal LP"

let test_remap_identity () =
  let std = singleton_lp () in
  let _, _, wb = optimal_lp std in
  let n = std.Model.nvars and m = std.Model.nrows in
  let mapped, reused =
    Simplex.remap_basis ~nvars:n ~nrows:m ~col_map:(Array.init (n + m) Fun.id)
      ~row_src:(Array.init m Fun.id) wb
  in
  Alcotest.(check (array int)) "same basic columns" wb.Simplex.wcols mapped.Simplex.wcols;
  Alcotest.(check bool) "same statuses" true (wb.Simplex.wstatus = mapped.Simplex.wstatus);
  Alcotest.(check bool) "no factorization" true (mapped.Simplex.wfac = None);
  Alcotest.(check int) "every row carried" m reused

let test_remap_presolve_projection () =
  let std = singleton_lp () in
  let _, _, wb = optimal_lp std in
  match Presolve.run std with
  | Presolve.Proven_infeasible _ -> Alcotest.fail "singleton LP is feasible"
  | Presolve.Reduced { std = reduced; kept_rows; _ } ->
    let n = std.Model.nvars and m = std.Model.nrows in
    Alcotest.(check (array int)) "presolve drops the singleton rows" [| 0; 1; 3 |] kept_rows;
    (* the projection Branch_bound applies to a root basis: structurals keep
       their index, slacks follow their row *)
    let col_map = Array.make (n + m) (-1) in
    for j = 0 to n - 1 do
      col_map.(j) <- j
    done;
    Array.iteri (fun i r -> col_map.(n + r) <- n + i) kept_rows;
    let mapped, reused =
      Simplex.remap_basis ~nvars:n ~nrows:reduced.Model.nrows ~col_map ~row_src:kept_rows wb
    in
    let carried = ref 0 in
    Array.iteri
      (fun i r ->
        let c = col_map.(wb.Simplex.wcols.(r)) in
        if c >= 0 then begin
          incr carried;
          Alcotest.(check int)
            (Printf.sprintf "row %d keeps its basic column" i)
            c mapped.Simplex.wcols.(i)
        end)
      kept_rows;
    Alcotest.(check int) "carried-row count" !carried reused;
    Alcotest.(check int) "every surviving row carried" reduced.Model.nrows reused;
    let cold_obj, cold_iters, _ = optimal_lp reduced in
    let warm_obj, warm_iters, _ = optimal_lp ~basis:mapped reduced in
    Alcotest.(check (float 1e-9)) "same optimum" cold_obj warm_obj;
    (* the projected optimal basis is accepted as is: one dry pricing pass,
       where the cold start pivots *)
    Alcotest.(check bool) "cold start pivots" true (cold_iters > 1);
    Alcotest.(check int) "warm start accepted without pivots" 1 warm_iters

(* ---------- incremental-vs-cold equivalence ---------- *)

(* LP chains: each churned successor is solved cold and with the mapped
   previous basis; both must agree on status and objective.  The mapped
   basis is advisory by contract, so this pins both the mapping and the
   rank-repairing restart underneath it. *)
let lp_relax (std : Model.std) = { std with Model.integer = Array.make std.Model.nvars false }

let prop_lp_incremental_equiv =
  QCheck.Test.make ~name:"LP re-solve from mapped basis matches cold" ~count:120
    QCheck.int (fun seed ->
      let rng = Ras_stats.Rng.create seed in
      let w = ref (random_world rng) in
      let prev = ref None in
      let ok = ref true in
      for _ = 1 to 4 do
        let std = lp_relax (compile_world !w) in
        let cold = Simplex.solve std in
        let warm =
          match !prev with
          | None -> cold
          | Some (pstd, pbasis) -> (
            let d = Incremental.diff ~prev:pstd ~next:std in
            match Incremental.map_basis d ~prev_basis:pbasis with
            | None -> cold
            | Some (wb, _) -> Simplex.solve ~basis:wb std)
        in
        (match (cold, warm) with
        | Simplex.Optimal { obj = cobj; _ }, Simplex.Optimal { obj = wobj; basis; _ } ->
          let scale = Float.max 1.0 (Float.abs cobj) in
          ok := !ok && Float.abs (cobj -. wobj) <= 1e-6 *. scale;
          prev := Some (std, basis)
        | Simplex.Infeasible _, Simplex.Infeasible _
        | Simplex.Unbounded, Simplex.Unbounded ->
          prev := None
        | _ ->
          ok := false;
          prev := None);
        w := churn rng !w
      done;
      !ok)

(* B&B chains: warm rounds get last round's root basis and its solution as
   the seed; default options solve these small MIPs exactly, so the
   objectives must agree. *)
let prop_mip_incremental_equiv =
  QCheck.Test.make ~name:"B&B re-solve from mapped basis + seed matches cold"
    ~count:60 QCheck.int (fun seed ->
      let rng = Ras_stats.Rng.create seed in
      let w = ref (random_world rng) in
      let prev = ref None in
      let ok = ref true in
      for _ = 1 to 3 do
        let std = compile_world !w in
        let cold = Branch_bound.solve std in
        let options =
          match !prev with
          | None -> Branch_bound.default_options
          | Some (pstd, pbasis, psol) -> (
            let d = Incremental.diff ~prev:pstd ~next:std in
            let root_basis =
              Option.map fst (Incremental.map_basis d ~prev_basis:pbasis)
            in
            {
              Branch_bound.default_options with
              Branch_bound.root_basis;
              initial = Option.map (Incremental.map_solution d) psol;
            })
        in
        let warm = Branch_bound.solve ~options std in
        ok := !ok && cold.Branch_bound.status = warm.Branch_bound.status;
        (match cold.Branch_bound.status with
        | Branch_bound.Optimal ->
          let scale = Float.max 1.0 (Float.abs cold.Branch_bound.objective) in
          ok :=
            !ok
            && Float.abs (cold.Branch_bound.objective -. warm.Branch_bound.objective)
               <= 1e-5 *. scale
        | _ -> ());
        (match Simplex.solve (lp_relax std) with
        | Simplex.Optimal { basis; _ } ->
          prev := Some (std, basis, warm.Branch_bound.solution)
        | _ -> prev := None);
        w := churn rng !w
      done;
      !ok)

(* ---------- naming stability under churn ---------- *)

let web = Service.make ~id:1 ~name:"web" ~profile:Service.Web ()

let region_snapshot () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let rng = Ras_stats.Rng.create 7 in
  let requests =
    Ras_workload.Request_gen.scenario rng ~region ~services:[ web ]
      ~target_utilization:0.35
  in
  let reservations = List.map Reservation.of_request requests in
  (broker, reservations)

let compile_snapshot broker reservations =
  let snapshot = Snapshot.take broker reservations in
  let symmetry = Symmetry.build snapshot in
  let f = Formulation.build symmetry snapshot.Snapshot.reservations in
  Model.compile f.Formulation.model

let test_naming_stability () =
  let broker, reservations = region_snapshot () in
  let before = compile_snapshot broker reservations in
  (* fail one server: its symmetry class shrinks by one, nothing else
     about the world changes *)
  Alcotest.(check bool) "found a server" true (Broker.num_servers broker > 0);
  Broker.mark_down broker 0 Unavail.Unplanned_sw;
  let after = compile_snapshot broker reservations in
  let names a = Array.to_list a.Model.var_names in
  let surviving = List.filter (fun n -> List.mem n (names before)) (names after) in
  (* every surviving name must appear in both compilations — the diff then
     matches them instead of treating index shifts as add/remove pairs *)
  Alcotest.(check bool)
    "most variables survive one server failure" true
    (List.length surviving > Array.length after.Model.var_names * 9 / 10);
  let d = Incremental.diff ~prev:before ~next:after in
  let s = Incremental.stats d in
  let touched =
    s.Incremental.vars_added + s.Incremental.vars_removed + s.Incremental.rows_added
    + s.Incremental.rows_removed
  in
  (* one failed server may shrink a class (bound change) or retire it
     entirely; either way the structural churn stays a sliver of the model *)
  Alcotest.(check bool)
    (Printf.sprintf "structural diff is small (%d touched of %d vars/%d rows)" touched
       before.Model.nvars before.Model.nrows)
    true
    (touched * 10 < before.Model.nvars + before.Model.nrows)

(* ---------- stale seeds are repaired or rejected, never an exception ---- *)

let bounded_mip () =
  let m = Model.create () in
  let x = Model.add_var ~name:"x" ~ub:5.0 ~kind:Model.Integer m in
  let y = Model.add_var ~name:"y" ~ub:5.0 ~kind:Model.Integer m in
  ignore
    (Model.add_constraint ~name:"cap" m
       (Lin_expr.of_terms [ (1.0, x); (1.0, y) ])
       Model.Le 6.0);
  Model.set_objective m (Lin_expr.of_terms [ (-1.0, x); (-2.0, y) ]);
  Model.compile m

let test_stale_seed_repaired () =
  let std = bounded_mip () in
  (* out-of-bounds and fractional: clamping + rounding makes it feasible *)
  let options =
    { Branch_bound.default_options with Branch_bound.initial = Some [| 9.5; -3.2 |] }
  in
  let out = Branch_bound.solve ~options std in
  Alcotest.(check bool)
    "repaired seed counted" true
    (out.Branch_bound.seed = Branch_bound.Seed_repaired);
  Alcotest.(check (float 1e-6)) "still solves to optimality" (-11.0) out.Branch_bound.objective

let test_stale_seed_rejected () =
  let std = bounded_mip () in
  (* wrong dimension: nothing to repair, must be rejected without raising *)
  let options =
    { Branch_bound.default_options with Branch_bound.initial = Some [| 1.0 |] }
  in
  let out = Branch_bound.solve ~options std in
  Alcotest.(check bool)
    "wrong-length seed rejected" true
    (out.Branch_bound.seed = Branch_bound.Seed_rejected);
  Alcotest.(check (float 1e-6)) "solve unaffected" (-11.0) out.Branch_bound.objective

let test_valid_seed_accepted () =
  let std = bounded_mip () in
  let options =
    { Branch_bound.default_options with Branch_bound.initial = Some [| 1.0; 5.0 |] }
  in
  let out = Branch_bound.solve ~options std in
  Alcotest.(check bool)
    "valid seed accepted" true
    (out.Branch_bound.seed = Branch_bound.Seed_accepted);
  Alcotest.(check (float 1e-6)) "optimal from seed" (-11.0) out.Branch_bound.objective

(* ---------- end-to-end: Solver_state threads through Phases ---------- *)

let test_solver_state_rounds () =
  let broker, reservations = region_snapshot () in
  let state = Solver_state.create () in
  let params =
    { Async_solver.default_params with Async_solver.node_limit = 20; run_phase2 = false }
  in
  let objs = ref [] in
  for _ = 0 to 1 do
    let snapshot = Snapshot.take broker reservations in
    let stats = Async_solver.solve ~params ~state snapshot in
    (match stats.Async_solver.incremental with
    | Some r -> objs := r.Solver_state.round :: !objs
    | None -> Alcotest.fail "incremental stats missing when state supplied");
    ignore stats
  done;
  Alcotest.(check (list int)) "rounds numbered" [ 1; 0 ] !objs;
  match Solver_state.history state with
  | [ r0; r1 ] ->
    Alcotest.(check bool) "round 0 is cold" true (r0.Solver_state.diff = None);
    Alcotest.(check bool) "round 1 has a diff" true (r1.Solver_state.diff <> None);
    (* the world did not change between rounds: the whole basis carries *)
    Alcotest.(check bool)
      "full basis reuse on an unchanged world" true
      (Solver_state.basis_reuse_rate r1 > 0.99)
  | h -> Alcotest.fail (Printf.sprintf "expected 2 history rounds, got %d" (List.length h))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_diff_stats_by_name;
    QCheck_alcotest.to_alcotest prop_diff_self_empty;
    Alcotest.test_case "remap: identity map returns the basis" `Quick test_remap_identity;
    Alcotest.test_case "remap: presolve projection restarts warm" `Quick
      test_remap_presolve_projection;
    QCheck_alcotest.to_alcotest prop_lp_incremental_equiv;
    QCheck_alcotest.to_alcotest prop_mip_incremental_equiv;
    Alcotest.test_case "naming stability under server failure" `Quick test_naming_stability;
    Alcotest.test_case "stale seed repaired" `Quick test_stale_seed_repaired;
    Alcotest.test_case "stale seed rejected" `Quick test_stale_seed_rejected;
    Alcotest.test_case "valid seed accepted" `Quick test_valid_seed_accepted;
    Alcotest.test_case "solver state threads through rounds" `Quick test_solver_state_rounds;
  ]
