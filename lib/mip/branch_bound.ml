type status = Optimal | Feasible | Infeasible | Unbounded | Unknown

type options = {
  time_limit : float;
  node_limit : int;
  gap_abs : float;
  gap_rel : float;
  stall_node_limit : int;
  initial : float array option;
  root_basis : Simplex.warm_basis option;
  warm_start : bool;
  lp_pricing : Simplex.pricing;
  lp_backend : Basis.kind;
  dual_restart : bool;
}

(* Integrality tolerance on LP values, and the node period of the rounding
   heuristic. *)
let int_tol = 1e-6

let heuristic_period = 20

let default_options =
  {
    time_limit = infinity;
    node_limit = 100_000;
    gap_abs = 1e-6;
    gap_rel = 1e-9;
    stall_node_limit = 0;
    initial = None;
    root_basis = None;
    warm_start = true;
    lp_pricing = Simplex.Devex;
    lp_backend = Basis.Lu;
    dual_restart = true;
  }

type seed_status = Seed_none | Seed_accepted | Seed_repaired | Seed_rejected

type outcome = {
  status : status;
  solution : float array option;
  objective : float;
  best_bound : float;
  gap : float;
  nodes : int;
  lp_iterations : int;
  warm_started_nodes : int;
  dual_restarted_nodes : int;
  dual_pivots : int;
  bound_flips : int;
  bland_pivots : int;
  seed : seed_status;
  elapsed : float;
}

(* ---------------------------------------------------------------- *)
(* Minimal binary min-heap keyed by node bound.                      *)

module Heap = struct
  type 'a t = { mutable data : (float * 'a) array; mutable len : int; dummy : float * 'a }

  let create dummy = { data = [||]; len = 0; dummy }

  let is_empty h = h.len = 0

  let swap h i j =
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- tmp

  let push h key v =
    if h.len = Array.length h.data then begin
      let cap = max 16 (2 * h.len) in
      let bigger = Array.make cap h.dummy in
      Array.blit h.data 0 bigger 0 h.len;
      h.data <- bigger
    end;
    h.data.(h.len) <- (key, v);
    let i = ref h.len in
    h.len <- h.len + 1;
    while !i > 0 && fst h.data.((!i - 1) / 2) > fst h.data.(!i) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.data.(0) in
      h.len <- h.len - 1;
      if h.len > 0 then begin
        h.data.(0) <- h.data.(h.len);
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let smallest = ref !i in
          if l < h.len && fst h.data.(l) < fst h.data.(!smallest) then smallest := l;
          if r < h.len && fst h.data.(r) < fst h.data.(!smallest) then smallest := r;
          if !smallest <> !i then begin
            swap h !i !smallest;
            i := !smallest
          end
          else continue := false
        done
      end;
      (* clear the vacated slot: a popped node's bound arrays (and basis
         snapshot) must become collectable once its subtree is drained *)
      h.data.(h.len) <- h.dummy;
      Some top
    end

  let min_key h = if h.len = 0 then None else Some (fst h.data.(0))
end

(* ---------------------------------------------------------------- *)

type node = {
  nlb : float array;
  nub : float array;
  depth : int;
  wb : Simplex.warm_basis option;  (* parent's optimal basis, inverse stripped *)
}

let fractionality v = Float.abs (v -. Float.round v)

(* Most-fractional branching: [fractionality] is the distance to the nearest
   integer, so maximizing it picks the variable closest to half-integral. *)
let pick_branch_var (std : Model.std) x =
  let best = ref (-1) and best_score = ref int_tol in
  for j = 0 to std.nvars - 1 do
    if std.integer.(j) then begin
      let score = fractionality x.(j) in
      if score > !best_score then begin
        best := j;
        best_score := score
      end
    end
  done;
  if !best < 0 then None else Some !best

(* Nearest-integer rounding probe: clamp to node bounds; accept only if the
   full solution checker passes. *)
let rounding_probe (std : Model.std) node x =
  let y = Array.copy x in
  for j = 0 to std.nvars - 1 do
    if std.integer.(j) then begin
      let r = Float.round y.(j) in
      let r = Float.max node.nlb.(j) (Float.min node.nub.(j) r) in
      y.(j) <- r
    end
  done;
  match Model.check_solution std y with
  | Ok () -> Some (y, Model.objective_value std y)
  | Error _ -> None

let integral (std : Model.std) x =
  let ok = ref true in
  for j = 0 to std.nvars - 1 do
    if std.integer.(j) && fractionality x.(j) > int_tol then ok := false
  done;
  !ok

let tighten_integer_bounds (std : Model.std) lb ub =
  for j = 0 to std.nvars - 1 do
    if std.integer.(j) then begin
      if Float.is_finite lb.(j) then lb.(j) <- Float.ceil (lb.(j) -. 1e-9);
      if Float.is_finite ub.(j) then ub.(j) <- Float.floor (ub.(j) +. 1e-9)
    end
  done

let solve_presolved ?(options = default_options) (std : Model.std) =
  let start = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. start in
  let incumbent = ref None and incumbent_obj = ref infinity in
  let nodes = ref 0 and lp_iters = ref 0 and warm_nodes = ref 0 in
  let dual_nodes = ref 0 and dual_pivots = ref 0 in
  let bland_pivots = ref 0 and bound_flips = ref 0 in
  (* every node LP is the same shape, so one workspace serves the whole
     tree: the solver's per-node allocations collapse to O(1) arrays *)
  let lp_ws = Simplex.create_workspace () in
  let inexact = ref false in
  (* an LP node hit its iteration limit: optimality can no longer be proven *)
  let dummy_node = { nlb = [||]; nub = [||]; depth = 0; wb = None } in
  let open_nodes = Heap.create (0.0, dummy_node) in
  (* One-entry basis-factorization cache keyed by physical equality on the
     stripped snapshot stored in the nodes: the plunged child is processed
     immediately after its parent, so it reuses the parent's LU factors (and
     eta file) for free; nodes popped from the heap later re-factorize from
     their stored basis columns instead (still far cheaper than a cold
     phase-1 start). *)
  let fac_cache : (Simplex.warm_basis * Basis.t) option ref = ref None in
  let root_lb = Array.copy std.lb and root_ub = Array.copy std.ub in
  tighten_integer_bounds std root_lb root_ub;
  let last_improve = ref 0 in
  let update_incumbent x obj =
    if obj < !incumbent_obj -. 1e-12 then begin
      incumbent := Some x;
      incumbent_obj := obj;
      last_improve := !nodes
    end
  in
  let gap_closed bound =
    Float.is_finite !incumbent_obj
    && (!incumbent_obj -. bound <= options.gap_abs
        || !incumbent_obj -. bound
           <= options.gap_rel *. Float.max 1.0 (Float.abs !incumbent_obj))
  in
  let unbounded = ref false in
  (* Node selection is best-bound with depth-first plunging: after branching,
     the child on the rounding side of the fractional variable is explored
     immediately (the plunge stack), which finds integral incumbents far
     faster than pure best-first on near-integral allocation problems. *)
  let plunge : (float * node) list ref = ref [] in
  let process node parent_bound =
    if parent_bound < !incumbent_obj && not (gap_closed parent_bound) then begin
      incr nodes;
      let basis =
        if not options.warm_start then None
        else
          match node.wb with
          | None -> None
          | Some wb -> (
            match !fac_cache with
            | Some (key, fac) when key == wb -> Some { wb with Simplex.wfac = Some fac }
            | _ -> Some wb)
      in
      (match basis with Some _ -> incr warm_nodes | None -> ());
      match
        Simplex.solve ~pricing:options.lp_pricing ~backend:options.lp_backend ~ws:lp_ws
          ~dual_simplex:options.dual_restart ?basis ~lb:node.nlb ~ub:node.nub std
      with
      | Simplex.Infeasible _ -> ()
      | Simplex.Unbounded -> unbounded := true
      | Simplex.Iteration_limit _ -> inexact := true
      | Simplex.Optimal
          { x; obj; iterations; dual_iterations; bland_iterations; basis = final_basis; kstats; _ }
        ->
        lp_iters := !lp_iters + iterations;
        bland_pivots := !bland_pivots + bland_iterations;
        bound_flips := !bound_flips + kstats.Simplex.bound_flips;
        if dual_iterations > 0 then begin
          incr dual_nodes;
          dual_pivots := !dual_pivots + dual_iterations
        end;
        if obj < !incumbent_obj -. options.gap_abs then begin
          if integral std x then begin
            (* round off the tiny fractional noise before storing *)
            let y = Array.copy x in
            for j = 0 to std.nvars - 1 do
              if std.integer.(j) then y.(j) <- Float.round y.(j)
            done;
            update_incumbent y obj
          end
          else begin
            if !nodes mod heuristic_period = 1 then begin
              match rounding_probe std node x with
              | Some (y, hobj) -> update_incumbent y hobj
              | None -> ()
            end;
            match pick_branch_var std x with
            | None -> ()
            | Some j ->
              (* both children share one stripped snapshot of this node's
                 optimal basis; the factorization lives only in the cache *)
              let stripped = { final_basis with Simplex.wfac = None } in
              (match final_basis.Simplex.wfac with
              | Some fac -> fac_cache := Some (stripped, fac)
              | None -> ());
              let wb = if options.warm_start then Some stripped else None in
              let v = x.(j) in
              let down_ub = Array.copy node.nub in
              down_ub.(j) <- Float.floor v;
              let up_lb = Array.copy node.nlb in
              up_lb.(j) <- Float.ceil v;
              let down_ok = Float.floor v >= node.nlb.(j) -. 1e-9 in
              let up_ok = Float.ceil v <= node.nub.(j) +. 1e-9 in
              let down = { nlb = node.nlb; nub = down_ub; depth = node.depth + 1; wb } in
              let up = { nlb = up_lb; nub = node.nub; depth = node.depth + 1; wb } in
              let frac = v -. Float.floor v in
              let near, near_ok, far, far_ok =
                if frac < 0.5 then (down, down_ok, up, up_ok)
                else (up, up_ok, down, down_ok)
              in
              if far_ok then Heap.push open_nodes obj far;
              if near_ok then plunge := (obj, near) :: !plunge
          end
        end
    end
  in
  let seed_status = ref Seed_none in
  (match options.initial with
  | Some x0 when Array.length x0 = std.nvars -> (
    match Model.check_solution std x0 with
    | Ok () ->
      seed_status := Seed_accepted;
      update_incumbent (Array.copy x0) (Model.objective_value std x0)
    | Error _ -> (
      (* A stale seed — e.g. last round's incumbent after churn moved the
         bounds — gets one bounded repair attempt: clamp into the root
         node's (integer-tightened) bounds and round integer variables.
         Only the full checker decides; a still-invalid seed is counted
         as rejected and branch-and-bound proceeds unseeded. *)
      let y = Array.copy x0 in
      for j = 0 to std.nvars - 1 do
        let v = Float.max root_lb.(j) (Float.min root_ub.(j) y.(j)) in
        y.(j) <-
          (if std.integer.(j) then
             Float.max root_lb.(j) (Float.min root_ub.(j) (Float.round v))
           else v)
      done;
      match Model.check_solution std y with
      | Ok () ->
        seed_status := Seed_repaired;
        update_incumbent y (Model.objective_value std y)
      | Error _ -> seed_status := Seed_rejected))
  | Some _ -> seed_status := Seed_rejected
  | None -> ());
  let root = { nlb = root_lb; nub = root_ub; depth = 0; wb = options.root_basis } in
  (* with no node budget the root stays open and unexplored: nothing is
     proven, so the bound stays [neg_infinity] *)
  if options.node_limit > 0 then process root neg_infinity
  else Heap.push open_nodes neg_infinity root;
  let max_plunge_depth = 100 in
  let stop = ref !unbounded in
  while not !stop do
    if elapsed () > options.time_limit || !nodes >= options.node_limit then stop := true
    else if
      (* stalled: the incumbent has not improved for [stall_node_limit]
         consecutive nodes.  This is the continuous-loop stopping rule —
         a near-optimal carried seed makes every round stop almost
         immediately, while a poorly-seeded search keeps running as long
         as it keeps finding better allocations. *)
      options.stall_node_limit > 0
      && !incumbent <> None
      && !nodes - !last_improve >= options.stall_node_limit
    then stop := true
    else begin
      (match !plunge with
      | (bound, node) :: rest ->
        plunge := rest;
        if bound >= !incumbent_obj || gap_closed bound then ()
        else if node.depth > max_plunge_depth then Heap.push open_nodes bound node
        else process node bound
      | [] -> (
        match Heap.pop open_nodes with
        | None -> stop := true
        | Some (bound, node) ->
          if bound >= !incumbent_obj || gap_closed bound then stop := true
            (* best-first: every remaining node is at least this bad *)
          else process node bound));
      if !unbounded then stop := true
    end
  done;
  (* drain the plunge stack into the heap so the final bound is correct *)
  List.iter (fun (bound, node) -> Heap.push open_nodes bound node) !plunge;
  let best_bound =
    if !unbounded then neg_infinity
    else
      match Heap.min_key open_nodes with
      | Some b -> Float.min b !incumbent_obj
      | None -> !incumbent_obj
  in
  let status =
    if !unbounded then Unbounded
    else
      match !incumbent with
      | Some _ ->
        if Heap.is_empty open_nodes && not !inexact then Optimal
        else if gap_closed best_bound && not !inexact then Optimal
        else Feasible
      | None ->
        if Heap.is_empty open_nodes && not !inexact then Infeasible else Unknown
  in
  {
    status;
    solution = !incumbent;
    objective = !incumbent_obj;
    best_bound;
    gap = (if !incumbent = None then infinity else !incumbent_obj -. best_bound);
    nodes = !nodes;
    lp_iterations = !lp_iters;
    warm_started_nodes = !warm_nodes;
    dual_restarted_nodes = !dual_nodes;
    dual_pivots = !dual_pivots;
    bound_flips = !bound_flips;
    bland_pivots = !bland_pivots;
    seed = !seed_status;
    elapsed = elapsed ();
  }

(* Project a caller-supplied root basis of the {e original} model onto the
   presolved one: variables keep their indices (presolve preserves them),
   slack columns are renumbered to the surviving rows, and basis positions
   of dropped rows vanish.  The factorization belongs to the unprojected
   column space and is never carried.  [None] when the shapes disagree. *)
let project_root_basis ~kept_rows (reduced : Model.std) (wb : Simplex.warm_basis) =
  let nvars = reduced.Model.nvars and nrows = reduced.Model.nrows in
  let old_m = Array.length wb.Simplex.wcols in
  if Array.length wb.Simplex.wstatus - old_m <> nvars || Array.length kept_rows <> nrows then None
  else begin
    (* structurals keep their index; a kept row's slack follows its row *)
    let col_map = Array.init (nvars + old_m) (fun c -> if c < nvars then c else -1) in
    Array.iteri (fun newi oldi -> col_map.(nvars + oldi) <- nvars + newi) kept_rows;
    Some (fst (Simplex.remap_basis ~nvars ~nrows ~col_map ~row_src:kept_rows wb))
  end

let solve ?(options = default_options) (std : Model.std) =
  (* presolve first: bound tightening and row elimination are pure wins for
     every node's LP, and trivially infeasible models are rejected without
     touching the simplex *)
  match Presolve.run std with
  | Presolve.Proven_infeasible _ ->
    {
      status = Infeasible;
      solution = None;
      objective = infinity;
      best_bound = infinity;
      gap = infinity;
      nodes = 0;
      lp_iterations = 0;
      warm_started_nodes = 0;
      dual_restarted_nodes = 0;
      dual_pivots = 0;
      bound_flips = 0;
      bland_pivots = 0;
      seed = (if options.initial = None then Seed_none else Seed_rejected);
      elapsed = 0.0;
    }
  | Presolve.Reduced { std = reduced; fixed; kept_rows; _ } ->
    let options =
      match options.root_basis with
      | Some wb -> { options with root_basis = project_root_basis ~kept_rows reduced wb }
      | None -> options
    in
    let outcome = solve_presolved ~options reduced in
    (match outcome.solution with
    | Some x -> { outcome with solution = Some (Presolve.restore ~fixed x) }
    | None -> outcome)
