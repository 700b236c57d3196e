type part_stat = {
  part : int;
  vars : int;
  rows : int;
  objective : float;
  status : Branch_bound.status;
  nodes : int;
  lp_iterations : int;
  wall_s : float;
}

type stats = {
  parts : part_stat array;
  coupled_rows : int;
  merge_repairs : int;
  unresolved_rows : int;
  wall_s : float;
}

type result = { outcome : Branch_bound.outcome; stats : stats }

let tol = 1e-6

(* Builds the per-partition models.  Returns the compiled subproblems (with
   their sub-index -> full-index maps and original partition ids) plus the
   number of coupled rows that had to be split. *)
let split_full ~num_parts ~var_part (std : Model.std) =
  if num_parts < 1 then invalid_arg "Decompose.split: num_parts must be >= 1";
  let n = std.Model.nvars in
  let part_of =
    Array.init n (fun v ->
        let p = var_part v in
        if p < 0 || p >= num_parts then
          invalid_arg
            (Printf.sprintf "Decompose.split: var_part %d -> %d outside [0, %d)" v p
               num_parts);
        p)
  in
  let models = Array.init num_parts (fun _ -> Model.create ()) in
  let sub_index = Array.make n (-1) in
  let to_full = Array.make num_parts [] in
  for v = 0 to n - 1 do
    let p = part_of.(v) in
    let kind = if std.Model.integer.(v) then Model.Integer else Model.Continuous in
    sub_index.(v) <-
      Model.add_var ~name:std.Model.var_names.(v) ~lb:std.Model.lb.(v)
        ~ub:std.Model.ub.(v) ~kind models.(p);
    to_full.(p) <- v :: to_full.(p)
  done;
  (* rows without variables still assert feasibility somewhere concrete *)
  let home =
    let h = ref 0 in
    (try
       for p = 0 to num_parts - 1 do
         if to_full.(p) <> [] then begin
           h := p;
           raise Exit
         end
       done
     with Exit -> ());
    !h
  in
  let coupled = ref 0 in
  for i = 0 to std.Model.nrows - 1 do
    let cols = std.Model.row_cols.(i) and coefs = std.Model.row_coefs.(i) in
    let name = std.Model.row_names.(i) in
    let sense = std.Model.row_sense.(i) and rhs = std.Model.rhs.(i) in
    if Array.length cols = 0 then
      ignore (Model.add_constraint ~name models.(home) (Lin_expr.of_terms []) sense rhs)
    else begin
      let counts = Array.make num_parts 0 in
      Array.iter (fun v -> counts.(part_of.(v)) <- counts.(part_of.(v)) + 1) cols;
      let spread = Array.fold_left (fun a c -> if c > 0 then a + 1 else a) 0 counts in
      if spread = 1 then begin
        let p = part_of.(cols.(0)) in
        let terms =
          Array.to_list (Array.mapi (fun k v -> (coefs.(k), sub_index.(v))) cols)
        in
        ignore (Model.add_constraint ~name models.(p) (Lin_expr.of_terms terms) sense rhs)
      end
      else begin
        (* coupled row: each partition keeps its own variables with the rhs
           scaled by its share of the row.  Shares sum to 1, so sub-feasible
           copies merge into a feasible original row for any sense. *)
        incr coupled;
        let total = float_of_int (Array.length cols) in
        for p = 0 to num_parts - 1 do
          if counts.(p) > 0 then begin
            let share = float_of_int counts.(p) /. total in
            let terms = ref [] in
            Array.iteri
              (fun k v -> if part_of.(v) = p then terms := (coefs.(k), sub_index.(v)) :: !terms)
              cols;
            ignore
              (Model.add_constraint
                 ~name:(Printf.sprintf "%s#%d" name p)
                 models.(p) (Lin_expr.of_terms !terms) sense (rhs *. share))
          end
        done
      end
    end
  done;
  (* objective restricted per partition; the offset stays with the monolith *)
  let obj_terms = Array.make num_parts [] in
  for v = 0 to n - 1 do
    let c = std.Model.obj.(v) in
    if c <> 0.0 then obj_terms.(part_of.(v)) <- (c, sub_index.(v)) :: obj_terms.(part_of.(v))
  done;
  let subs = ref [] in
  for p = num_parts - 1 downto 0 do
    if to_full.(p) <> [] then begin
      Model.set_objective models.(p) (Lin_expr.of_terms obj_terms.(p));
      subs := (p, Model.compile models.(p), Array.of_list (List.rev to_full.(p))) :: !subs
    end
  done;
  (Array.of_list !subs, !coupled)

let split ~num_parts ~var_part std =
  let subs, _ = split_full ~num_parts ~var_part std in
  Array.map (fun (_, sub, to_full) -> (sub, to_full)) subs

let activity (std : Model.std) x i =
  let cols = std.Model.row_cols.(i) and coefs = std.Model.row_coefs.(i) in
  let acc = ref 0.0 in
  for k = 0 to Array.length cols - 1 do
    acc := !acc +. (coefs.(k) *. x.(cols.(k)))
  done;
  !acc

let violation (std : Model.std) x i =
  let act = activity std x i in
  let rhs = std.Model.rhs.(i) in
  match std.Model.row_sense.(i) with
  | Model.Le -> act -. rhs > tol
  | Model.Ge -> rhs -. act > tol
  | Model.Eq -> Float.abs (act -. rhs) > tol

(* Greedy bounded repair: walk each violated row's variables in decreasing
   |coefficient| order and push them toward their bounds until the row
   holds.  Inequalities may overshoot safely; equalities move integers in
   whole units and accept a residual when the coefficients cannot express
   the deficit. *)
let repair ?(max_moves = 1000) (std : Model.std) x =
  let moves = ref 0 in
  let adjust i ~need ~dir ~exact =
    let cols = std.Model.row_cols.(i) and coefs = std.Model.row_coefs.(i) in
    let order = Array.init (Array.length cols) Fun.id in
    Array.sort
      (fun a b -> Float.compare (Float.abs coefs.(b)) (Float.abs coefs.(a)))
      order;
    let remaining = ref need in
    let k = ref 0 in
    while !remaining > tol && !k < Array.length order && !moves < max_moves do
      let idx = order.(!k) in
      incr k;
      let j = cols.(idx) and c = coefs.(idx) in
      if Float.abs c > 1e-12 then begin
        (* signed step on x_j that changes the activity by [dir * remaining] *)
        let want = float_of_int dir *. !remaining /. c in
        let headroom =
          if want >= 0.0 then std.Model.ub.(j) -. x.(j) else std.Model.lb.(j) -. x.(j)
        in
        let step =
          if want >= 0.0 then Float.min want (Float.max 0.0 headroom)
          else Float.max want (Float.min 0.0 headroom)
        in
        let step =
          if not std.Model.integer.(j) then step
          else if step >= 0.0 then
            let cap = Float.floor (Float.max 0.0 headroom) in
            if exact then Float.min (Float.floor step) cap
            else Float.min (Float.ceil step) cap
          else
            let cap = Float.ceil (Float.min 0.0 headroom) in
            if exact then Float.max (Float.ceil step) cap
            else Float.max (Float.floor step) cap
        in
        if step <> 0.0 then begin
          x.(j) <- x.(j) +. step;
          remaining := !remaining -. (float_of_int dir *. c *. step);
          incr moves
        end
      end
    done
  in
  let repair_row i =
    let act = activity std x i in
    let rhs = std.Model.rhs.(i) in
    match std.Model.row_sense.(i) with
    | Model.Le -> if act -. rhs > tol then adjust i ~need:(act -. rhs) ~dir:(-1) ~exact:false
    | Model.Ge -> if rhs -. act > tol then adjust i ~need:(rhs -. act) ~dir:1 ~exact:false
    | Model.Eq ->
      if act -. rhs > tol then adjust i ~need:(act -. rhs) ~dir:(-1) ~exact:true
      else if rhs -. act > tol then adjust i ~need:(rhs -. act) ~dir:1 ~exact:true
  in
  let any_violation () =
    let rec loop i = i < std.Model.nrows && (violation std x i || loop (i + 1)) in
    loop 0
  in
  let pass = ref 0 in
  while !pass < 5 && !moves < max_moves && any_violation () do
    incr pass;
    for i = 0 to std.Model.nrows - 1 do
      repair_row i
    done
  done;
  let unresolved = ref 0 in
  for i = 0 to std.Model.nrows - 1 do
    if violation std x i then incr unresolved
  done;
  (!moves, !unresolved)

let solve ?(options = Branch_bound.default_options) ?pool ?(max_repair_moves = 1000)
    ~num_parts ~var_part (std : Model.std) =
  let t0 = Unix.gettimeofday () in
  let subs, coupled_rows = split_full ~num_parts ~var_part std in
  let run (_, sub_std, to_full) =
    let opts =
      match options.Branch_bound.initial with
      | None -> options
      | Some x0 ->
        (* projection of a full-model incumbent; Branch_bound re-checks it
           against the sub's own rows and drops it when invalid *)
        { options with Branch_bound.initial = Some (Array.map (fun v -> x0.(v)) to_full) }
    in
    let t = Unix.gettimeofday () in
    let out = Branch_bound.solve ~options:opts sub_std in
    (out, Unix.gettimeofday () -. t)
  in
  let results =
    match pool with
    | Some p -> Solver_pool.map p run subs
    | None ->
      let domains =
        min (max 1 (Array.length subs)) (max 1 (Domain.recommended_domain_count ()))
      in
      Solver_pool.with_pool ~domains (fun p -> Solver_pool.map p run subs)
  in
  (* merge: sub solutions write through their index maps; variables of subs
     that produced no incumbent fall back to the bound closest to zero *)
  let full =
    Array.init std.Model.nvars (fun v ->
        Float.min std.Model.ub.(v) (Float.max std.Model.lb.(v) 0.0))
  in
  Array.iteri
    (fun k (_, _, to_full) ->
      let out, _ = results.(k) in
      match out.Branch_bound.solution with
      | Some x -> Array.iteri (fun j v -> full.(v) <- x.(j)) to_full
      | None -> ())
    subs;
  let merge_repairs, unresolved_rows = repair ~max_moves:max_repair_moves std full in
  let feasible = Model.check_solution std full = Ok () in
  let objective = if feasible then Model.objective_value std full else infinity in
  let sum f = Array.fold_left (fun a (out, _) -> a + f out) 0 results in
  let outcome =
    {
      Branch_bound.status = (if feasible then Branch_bound.Feasible else Branch_bound.Unknown);
      solution = (if feasible then Some full else None);
      objective;
      (* sub bounds do not compose into a monolith bound: each sub ignores
         the others' objective terms and sees scaled capacities *)
      best_bound = neg_infinity;
      gap = infinity;
      nodes = sum (fun o -> o.Branch_bound.nodes);
      lp_iterations = sum (fun o -> o.Branch_bound.lp_iterations);
      warm_started_nodes = sum (fun o -> o.Branch_bound.warm_started_nodes);
      dual_restarted_nodes = sum (fun o -> o.Branch_bound.dual_restarted_nodes);
      dual_pivots = sum (fun o -> o.Branch_bound.dual_pivots);
      bound_flips = sum (fun o -> o.Branch_bound.bound_flips);
      bland_pivots = sum (fun o -> o.Branch_bound.bland_pivots);
      (* worst sub-seed outcome: a single rejected slice means the merged
         warm start was not fully honoured *)
      seed =
        Array.fold_left
          (fun acc (out, _) ->
            match (acc, out.Branch_bound.seed) with
            | Branch_bound.Seed_rejected, _ | _, Branch_bound.Seed_rejected ->
              Branch_bound.Seed_rejected
            | Branch_bound.Seed_repaired, _ | _, Branch_bound.Seed_repaired ->
              Branch_bound.Seed_repaired
            | Branch_bound.Seed_accepted, _ | _, Branch_bound.Seed_accepted ->
              Branch_bound.Seed_accepted
            | Branch_bound.Seed_none, Branch_bound.Seed_none -> Branch_bound.Seed_none)
          Branch_bound.Seed_none results;
      elapsed = Unix.gettimeofday () -. t0;
    }
  in
  let parts =
    Array.mapi
      (fun k (p, sub_std, _) ->
        let out, wall = results.(k) in
        {
          part = p;
          vars = sub_std.Model.nvars;
          rows = sub_std.Model.nrows;
          objective = out.Branch_bound.objective;
          status = out.Branch_bound.status;
          nodes = out.Branch_bound.nodes;
          lp_iterations = out.Branch_bound.lp_iterations;
          wall_s = wall;
        })
      subs
  in
  {
    outcome;
    stats =
      {
        parts;
        coupled_rows;
        merge_repairs;
        unresolved_rows;
        wall_s = outcome.Branch_bound.elapsed;
      };
  }
