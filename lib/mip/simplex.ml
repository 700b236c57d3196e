(* Column status.  A column is either basic (its value is determined by the
   basis equations) or nonbasic pinned at one of its bounds; free nonbasic
   columns sit at zero. *)
type col_status = Basic | At_lower | At_upper | Nb_free

(* Entering-column selection rule.  Devex (production) scores by d^2 / w_j
   with reference-framework weights approximating the steepest-edge norms
   (Forrest-Goldfarb); Dantzig scores by |reduced cost| over every column
   and is kept as the differential oracle's rule. *)
type pricing = Dantzig | Devex

(* A restartable basis snapshot: which column is basic in each row plus the
   bound every nonbasic column rests on.  [wfac] optionally carries the
   matching basis factorization so a restart can skip refactorization;
   holders that keep many snapshots alive (the branch-and-bound node queue)
   drop it to stay O(ntotal) per snapshot. *)
type warm_basis = {
  wcols : int array;  (* wcols.(i) = column basic in row i *)
  wstatus : col_status array;  (* one entry per column incl. slacks *)
  wfac : Basis.t option;  (* basis factorization matching wcols *)
}

(* Hot-path kernel counters for one solve: average FTRAN/BTRAN result
   nonzeros (the hypersparse win is exactly these staying far below m) and
   the number of nonbasic bound flips the long-step dual ratio test
   performed. *)
type kernel_stats = {
  avg_ftran_nnz : float;
  avg_btran_nnz : float;
  bound_flips : int;
}

type result =
  | Optimal of {
      x : float array;
      obj : float;
      iterations : int;
      dual_iterations : int;
      bland_iterations : int;
      duals : float array;
      basis : warm_basis;
      kstats : kernel_stats;
    }
  | Infeasible of { infeasibility : int }
  | Unbounded
  | Iteration_limit of { feasible : bool; obj : float }

(* Primal feasibility, dual feasibility and pivot-magnitude tolerances. *)
let feas_tol = 1e-7

let dual_tol = 1e-7

let pivot_tol = 1e-9

type state = {
  std : Model.std;
  m : int;
  ntotal : int;  (* structural columns + one slack per row *)
  lb : float array;
  ub : float array;
  obj : float array;
  status : col_status array;
  xval : float array;
  basis : int array;  (* basis.(i) = column basic in row i *)
  mutable fac : Basis.t;  (* factorized basis (LU+eta or dense inverse) *)
  mutable bland : bool;  (* anti-cycling mode *)
  mutable degenerate_run : int;
  degen_limit : int;  (* consecutive degenerate pivots before Bland mode *)
  mutable iterations : int;
  mutable dual_pivots : int;
  mutable bland_pivots : int;  (* pivots whose entering column Bland chose *)
  mutable bound_flips : int;  (* long-step dual ratio-test bound flips *)
  (* cached simplex multipliers y = c_B^T B^-1: recomputed by BTRAN in
     phase 1 (the phase-1 cost vector moves with the iterate) and after
     refactorization, updated incrementally after phase-2 pivots *)
  dual : float array;
  mutable dual_valid : bool;
  mutable dual_phase1 : bool;
  (* solver-owned scratch (reusable across solves through {!workspace}):
     basic-cost buffer for the dual BTRAN, dual ratio-test candidate lists,
     and the accumulated bound-flip column (row-indexed dense + packed
     pattern fed straight to the sparse FTRAN) *)
  cb : float array;  (* m *)
  cand_j : int array;  (* ntotal *)
  cand_d : float array;
  cand_a : float array;  (* |pivot-row entry| *)
  cand_r : float array;  (* dual ratio *)
  cand_ord : int array;
  frhs : float array;  (* m, all-zero between uses *)
  fpat : int array;  (* m *)
  fval : float array;  (* m *)
  fmark : int array;  (* m, row-dedup stamps for the flip column *)
  mutable fstamp : int;
  (* cached reduced costs d_j = c_j - y . A_j under [dual]: maintained
     incrementally across pivots by [update_prices_after_pivot] — in phase
     1 only while no bystander basic crosses a violation boundary (see
     [phase1_costs_shift]) — and otherwise rebuilt in one row-major pass
     skipping zero multiplier rows.  The pricing scan never forms a
     column-times-dual dot product. *)
  dvec : float array;  (* ntotal *)
  mutable dvec_valid : bool;
  (* pivot-row pricing scratch: prod.(j) = (e_r B^-1) . A_j over the
     columns the pivot row touches, with a packed pattern and dedup
     stamps (prod is garbage off-pattern; [fstamp] serves both mark
     arrays) *)
  prod : float array;  (* ntotal *)
  prod_pat : int array;  (* ntotal *)
  pmark : int array;  (* ntotal *)
  (* entering-column selection *)
  pricing : pricing;
  (* Devex phase-2 candidate list: the set of improving nonbasic columns,
     maintained incrementally.  A column's candidacy can only change when
     its reduced cost or status changes, and every such change flows
     through the sparse pivot-row pricing pass (or a bound flip of the
     column itself) — so the per-iteration pricing scan walks this list
     instead of all of ntotal, dropping dead entries as it goes.  The
     invariant is one-sided: every improving column is in the list; the
     list may also hold stale non-improving entries until a scan prunes
     them.  [cl_mark.(j) = cl_gen] means j is in the list; rebuilt from a
     full scan whenever the reduced-cost cache itself is rebuilt. *)
  clist : int array;  (* ntotal *)
  mutable clist_n : int;
  cl_mark : int array;  (* ntotal *)
  mutable cl_gen : int;
  mutable clist_valid : bool;
  (* Devex reference-framework state.  [devex_w.(j)] approximates the
     steepest-edge weight of column j relative to the basis at the last
     reference reset; weights of basic columns are frozen until they leave.
     The exact Forrest-Goldfarb update needs the pivot row over every
     nonbasic column, which this revised simplex never forms densely;
     instead each pivot's sparse pivot-row pricing pass (the same one that
     updates the cached reduced costs) folds w_j <- max(w_j, g * (rho .
     A_j)^2) over exactly the columns the row touches — off-row columns
     have rho . A_j = 0 and their weights are untouched by construction. *)
  devex_w : float array;
  mutable devex_strikes : int;  (* weight-accuracy violations observed *)
  mutable devex_gen : int;  (* bumped by every reference reset *)
  devex_reset_period : int;  (* forced re-reference every N pivots; 0 = off *)
  trace : (iteration:int -> min_devex_weight:float -> unit) option;
}

(* -------------------------------------------------------------------- *)
(* Column access: structural columns come from the compiled sparse form;
   slack column [nvars + i] is the unit vector e_i.                      *)

let col_iter st j f =
  if j < st.std.nvars then begin
    let p = st.std.col_ptr in
    let ind = st.std.col_ind and vl = st.std.col_val in
    for k = p.(j) to p.(j + 1) - 1 do
      f ind.(k) vl.(k)
    done
  end
  else f (j - st.std.nvars) 1.0

(* alpha = B^-1 * A_j through the factorization, as a sparse vector in the
   factorization's FTRAN scratch (valid until the next FTRAN). *)
let ftran st j =
  if j < st.std.nvars then begin
    let off = st.std.col_ptr.(j) in
    Basis.ftran_col_sparse st.fac st.std.col_ind st.std.col_val ~off
      ~len:(st.std.col_ptr.(j + 1) - off)
  end
  else Basis.ftran_unit_sparse st.fac (j - st.std.nvars)

(* -------------------------------------------------------------------- *)
(* Basis maintenance                                                     *)

(* Restart the Devex reference framework: all weights one (the current
   basis becomes the reference basis).  Fired on a cold (re)start, on entry
   to Bland mode, when the accuracy check has struck out, and on a forced
   periodic re-reference.  Routine refactorization deliberately does NOT
   reset: it changes the factors, not the basis, so the reference framework
   the weights were accumulated under is still the truth — wiping them
   there measurably inflated Devex pivot counts. *)
let reset_devex st =
  Array.fill st.devex_w 0 st.ntotal 1.0;
  st.devex_strikes <- 0;
  st.devex_gen <- st.devex_gen + 1

(* Devex accuracy policy.  At pivot time the exact steepest-edge measure of
   the entering column, 1 + ||alpha||², is available for free from the
   FTRAN.  The reference-framework weight approximates the norm over a
   subset of that sum, so it should never exceed the exact measure by much;
   when the stored weight overshoots it by [devex_weight_slack] the
   framework has drifted — one strike — and [devex_max_strikes] strikes
   force a reset. *)
let devex_weight_slack = 3.0
let devex_max_strikes = 3

(* Sparsity-aware tie-breaking for the Devex scan: among candidates whose
   scores are within this factor of the best seen, prefer the column with
   the fewest nonzeros.  The reference-framework weights are coarse
   approximations, so a small score band is inside the rule's own noise —
   but entering a sparser column buys a cheaper FTRAN, a sparser eta and a
   sparser pivot row for every downstream update, which is where the wall
   clock actually goes on hypersparse models. *)
let devex_sparsity_band = 1.5

(* Rebuild the factorization from scratch for the current basis columns.
   Bounds numerical drift from the update chain.  Raises Basis.Singular
   (leaving the factors unchanged) when elimination breaks down. *)
let refactor st =
  Basis.refactorize st.fac ~basis:st.basis ~col:(col_iter st);
  st.dual_valid <- false;
  st.dvec_valid <- false

let recompute_basics st =
  (* x_B = B^-1 (rhs - sum over nonbasic columns of A_j x_j) *)
  let r = Array.copy st.std.rhs in
  for j = 0 to st.ntotal - 1 do
    if st.status.(j) <> Basic && st.xval.(j) <> 0.0 then begin
      let v = st.xval.(j) in
      col_iter st j (fun row c -> r.(row) <- r.(row) -. (c *. v))
    end
  done;
  let vals = Basis.ftran_dense st.fac r in
  for i = 0 to st.m - 1 do
    st.xval.(st.basis.(i)) <- vals.(i)
  done

(* -------------------------------------------------------------------- *)
(* Pricing                                                               *)

let infeasibility_of st b =
  let x = st.xval.(b) in
  if x < st.lb.(b) -. feas_tol then st.lb.(b) -. x
  else if x > st.ub.(b) +. feas_tol then x -. st.ub.(b)
  else 0.0

let total_infeasibility st =
  let total = ref 0.0 and count = ref 0 in
  for i = 0 to st.m - 1 do
    let v = infeasibility_of st st.basis.(i) in
    if v > 0.0 then begin
      total := !total +. v;
      incr count
    end
  done;
  (!total, !count)

(* Phase-1 cost of the basic variable in row [i]: the gradient of its bound
   violation.  Nonbasic columns always have zero phase-1 cost. *)
let phase1_cost st i =
  let b = st.basis.(i) in
  let x = st.xval.(b) in
  if x < st.lb.(b) -. feas_tol then -1.0
  else if x > st.ub.(b) +. feas_tol then 1.0
  else 0.0

(* Simplex multipliers into the caller buffer [dst] (length m), through the
   solver-owned basic-cost scratch: no allocation on the phase-1 path that
   runs this every iteration. *)
let compute_duals_into st ~phase1 dst =
  let cb = st.cb in
  for i = 0 to st.m - 1 do
    cb.(i) <- (if phase1 then phase1_cost st i else st.obj.(st.basis.(i)))
  done;
  Basis.btran_dense_into st.fac cb dst

(* The BTRAN that used to run every iteration is hoisted into a cached dual
   vector, updated by one sparse unit-BTRAN per pivot (see
   [update_prices_after_pivot]).  Phase-1 pivots keep the cache too as long
   as the step moved no bystander basic across a violation boundary (the
   cost vector is the violation gradient of the iterate; see
   [phase1_costs_shift]); boundary-crossing steps, phase changes and fresh
   refactorizations pay the full recompute. *)
let ensure_duals st ~phase1 =
  if (not st.dual_valid) || st.dual_phase1 <> phase1 then begin
    compute_duals_into st ~phase1 st.dual;
    st.dual_valid <- true;
    st.dual_phase1 <- phase1
  end

(* prod.(j) = row . A_j over every column, from ONE row-major pass over the
   sparse B^-1 row's pattern: each touched row contributes to the columns
   it intersects (compiled row arrays) plus its own slack.  Returns the
   pattern length; prod holds garbage off-pattern, so readers must stay on
   [prod_pat] (or check [pmark] against the stamp this call leaves in
   [st.fstamp]).  Cost is the total nonzero count of the touched rows —
   independent of ntotal, the hypersparse analogue of pricing a dense pivot
   row against every column. *)
let price_row st (row : Basis.Svec.t) =
  st.fstamp <- st.fstamp + 1;
  let stamp = st.fstamp in
  let prod = st.prod and pat = st.prod_pat and mark = st.pmark in
  let nvars = st.std.nvars in
  let row_cols = st.std.row_cols and row_coefs = st.std.row_coefs in
  let np = ref 0 in
  for u = 0 to row.Basis.Svec.n - 1 do
    let r = row.Basis.Svec.idx.(u) in
    let br = row.Basis.Svec.vals.(r) in
    let cols = row_cols.(r) and coefs = row_coefs.(r) in
    for k = 0 to Array.length cols - 1 do
      let j = cols.(k) in
      let v = br *. coefs.(k) in
      if mark.(j) <> stamp then begin
        mark.(j) <- stamp;
        pat.(!np) <- j;
        incr np;
        prod.(j) <- v
      end
      else prod.(j) <- prod.(j) +. v
    done;
    (* the slack of row r is e_r: touched exactly once, by row r itself *)
    let j = nvars + r in
    mark.(j) <- stamp;
    pat.(!np) <- j;
    incr np;
    prod.(j) <- br
  done;
  !np

(* Rebuild the cached reduced costs from the cached duals in one row-major
   pass that skips zero multiplier rows: d_j = c_j - sum_r y_r A_rj.  The
   old per-column dots paid O(nnz(A)) unconditionally; this pays only for
   the rows y actually weights — under phase-1 costs y is supported on the
   violated rows' BTRAN footprint.  Runs on refactorization, phase entry,
   and the phase-1 steps that shift a bystander's violation gradient. *)
let recompute_dvec st ~phase1 =
  let d = st.dvec and y = st.dual in
  let nvars = st.std.nvars in
  if phase1 then Array.fill d 0 st.ntotal 0.0
  else Array.blit st.obj 0 d 0 st.ntotal;
  let row_cols = st.std.row_cols and row_coefs = st.std.row_coefs in
  for r = 0 to st.m - 1 do
    let yr = y.(r) in
    if yr <> 0.0 then begin
      let cols = row_cols.(r) and coefs = row_coefs.(r) in
      for k = 0 to Array.length cols - 1 do
        let j = cols.(k) in
        d.(j) <- d.(j) -. (yr *. coefs.(k))
      done;
      d.(nvars + r) <- d.(nvars + r) -. yr
    end
  done

(* Make both price caches (duals and reduced costs) valid for [phase1].
   When the duals had to be recomputed (phase change, refactorization,
   phase-1 iterate moved) the reduced costs follow. *)
let ensure_prices st ~phase1 =
  let fresh = (not st.dual_valid) || st.dual_phase1 <> phase1 in
  ensure_duals st ~phase1;
  if fresh || not st.dvec_valid then begin
    recompute_dvec st ~phase1;
    st.dvec_valid <- true;
    (* the reduced costs jumped wholesale; the candidate list built on the
       old values no longer bounds the improving set *)
    st.clist_valid <- false
  end

(* Direction the entering variable would move, or None if it is not an
   improving candidate.  Columns with a zero-width range never enter. *)
let entering_direction st ~d j =
  if st.ub.(j) -. st.lb.(j) <= 0.0 then None
  else
    match st.status.(j) with
    | Basic -> None
    | At_lower -> if d < -.dual_tol then Some 1.0 else None
    | At_upper -> if d > dual_tol then Some (-1.0) else None
    | Nb_free ->
      if d < -.dual_tol then Some 1.0
      else if d > dual_tol then Some (-1.0)
      else None

(* Candidate-list maintenance (Devex phase-2 pricing).  [rebuild_clist]
   seeds the list with every improving column in one full scan — bumping
   the membership generation retires all old marks at once.  [clist_add]
   admits a column whose reduced cost or status just changed; non-improving
   and already-listed columns are refused, so list entries are distinct and
   the list can never outgrow ntotal.  Dead entries are pruned lazily by
   the pricing scan itself. *)
let rebuild_clist st =
  st.cl_gen <- st.cl_gen + 1;
  st.clist_n <- 0;
  let dvec = st.dvec in
  for j = 0 to st.ntotal - 1 do
    if st.status.(j) <> Basic then begin
      let d = dvec.(j) in
      match entering_direction st ~d j with
      | Some _ ->
        st.cl_mark.(j) <- st.cl_gen;
        st.clist.(st.clist_n) <- j;
        st.clist_n <- st.clist_n + 1
      | None -> ()
    end
  done;
  st.clist_valid <- true

let clist_add st j =
  if st.clist_valid && st.cl_mark.(j) <> st.cl_gen && st.status.(j) <> Basic
  then begin
    let d = st.dvec.(j) in
    match entering_direction st ~d j with
    | Some _ ->
      st.cl_mark.(j) <- st.cl_gen;
      st.clist.(st.clist_n) <- j;
      st.clist_n <- st.clist_n + 1
    | None -> ()
  end

(* Shared phase-2 pivot epilogue for the price caches.  After the pivot in
   [row] (entering column [q], leaving column [leaving], entering reduced
   cost [d]):
   - y' = y + d * (new B^-1 pivot row), the product-form dual update;
   - d_j' = d_j - d * (row . A_j) for every nonbasic column, via the
     sparse pivot-row pricing pass — columns off the row's pattern are
     untouched (their row entry is a structural zero);
   - the leaving column re-enters the nonbasic set with its exact update
     d_leaving' = lshift - d * (row . A_leaving): its cached entry went
     stale while basic, and [lshift] carries the change in its own cost on
     leaving — zero in phase 2 (a variable keeps its objective cost), but
     in phase 1 a violated basic leaving at its bound sheds its +-1
     violation gradient, which shifts its reduced cost by the negated
     pre-pivot cost;
   - when [fold_g] carries the entering column's reference weight, the
     Forrest-Goldfarb Devex update w_j <- max(w_j, g * (row . A_j)^2)
     rides the same pass.
   [upd_dual] is false on pivots that invalidated the caches (a phase-1
   step that moved a bystander basic across a violation boundary), where
   only the weight fold runs.  Must run after the factorization has
   absorbed the pivot. *)
let update_prices_after_pivot st ~row ~q ~leaving ~d ~lshift ~upd_dual ~fold_g =
  let brow = Basis.btran_unit_sparse st.fac row in
  if upd_dual && d <> 0.0 then begin
    let y = st.dual in
    for u = 0 to brow.Basis.Svec.n - 1 do
      let k = brow.Basis.Svec.idx.(u) in
      y.(k) <- y.(k) +. (d *. brow.Basis.Svec.vals.(k))
    done
  end;
  let upd_dvec = upd_dual && st.dvec_valid in
  let dofold = match fold_g with Some _ -> true | None -> false in
  if upd_dvec || dofold then begin
    let np = price_row st brow in
    let stamp = st.fstamp in
    let g = match fold_g with Some g -> g | None -> 0.0 in
    let dvec = st.dvec and prod = st.prod and pat = st.prod_pat in
    for u = 0 to np - 1 do
      let jj = pat.(u) in
      (* basic columns: reduced costs are rebuilt on leaving (below) and
         Devex freezes their weights until they leave *)
      if st.status.(jj) <> Basic then begin
        let a = prod.(jj) in
        if upd_dvec && d <> 0.0 then begin
          dvec.(jj) <- dvec.(jj) -. (d *. a);
          (* the moved reduced cost may have made jj an improving candidate *)
          clist_add st jj
        end;
        if dofold then begin
          let w' = g *. a *. a in
          if w' > st.devex_w.(jj) then st.devex_w.(jj) <- w'
        end
      end
    done;
    if upd_dvec then begin
      dvec.(leaving) <-
        lshift
        -. (if st.pmark.(leaving) = stamp then d *. prod.(leaving) else 0.0);
      dvec.(q) <- 0.0;
      clist_add st leaving
    end
  end

(* Entering-column choice.  Every regime reads the cached reduced-cost
   vector — no column is ever dotted against the duals here.  Three regimes:
   - Bland's rule (anti-cycling): lowest-index improving column, full scan;
   - full Dantzig: best |reduced cost| over every column (the seed scheme,
     kept as the differential oracle's rule);
   - Devex (default): score d^2 / w_j under the approximate steepest-edge
     weights (maintained eagerly by the pivot epilogue, see
     [update_prices_after_pivot]).  Phase 2 scans the incrementally
     maintained candidate list — typically a small fraction of ntotal —
     pruning entries that stopped improving as it goes; an empty scan means
     dual feasibility exactly because the list provably contains every
     improving column.  Phase 1 rebuilds the reduced costs every iteration,
     so no list survives long enough to pay there: full scan. *)
let choose_entering st ~phase1 =
  ensure_prices st ~phase1;
  let dvec = st.dvec in
  if st.bland then begin
    let rec scan j =
      if j >= st.ntotal then None
      else if st.status.(j) = Basic then scan (j + 1)
      else
        let d = dvec.(j) in
        match entering_direction st ~d j with
        | Some dir -> Some (j, dir, d)
        | None -> scan (j + 1)
    in
    scan 0
  end
  else
    match st.pricing with
    | Dantzig ->
    let best = ref None and best_score = ref 0.0 in
    for j = 0 to st.ntotal - 1 do
      if st.status.(j) <> Basic then begin
        let d = dvec.(j) in
        match entering_direction st ~d j with
        | Some dir ->
          let score = Float.abs d in
          if score > !best_score then begin
            best_score := score;
            best := Some (j, dir, d)
          end
        | None -> ()
      end
    done;
    !best
    | Devex ->
    if not st.clist_valid then rebuild_clist st;
    let nvars = st.std.Model.nvars and cp = st.std.Model.col_ptr in
    let nnz_of j = if j < nvars then cp.(j + 1) - cp.(j) else 1 in
    let band = devex_sparsity_band in
    let best = ref None and best_score = ref 0.0 and best_nnz = ref max_int in
    let kept = ref 0 in
    for u = 0 to st.clist_n - 1 do
      let j = st.clist.(u) in
      let d = dvec.(j) in
      match entering_direction st ~d j with
      | Some dir ->
        st.clist.(!kept) <- j;
        incr kept;
        let score = d *. d /. st.devex_w.(j) in
        let nz = nnz_of j in
        let better =
          score > !best_score *. band
          || (score *. band > !best_score && nz < !best_nnz)
        in
        if better then begin
          best_score := Float.max score !best_score;
          best_nnz := nz;
          best := Some (j, dir, d)
        end
      | None ->
        (* prune: unmark so the column can re-enter when its reduced cost
           moves again (generation 0 is never current) *)
        st.cl_mark.(j) <- 0
    done;
    st.clist_n <- !kept;
    !best

(* -------------------------------------------------------------------- *)
(* Ratio test                                                            *)

type block =
  | No_block
  | Entering_flip of float
  | Leaving of { row : int; step : float; bound : col_status }

(* In phase 1 an infeasible basic variable only blocks when it reaches the
   bound it violates (at which point it leaves the basis feasible); moving
   away from feasibility never blocks because the pricing step already
   accounted for that gradient. *)
let ratio_test st (alpha : Basis.Svec.t) ~dir ~phase1 j =
  let eps = pivot_tol in
  let t_enter =
    match st.status.(j) with
    | Nb_free -> infinity
    | _ ->
      let range = st.ub.(j) -. st.lb.(j) in
      if Float.is_finite range then range else infinity
  in
  let best_step = ref t_enter and best_row = ref (-1) and best_bound = ref At_lower in
  let best_pivot = ref 0.0 in
  (* The pattern is sorted ascending, so candidates are met in the same row
     order as the dense 0..m-1 scan; rows outside the pattern hold exact
     zeros, which |a| > eps rejected anyway — tie-breaking is unchanged. *)
  for u = 0 to alpha.Basis.Svec.n - 1 do
    let i = alpha.Basis.Svec.idx.(u) in
    let a = alpha.Basis.Svec.vals.(i) in
    if Float.abs a > eps then begin
      let b = st.basis.(i) in
      let delta = -.dir *. a in
      let x = st.xval.(b) in
      let lo = st.lb.(b) and hi = st.ub.(b) in
      let candidate =
        if phase1 && x < lo -. feas_tol then
          (* below its lower bound: blocks only when climbing back to it *)
          (if delta > eps then Some ((lo -. x) /. delta, At_lower) else None)
        else if phase1 && x > hi +. feas_tol then
          (if delta < -.eps then Some ((hi -. x) /. delta, At_upper) else None)
        else if delta > eps then
          (if Float.is_finite hi then Some ((hi -. x) /. delta, At_upper) else None)
        else if Float.is_finite lo then Some ((lo -. x) /. delta, At_lower)
        else None
      in
      match candidate with
      | None -> ()
      | Some (step, bound) ->
        let step = max 0.0 step in
        (* Prefer strictly smaller steps; on (near-)ties keep the row with
           the largest pivot magnitude for numerical stability. *)
        let better =
          if !best_row < 0 then step <= !best_step
          else if step < !best_step -. 1e-9 then true
          else if step <= !best_step +. 1e-9 then Float.abs a > !best_pivot
          else false
        in
        if better then begin
          best_step := min step !best_step;
          best_row := i;
          best_bound := bound;
          best_pivot := Float.abs a
        end
    end
  done;
  if !best_row >= 0 then Leaving { row = !best_row; step = !best_step; bound = !best_bound }
  else if Float.is_finite t_enter then Entering_flip t_enter
  else No_block

(* -------------------------------------------------------------------- *)
(* Setup (forward-declared pieces used by pivot application)             *)

(* Nonbasic resting point for column [j] given a preferred bound: fall back
   to whichever bound is finite (closest to zero, like a cold start) when
   the preferred one is not. *)
let set_nonbasic st j preferred =
  let lo = st.lb.(j) and hi = st.ub.(j) in
  let at_lower () = st.status.(j) <- At_lower; st.xval.(j) <- lo in
  let at_upper () = st.status.(j) <- At_upper; st.xval.(j) <- hi in
  let free () = st.status.(j) <- Nb_free; st.xval.(j) <- 0.0 in
  match preferred with
  | At_lower when Float.is_finite lo -> at_lower ()
  | At_upper when Float.is_finite hi -> at_upper ()
  | _ ->
    if Float.is_finite lo && (Float.abs lo <= Float.abs hi || not (Float.is_finite hi)) then
      at_lower ()
    else if Float.is_finite hi then at_upper ()
    else free ()

(* All-slack starting basis: every structural column nonbasic at its best
   bound, identity basis factorization. *)
let set_cold st =
  for j = 0 to st.std.nvars - 1 do
    set_nonbasic st j At_lower
  done;
  for i = 0 to st.m - 1 do
    st.basis.(i) <- st.std.nvars + i;
    st.status.(st.std.nvars + i) <- Basic
  done;
  Basis.set_identity st.fac;
  st.dual_valid <- false;
  st.dvec_valid <- false;
  (* the basis jumped wholesale; any accumulated pricing state is stale *)
  if st.pricing = Devex then reset_devex st;
  recompute_basics st

(* -------------------------------------------------------------------- *)
(* Pivot application                                                     *)

let apply_move st (alpha : Basis.Svec.t) ~dir ~step j =
  if step <> 0.0 then begin
    st.xval.(j) <- st.xval.(j) +. (dir *. step);
    for u = 0 to alpha.Basis.Svec.n - 1 do
      let i = alpha.Basis.Svec.idx.(u) in
      let a = alpha.Basis.Svec.vals.(i) in
      if a <> 0.0 then begin
        let b = st.basis.(i) in
        st.xval.(b) <- st.xval.(b) -. (a *. dir *. step)
      end
    done
  end

(* Would this pivot's basic-variable movement change any phase-1 cost
   besides the pivot row's?  The phase-1 cost vector is the violation
   gradient of the basic variables (see [phase1_cost]); the incremental
   price update absorbs the pivot-row cost swap exactly — the same algebra
   as phase 2's objective swap — but knows nothing about other rows.  The
   phase-1 ratio test stops at the first blocking boundary, so in the
   common case no other basic crosses a violation boundary and the price
   caches survive the pivot; this detects the exceptions (degenerate ties
   parking a second basic exactly on its bound, sub-[pivot_tol] entries
   drifting across one) so the caller can fall back to the rebuild.  Must
   run before [apply_move] — it reads the pre-move basic values.  Pass
   [row = -1] for a bound flip, where every pattern row is a bystander. *)
let phase1_costs_shift st (alpha : Basis.Svec.t) ~row ~dir ~step =
  let shifted = ref false in
  let u = ref 0 in
  while (not !shifted) && !u < alpha.Basis.Svec.n do
    let i = alpha.Basis.Svec.idx.(!u) in
    incr u;
    if i <> row then begin
      let a = alpha.Basis.Svec.vals.(i) in
      if a <> 0.0 then begin
        let b = st.basis.(i) in
        let x0 = st.xval.(b) in
        let x1 = x0 -. (a *. dir *. step) in
        let lo = st.lb.(b) -. feas_tol and hi = st.ub.(b) +. feas_tol in
        let cat x = if x < lo then -1 else if x > hi then 1 else 0 in
        if cat x0 <> cat x1 then shifted := true
      end
    end
  done;
  !shifted

(* Absorb the basis change into the factorization.  When the update is
   refused (pivot too small, update budget exhausted) refactorize from the
   already-updated basis columns; if even that fails the basis is
   numerically hopeless and the solve restarts cold — correctness over
   speed on a path that never fires in practice. *)
let absorb_pivot st (alpha : Basis.Svec.t) ~row =
  if not (Basis.update_sparse st.fac ~alpha ~row) then begin
    match refactor st with
    | () -> recompute_basics st
    | exception Basis.Singular -> set_cold st
  end

let pivot st alpha ~row j ~bound =
  let leaving = st.basis.(row) in
  st.status.(leaving) <- bound;
  (* pin the leaving variable exactly on its bound to avoid drift *)
  (st.xval.(leaving) <-
     match bound with
     | At_lower -> st.lb.(leaving)
     | At_upper -> st.ub.(leaving)
     | Basic | Nb_free -> st.xval.(leaving));
  st.basis.(row) <- j;
  st.status.(j) <- Basic;
  absorb_pivot st alpha ~row

(* -------------------------------------------------------------------- *)
(* Warm starts                                                           *)

(* Restart from a caller-supplied basis: validate, install statuses and
   nonbasic resting points (normalized against the possibly-tightened
   bounds), then either adopt the supplied factorization or refactorize.
   Returns false — leaving the caller to fall back to a cold start — on any
   structural mismatch or a singular basis. *)
let try_warm st (wb : warm_basis) =
  if Array.length wb.wcols <> st.m || Array.length wb.wstatus <> st.ntotal then false
  else begin
    let in_basis = Array.make st.ntotal false in
    let ok = ref true in
    Array.iter
      (fun c ->
        if c < 0 || c >= st.ntotal || in_basis.(c) then ok := false else in_basis.(c) <- true)
      wb.wcols;
    if not !ok then false
    else begin
      Array.blit wb.wcols 0 st.basis 0 st.m;
      for j = 0 to st.ntotal - 1 do
        if in_basis.(j) then st.status.(j) <- Basic
        else set_nonbasic st j wb.wstatus.(j)
      done;
      let adopted =
        match wb.wfac with
        | Some f when Basis.kind f = Basis.kind st.fac && Basis.dim f = st.m ->
          st.fac <- Basis.copy f;
          true
        | Some _ | None -> false
      in
      match
        if adopted then []
        else Basis.refactorize_repaired st.fac ~basis:st.basis ~col:(col_iter st)
      with
      | repairs ->
        (* Dependent carried columns (a cross-round basis projected onto a
           model with removed rows) were replaced by slacks of the rows the
           elimination left unpivoted; mirror the substitutions here. *)
        List.iter
          (fun (pos, row) ->
            let displaced = st.basis.(pos) in
            let slack = st.std.nvars + row in
            st.basis.(pos) <- slack;
            st.status.(slack) <- Basic;
            set_nonbasic st displaced wb.wstatus.(displaced))
          repairs;
        st.dual_valid <- false;
        st.dvec_valid <- false;
        recompute_basics st;
        true
      | exception Basis.Singular -> false
    end
  end

(* Re-index a basis onto another row/column space (a cross-round model, a
   presolved one).  Two passes: first every surviving basic column goes to
   its surviving row — a carried column can be the slack of a different new
   row, so repairs must wait until all carries are known or they could
   collide with one — then rows left empty get their own slack when free,
   else the first free slack.  The result is duplicate-free; a foreign-
   slack repair can make it singular, which [try_warm] detects.  Surviving
   nonbasic columns keep their resting bound (the restart re-normalizes it
   against the new bounds); everything else rests at its lower bound. *)
let remap_basis ~nvars ~nrows ~col_map ~row_src (wb : warm_basis) =
  let ntotal = nvars + nrows in
  let wstatus = Array.make ntotal At_lower in
  Array.iteri
    (fun c d ->
      if d >= 0 then match wb.wstatus.(c) with Basic -> () | s -> wstatus.(d) <- s)
    col_map;
  let wcols = Array.make nrows (-1) in
  let used = Array.make ntotal false in
  let carried = ref 0 in
  for i = 0 to nrows - 1 do
    let src = row_src.(i) in
    let old = if src < 0 then -1 else wb.wcols.(src) in
    let c = if old < 0 || old >= Array.length col_map then -1 else col_map.(old) in
    if c >= 0 && not used.(c) then begin
      wcols.(i) <- c;
      used.(c) <- true;
      incr carried
    end
  done;
  let next_free = ref 0 in
  for i = 0 to nrows - 1 do
    if wcols.(i) < 0 then begin
      let own = nvars + i in
      let c =
        if not used.(own) then own
        else begin
          while used.(nvars + !next_free) do
            incr next_free
          done;
          nvars + !next_free
        end
      in
      wcols.(i) <- c;
      used.(c) <- true
    end
  done;
  Array.iter (fun c -> wstatus.(c) <- Basic) wcols;
  ({ wcols; wstatus; wfac = None }, !carried)

(* Reusable per-solve scratch: every O(m)/O(ntotal) array a solve needs, so
   a caller that solves many same-shaped LPs (the branch-and-bound node
   loop) allocates them once instead of per solve.  The basis factorization
   is deliberately not here — it escapes into the returned [warm_basis].
   A workspace whose dimensions do not match the model is re-allocated
   transparently, so one workspace can serve heterogeneous solves at the
   cost of losing reuse across shape changes. *)
type workspace = {
  mutable ws_m : int;
  mutable ws_n : int;  (* ntotal = nvars + nrows *)
  mutable ws_lb : float array;
  mutable ws_ub : float array;
  mutable ws_obj : float array;
  mutable ws_status : col_status array;
  mutable ws_xval : float array;
  mutable ws_basis : int array;
  mutable ws_dual : float array;
  mutable ws_cb : float array;
  mutable ws_cand_j : int array;
  mutable ws_cand_d : float array;
  mutable ws_cand_a : float array;
  mutable ws_cand_r : float array;
  mutable ws_cand_ord : int array;
  mutable ws_frhs : float array;
  mutable ws_fpat : int array;
  mutable ws_fval : float array;
  mutable ws_fmark : int array;
  mutable ws_devex_w : float array;
  mutable ws_dvec : float array;
  mutable ws_prod : float array;
  mutable ws_prod_pat : int array;
  mutable ws_pmark : int array;
  mutable ws_clist : int array;
  mutable ws_cl_mark : int array;
}

let create_workspace () =
  {
    ws_m = -1;
    ws_n = -1;
    ws_lb = [||];
    ws_ub = [||];
    ws_obj = [||];
    ws_status = [||];
    ws_xval = [||];
    ws_basis = [||];
    ws_dual = [||];
    ws_cb = [||];
    ws_cand_j = [||];
    ws_cand_d = [||];
    ws_cand_a = [||];
    ws_cand_r = [||];
    ws_cand_ord = [||];
    ws_frhs = [||];
    ws_fpat = [||];
    ws_fval = [||];
    ws_fmark = [||];
    ws_devex_w = [||];
    ws_dvec = [||];
    ws_prod = [||];
    ws_prod_pat = [||];
    ws_pmark = [||];
    ws_clist = [||];
    ws_cl_mark = [||];
  }

let initial_state ?lb_override ?ub_override ?basis ?ws ~pricing ~degen_limit
    ~devex_reset_period ~trace ~backend (std : Model.std) =
  let m = std.nrows in
  let nvars = std.nvars in
  let ntotal = nvars + m in
  let w = match ws with Some w -> w | None -> create_workspace () in
  if w.ws_m <> m || w.ws_n <> ntotal then begin
    w.ws_m <- m;
    w.ws_n <- ntotal;
    w.ws_lb <- Array.make ntotal 0.0;
    w.ws_ub <- Array.make ntotal 0.0;
    w.ws_obj <- Array.make ntotal 0.0;
    w.ws_status <- Array.make ntotal At_lower;
    w.ws_xval <- Array.make ntotal 0.0;
    w.ws_basis <- Array.make m 0;
    w.ws_dual <- Array.make m 0.0;
    w.ws_cb <- Array.make m 0.0;
    w.ws_cand_j <- Array.make ntotal 0;
    w.ws_cand_d <- Array.make ntotal 0.0;
    w.ws_cand_a <- Array.make ntotal 0.0;
    w.ws_cand_r <- Array.make ntotal 0.0;
    w.ws_cand_ord <- Array.make ntotal 0;
    w.ws_frhs <- Array.make m 0.0;
    w.ws_fpat <- Array.make m 0;
    w.ws_fval <- Array.make m 0.0;
    w.ws_fmark <- Array.make m 0;
    w.ws_devex_w <- Array.make ntotal 1.0;
    w.ws_dvec <- Array.make ntotal 0.0;
    w.ws_prod <- Array.make ntotal 0.0;
    w.ws_prod_pat <- Array.make ntotal 0;
    w.ws_pmark <- Array.make ntotal 0;
    w.ws_clist <- Array.make ntotal 0;
    w.ws_cl_mark <- Array.make ntotal 0
  end
  else begin
    (* reused scratch: restore the invariants fresh arrays provide — frhs
       all-zero, the mark arrays unstamped (this solve's stamps restart at
       1), Devex weights back to the unit framework.  prod and dvec need no
       reset: prod is garbage off-pattern by contract and dvec is rebuilt
       before its first read. *)
    Array.fill w.ws_frhs 0 m 0.0;
    Array.fill w.ws_fmark 0 m 0;
    Array.fill w.ws_pmark 0 ntotal 0;
    Array.fill w.ws_cl_mark 0 ntotal 0;
    Array.fill w.ws_devex_w 0 ntotal 1.0
  end;
  let lb = w.ws_lb and ub = w.ws_ub in
  let slb = match lb_override with Some a -> a | None -> std.lb in
  let sub = match ub_override with Some a -> a | None -> std.ub in
  Array.blit slb 0 lb 0 nvars;
  Array.blit sub 0 ub 0 nvars;
  for i = 0 to m - 1 do
    (* Row a.x + s = rhs: Le rows get s in [0, inf), Ge rows s in (-inf, 0],
       Eq rows a fixed slack. *)
    let j = nvars + i in
    match std.row_sense.(i) with
    | Model.Le ->
      lb.(j) <- 0.0;
      ub.(j) <- infinity
    | Model.Ge ->
      lb.(j) <- neg_infinity;
      ub.(j) <- 0.0
    | Model.Eq ->
      lb.(j) <- 0.0;
      ub.(j) <- 0.0
  done;
  let obj = w.ws_obj in
  Array.blit std.obj 0 obj 0 nvars;
  Array.fill obj nvars m 0.0;
  let basis_arr = w.ws_basis in
  for i = 0 to m - 1 do
    basis_arr.(i) <- nvars + i
  done;
  let st =
    {
      std;
      m;
      ntotal;
      lb;
      ub;
      obj;
      status = w.ws_status;
      xval = w.ws_xval;
      basis = basis_arr;
      fac = Basis.create backend ~m;
      bland = false;
      degenerate_run = 0;
      degen_limit;
      iterations = 0;
      dual_pivots = 0;
      bland_pivots = 0;
      bound_flips = 0;
      dual = w.ws_dual;
      dual_valid = false;
      dual_phase1 = false;
      cb = w.ws_cb;
      cand_j = w.ws_cand_j;
      cand_d = w.ws_cand_d;
      cand_a = w.ws_cand_a;
      cand_r = w.ws_cand_r;
      cand_ord = w.ws_cand_ord;
      frhs = w.ws_frhs;
      fpat = w.ws_fpat;
      fval = w.ws_fval;
      fmark = w.ws_fmark;
      fstamp = 0;
      dvec = w.ws_dvec;
      dvec_valid = false;
      prod = w.ws_prod;
      prod_pat = w.ws_prod_pat;
      pmark = w.ws_pmark;
      clist = w.ws_clist;
      clist_n = 0;
      cl_mark = w.ws_cl_mark;
      cl_gen = 0;
      clist_valid = false;
      pricing;
      devex_w = w.ws_devex_w;
      devex_strikes = 0;
      devex_gen = 0;
      devex_reset_period;
      trace;
    }
  in
  let warmed = match basis with Some wb -> try_warm st wb | None -> false in
  Basis.reset_stats st.fac;
  if not warmed then set_cold st;
  (st, warmed)

let extract st = Array.sub st.xval 0 st.std.nvars

(* The snapshot must own its arrays: the state's are workspace-backed and
   the next solve through the same workspace would scribble over them. *)
let final_basis st =
  {
    wcols = Array.copy st.basis;
    wstatus = Array.copy st.status;
    wfac = Some st.fac;
  }

let kernel_stats_of st =
  let s = Basis.solve_stats st.fac in
  let avg calls nnz = if calls = 0 then 0.0 else float_of_int nnz /. float_of_int calls in
  {
    avg_ftran_nnz = avg s.Basis.ftran_calls s.Basis.ftran_nnz;
    avg_btran_nnz = avg s.Basis.btran_calls s.Basis.btran_nnz;
    bound_flips = st.bound_flips;
  }

(* -------------------------------------------------------------------- *)
(* Dual simplex                                                          *)

(* A warm-started basis whose bounds were tightened (the branch-and-bound
   child pattern) is primal infeasible but still dual feasible: the
   reduced costs did not move.  This check gates the dual phase; a basis
   that fails it (e.g. a stale snapshot under a different objective) falls
   through to the ordinary primal phase 1. *)
let dual_feasible_now st =
  ensure_prices st ~phase1:false;
  let tol = 10.0 *. dual_tol in
  let ok = ref true in
  let j = ref 0 in
  while !ok && !j < st.ntotal do
    let jj = !j in
    (if st.status.(jj) <> Basic && st.ub.(jj) -. st.lb.(jj) > 0.0 then
       let d = st.dvec.(jj) in
       match st.status.(jj) with
       | At_lower -> if d < -.tol then ok := false
       | At_upper -> if d > tol then ok := false
       | Nb_free -> if Float.abs d > tol then ok := false
       | Basic -> ());
    incr j
  done;
  !ok

(* Breakpoint order for the dual ratio test: ratio ascending, then larger
   |pivot-row entry| (numerical stability), then column index (a strict
   total order, so the sort is deterministic). *)
let cand_before st i j =
  let ri = st.cand_r.(i) and rj = st.cand_r.(j) in
  if ri < rj then true
  else if ri > rj then false
  else
    let ai = st.cand_a.(i) and aj = st.cand_a.(j) in
    if ai > aj then true
    else if ai < aj then false
    else st.cand_j.(i) < st.cand_j.(j)

(* In-place quicksort of the candidate permutation [ord.(lo0..hi0)] under
   [cand_before]; insertion sort below a small cutoff. *)
let sort_candidates st ord lo0 hi0 =
  let rec go lo hi =
    if hi - lo <= 11 then
      for i = lo + 1 to hi do
        let v = ord.(i) in
        let k = ref (i - 1) in
        while !k >= lo && cand_before st v ord.(!k) do
          ord.(!k + 1) <- ord.(!k);
          decr k
        done;
        ord.(!k + 1) <- v
      done
    else begin
      let mid = lo + ((hi - lo) / 2) in
      let a = ord.(lo) and b = ord.(mid) and c = ord.(hi) in
      let p =
        if cand_before st a b then
          if cand_before st b c then b else if cand_before st a c then c else a
        else if cand_before st a c then a
        else if cand_before st b c then c
        else b
      in
      let i = ref lo and j = ref hi in
      while !i <= !j do
        while cand_before st ord.(!i) p do
          incr i
        done;
        while cand_before st p ord.(!j) do
          decr j
        done;
        if !i <= !j then begin
          let tmp = ord.(!i) in
          ord.(!i) <- ord.(!j);
          ord.(!j) <- tmp;
          incr i;
          decr j
        end
      done;
      if lo < !j then go lo !j;
      if !i < hi then go !i hi
    end
  in
  if hi0 > lo0 then go lo0 hi0

(* Dual simplex re-optimization: drive out primal infeasibilities while the
   reduced costs stay dual feasible.  Each iteration picks the most
   violated basic variable as the leaving row, prices the pivot row
   (rho = e_r^T B^-1 via sparse BTRAN, then one pass over the nonbasic
   columns for both the row entries and the reduced costs), runs the
   long-step (bound-flip) dual ratio test over the sorted breakpoints, and
   pivots.  A boxed breakpoint whose flip keeps the dual slope positive is
   flipped to its opposite bound instead of pivoted on — the classic
   branch-and-bound child pattern, where a tightened bound makes a cluster
   of cheap flips plus one pivot out of what plain Dantzig-dual would take
   many pivots to do.  All flips of one pass are priced into a single
   accumulated sparse FTRAN.  On any numerical doubt — no eligible column,
   a pivot-row / FTRAN disagreement, a long degenerate stall — it simply
   stops: the primal loop behind it is fully general and finishes the
   solve, so the dual phase is purely an accelerator. *)
let dual_phase st ~max_iters =
  let m = st.m in
  let budget = ref (200 + (2 * m)) in
  let stalled = ref 0 in
  let running = ref true in
  while !running && st.iterations < max_iters && !budget > 0 do
    decr budget;
    if Basis.should_refactorize st.fac then begin
      match refactor st with
      | () -> recompute_basics st
      | exception Basis.Singular -> running := false
    end;
    if !running then begin
      (* leaving row: largest bound violation *)
      let r = ref (-1) and worst = ref 0.0 in
      for i = 0 to m - 1 do
        let v = infeasibility_of st st.basis.(i) in
        if v > !worst then begin
          worst := v;
          r := i
        end
      done;
      if !r < 0 then running := false (* primal feasible: the dual phase is done *)
      else begin
        let r = !r in
        let b = st.basis.(r) in
        let xb = st.xval.(b) in
        let v =
          if xb < st.lb.(b) -. feas_tol then xb -. st.lb.(b)
          else xb -. st.ub.(b)
        in
        ensure_prices st ~phase1:false;
        let rho = Basis.btran_unit_sparse st.fac r in
        (* Price the pivot row once, row-major: only the columns the row
           actually touches can be breakpoints (everything else has a
           structurally zero row entry), and their reduced costs come from
           the maintained cache — the old O(ntotal) column-dot pass is
           gone.  Candidate order differs from the old ascending-j scan,
           but [cand_before] is a strict total order (ties fall through to
           the column index), so the sorted sequence is identical. *)
        let np = price_row st rho in
        let nc = ref 0 in
        for u = 0 to np - 1 do
          let j = st.prod_pat.(u) in
          if st.status.(j) <> Basic && st.ub.(j) -. st.lb.(j) > 0.0 then begin
            let a = st.prod.(j) in
            if Float.abs a > pivot_tol then begin
              let eligible =
                match st.status.(j) with
                | At_lower -> v *. a > 0.0 (* entering may only increase *)
                | At_upper -> v *. a < 0.0 (* entering may only decrease *)
                | Nb_free -> true
                | Basic -> false
              in
              if eligible then begin
                let d = st.dvec.(j) in
                let k = !nc in
                st.cand_j.(k) <- j;
                st.cand_d.(k) <- d;
                st.cand_a.(k) <- Float.abs a;
                st.cand_r.(k) <- Float.abs d /. Float.abs a;
                st.cand_ord.(k) <- k;
                nc := k + 1
              end
            end
          end
        done;
        if !nc = 0 then running := false
          (* dual ray (primal infeasible) or numerics: let the primal
             phase 1 deliver the verdict *)
        else begin
          let nc = !nc in
          sort_candidates st st.cand_ord 0 (nc - 1);
          (* Long-step walk over the sorted breakpoints.  The dual slope
             starts at the infeasibility |v|; flipping the boxed candidate k
             past its breakpoint shrinks it by |a_k| * range_k.  Flip while
             the slope stays positive; the pivot lands on the first
             breakpoint that would exhaust it (or cannot flip). *)
          let slope = ref (Float.abs v) in
          let nflip = ref 0 in
          let stop = ref false in
          while (not !stop) && !nflip < nc do
            let k = st.cand_ord.(!nflip) in
            let j = st.cand_j.(k) in
            let range = st.ub.(j) -. st.lb.(j) in
            let boxed = st.status.(j) <> Nb_free && Float.is_finite range in
            if boxed && !slope -. (st.cand_a.(k) *. range) > feas_tol then begin
              slope := !slope -. (st.cand_a.(k) *. range);
              incr nflip
            end
            else stop := true
          done;
          if not !stop then running := false
            (* every breakpoint flips: a dual ray (primal infeasible).
               Apply nothing and let phase 1 deliver the verdict. *)
          else begin
            let kq = st.cand_ord.(!nflip) in
            let q = st.cand_j.(kq) in
            let dq = st.cand_d.(kq) in
            let rq = st.cand_r.(kq) in
            if !nflip > 0 then begin
              (* Move every flipped nonbasic to its opposite bound,
                 accumulate the combined column delta (dedup'd row pattern
                 via stamps), and restore the basic values with ONE sparse
                 FTRAN of the accumulated right-hand side. *)
              st.fstamp <- st.fstamp + 1;
              let stamp = st.fstamp in
              let nf = ref 0 in
              for i = 0 to !nflip - 1 do
                let k = st.cand_ord.(i) in
                let j = st.cand_j.(k) in
                let dx =
                  match st.status.(j) with
                  | At_lower ->
                    st.status.(j) <- At_upper;
                    st.xval.(j) <- st.ub.(j);
                    st.ub.(j) -. st.lb.(j)
                  | At_upper ->
                    st.status.(j) <- At_lower;
                    st.xval.(j) <- st.lb.(j);
                    st.lb.(j) -. st.ub.(j)
                  | Basic | Nb_free -> 0.0
                in
                if dx <> 0.0 then
                  col_iter st j (fun row c ->
                      if st.fmark.(row) <> stamp then begin
                        st.fmark.(row) <- stamp;
                        st.fpat.(!nf) <- row;
                        incr nf
                      end;
                      st.frhs.(row) <- st.frhs.(row) +. (c *. dx))
              done;
              (* compact (dropping cancellations), restoring frhs to all
                 zeros for the next use *)
              let nf2 = ref 0 in
              for u = 0 to !nf - 1 do
                let row = st.fpat.(u) in
                let vv = st.frhs.(row) in
                st.frhs.(row) <- 0.0;
                if vv <> 0.0 then begin
                  st.fpat.(!nf2) <- row;
                  st.fval.(!nf2) <- vv;
                  incr nf2
                end
              done;
              if !nf2 > 0 then begin
                let dxb = Basis.ftran_col_sparse st.fac st.fpat st.fval ~off:0 ~len:!nf2 in
                for u = 0 to dxb.Basis.Svec.n - 1 do
                  let i = dxb.Basis.Svec.idx.(u) in
                  let bi = st.basis.(i) in
                  st.xval.(bi) <- st.xval.(bi) -. dxb.Basis.Svec.vals.(i)
                done
              end;
              st.bound_flips <- st.bound_flips + !nflip
              (* the basis is unchanged, so the cached duals stay valid *)
            end;
            (* the flips moved the basic values: re-derive the leaving
               variable's violation before pivoting on it *)
            let xb = st.xval.(b) in
            let v' =
              if xb < st.lb.(b) -. feas_tol then xb -. st.lb.(b)
              else if xb > st.ub.(b) +. feas_tol then xb -. st.ub.(b)
              else 0.0
            in
            if v' = 0.0 || (v' < 0.0) <> (v < 0.0) then
              (* the flips alone repaired (or overshot) this row's
                 violation; a pivot on the stale ratio would be wrong, so
                 rescan for the next most-violated row *)
              stalled := 0
            else begin
              let alpha = ftran st q in
              let arq = alpha.Basis.Svec.vals.(r) in
              if Float.abs arq < pivot_tol then begin
                (* the priced row entry and the FTRAN'd column disagree:
                   refresh the factorization, then give the primal path the
                   problem if it keeps happening *)
                (try refactor st with Basis.Singular -> ());
                recompute_basics st;
                incr stalled;
                if !stalled > 3 then running := false
              end
              else begin
                let step = v' /. arq in
                st.xval.(q) <- st.xval.(q) +. step;
                for u = 0 to alpha.Basis.Svec.n - 1 do
                  let i = alpha.Basis.Svec.idx.(u) in
                  let a = alpha.Basis.Svec.vals.(i) in
                  if a <> 0.0 then begin
                    let bi = st.basis.(i) in
                    st.xval.(bi) <- st.xval.(bi) -. (a *. step)
                  end
                done;
                (* the leaving variable lands exactly on its violated bound *)
                let bound = if v' < 0.0 then At_lower else At_upper in
                st.status.(b) <- bound;
                (st.xval.(b) <-
                   match bound with At_lower -> st.lb.(b) | _ -> st.ub.(b));
                st.basis.(r) <- q;
                st.status.(q) <- Basic;
                absorb_pivot st alpha ~row:r;
                st.iterations <- st.iterations + 1;
                st.dual_pivots <- st.dual_pivots + 1;
                if st.dual_valid then
                  update_prices_after_pivot st ~row:r ~q ~leaving:b ~d:dq
                    ~lshift:0.0 ~upd_dual:true ~fold_g:None;
                if rq <= dual_tol then begin
                  (* dual-degenerate pivot: no dual objective progress *)
                  incr stalled;
                  if !stalled > 100 then running := false
                end
                else stalled := 0
              end
            end
          end
        end
      end
    end
  done

(* -------------------------------------------------------------------- *)
(* Driver                                                                *)

(* Trivial case: no constraints means each variable sits at whichever bound
   minimizes its objective coefficient. *)
let solve_unconstrained std lb ub =
  let n = (std : Model.std).nvars in
  let x = Array.make n 0.0 in
  let unbounded = ref false in
  for j = 0 to n - 1 do
    let c = std.obj.(j) in
    if c > 0.0 then
      if Float.is_finite lb.(j) then x.(j) <- lb.(j) else unbounded := true
    else if c < 0.0 then
      if Float.is_finite ub.(j) then x.(j) <- ub.(j) else unbounded := true
    else if Float.is_finite lb.(j) && lb.(j) > 0.0 then x.(j) <- lb.(j)
    else if Float.is_finite ub.(j) && ub.(j) < 0.0 then x.(j) <- ub.(j)
  done;
  if !unbounded then Unbounded
  else
    Optimal
      {
        x;
        obj = Model.objective_value std x;
        iterations = 0;
        dual_iterations = 0;
        bland_iterations = 0;
        duals = [||];
        basis = { wcols = [||]; wstatus = [||]; wfac = None };
        kstats = { avg_ftran_nnz = 0.0; avg_btran_nnz = 0.0; bound_flips = 0 };
      }

let solve ?(pricing = Devex)
    ?(degen_limit = 100) ?(devex_reset_period = 0) ?trace ?(backend = Basis.Lu) ?ws
    ?(dual_simplex = true) ?basis ?lb ?ub (std : Model.std) =
  (* A variable fixed-range check also covers per-node bound conflicts. *)
  let lbs = match lb with Some a -> a | None -> std.lb in
  let ubs = match ub with Some a -> a | None -> std.ub in
  let conflict = ref false in
  for j = 0 to std.nvars - 1 do
    if lbs.(j) > ubs.(j) +. feas_tol then conflict := true
  done;
  if !conflict then Infeasible { infeasibility = 1 }
  else if std.nrows = 0 then solve_unconstrained std lbs ubs
  else begin
    let st, warmed =
      initial_state ?lb_override:lb ?ub_override:ub ?basis ?ws ~pricing
        ~degen_limit ~devex_reset_period ~trace ~backend std
    in
    let max_iters = 20000 + (60 * (st.m + st.ntotal)) in
    (* Dual re-optimization: a warm basis whose bounds were tightened is
       typically primal infeasible but still dual feasible, and a handful
       of dual pivots restores optimality — the branch-and-bound child
       restart pattern.  Cold starts and dual-infeasible bases skip
       straight to the primal phases. *)
    if warmed && dual_simplex then begin
      let _, infeas0 = total_infeasibility st in
      if infeas0 > 0 && dual_feasible_now st then dual_phase st ~max_iters
    end;
    let result = ref None in
    while !result = None && st.iterations < max_iters do
      st.iterations <- st.iterations + 1;
      if
        st.pricing = Devex && st.devex_reset_period > 0
        && st.iterations mod st.devex_reset_period = 0
      then reset_devex st;
      if Basis.should_refactorize st.fac then begin
        (try refactor st with Basis.Singular -> ());
        recompute_basics st
      end;
      let _, infeas_count = total_infeasibility st in
      let phase1 = infeas_count > 0 in
      match choose_entering st ~phase1 with
      | None ->
        if phase1 then begin
          (* Confirm infeasibility on a freshly factorized basis. *)
          if Basis.updates_since_refactor st.fac > 0 then begin
            match refactor st with
            | () ->
              recompute_basics st;
              let _, recount = total_infeasibility st in
              if recount > 0 then result := Some (Infeasible { infeasibility = recount })
            | exception Basis.Singular ->
              result := Some (Infeasible { infeasibility = infeas_count })
          end
          else result := Some (Infeasible { infeasibility = infeas_count })
        end
        else begin
          (* Confirm optimality on a fresh factorization. *)
          let confirmed =
            if Basis.updates_since_refactor st.fac = 0 then true
            else
              match refactor st with
              | () ->
                recompute_basics st;
                false (* re-price on the fresh factors *)
              | exception Basis.Singular -> true
          in
          if confirmed then begin
            let duals = Array.make st.m 0.0 in
            compute_duals_into st ~phase1:false duals;
            result :=
              Some
                (Optimal
                   {
                     x = extract st;
                     obj = Model.objective_value st.std st.xval;
                     iterations = st.iterations;
                     dual_iterations = st.dual_pivots;
                     bland_iterations = st.bland_pivots;
                     duals;
                     basis = final_basis st;
                     kstats = kernel_stats_of st;
                   })
          end
        end
      | Some (j, dir, d) -> begin
        let alpha = ftran st j in
        match ratio_test st alpha ~dir ~phase1 j with
        | No_block ->
          if phase1 then begin
            (* Numerically suspect: refactor and retry; a persistent miss is
               reported as infeasible rather than looping forever. *)
            let fresh = Basis.updates_since_refactor st.fac = 0 in
            (try refactor st with Basis.Singular -> ());
            recompute_basics st;
            if fresh then result := Some (Infeasible { infeasibility = infeas_count })
          end
          else result := Some Unbounded
        | Entering_flip step ->
          (* a bound flip keeps the basis, the duals and the reduced costs —
             unless a phase-1 flip marched some basic across a violation
             boundary, shifting the phase-1 cost vector *)
          let p1_shift =
            phase1
            && ((not (st.dual_valid && st.dvec_valid))
               || phase1_costs_shift st alpha ~row:(-1) ~dir ~step)
          in
          apply_move st alpha ~dir ~step j;
          (st.status.(j) <-
             match st.status.(j) with
             | At_lower -> At_upper
             | At_upper -> At_lower
             | s -> s);
          if p1_shift then begin
            st.dual_valid <- false;
            st.dvec_valid <- false
          end
          else
            (* the flip changed the column's status, hence its candidacy
               test; re-admit it if it still improves (list pruning would
               otherwise drop it next scan) *)
            clist_add st j
        | Leaving { row; step; bound } ->
          let was_bland = st.bland in
          if step <= feas_tol then begin
            st.degenerate_run <- st.degenerate_run + 1;
            if st.degenerate_run > st.degen_limit && not st.bland then begin
              st.bland <- true;
              (* Bland's rule ignores the weights; restart the reference
                 framework from whatever basis Bland mode leaves us in. *)
              if st.pricing = Devex then reset_devex st
            end
          end
          else begin
            st.degenerate_run <- 0;
            st.bland <- false
          end;
          (* Phase-1 cache survival: decided against the pre-move basic
             values.  A phase-1 pivot whose bystander basics all keep their
             violation category is algebraically a phase-2 pivot with a
             cost swap in the pivot row, and the price caches ride the
             standard incremental update; [lshift] carries the leaving
             variable's shed violation gradient (see
             [update_prices_after_pivot]).  Only the exceptional steps pay
             the full rebuild. *)
          let p1_shift =
            phase1
            && ((not (st.dual_valid && st.dvec_valid))
               || phase1_costs_shift st alpha ~row ~dir ~step)
          in
          let lshift = if phase1 then -.(phase1_cost st row) else 0.0 in
          if was_bland then st.bland_pivots <- st.bland_pivots + 1;
          apply_move st alpha ~dir ~step j;
          (* Devex bookkeeping needs pre-pivot data: the entering column's
             stored weight, the pivot element, and the leaving variable. *)
          let devex_live = st.pricing = Devex && not st.bland in
          let gen0 = st.devex_gen in
          let entering_w =
            if devex_live then Float.max 1.0 st.devex_w.(j) else 1.0
          in
          let leaving = st.basis.(row) in
          let arq = alpha.Basis.Svec.vals.(row) in
          pivot st alpha ~row j ~bound;
          let need_dual = st.dual_valid && not p1_shift in
          if p1_shift then begin
            st.dual_valid <- false;
            st.dvec_valid <- false
          end;
          (* [pivot] may have fallen back to a cold restart (refused update
             and singular refactorization), which resets the framework —
             stale Devex bookkeeping must not be applied on top. *)
          let devex_live = devex_live && st.devex_gen = gen0 in
          if devex_live then begin
            (* Devex accuracy: the exact steepest-edge measure of the
               entering column, 1 + ||alpha||², is free from the FTRAN (the
               svec is still live — the pivot only ran the factor update,
               which does not touch it); the stored weight overshooting it
               means the framework has drifted. *)
            let se = ref 1.0 in
            for u = 0 to alpha.Basis.Svec.n - 1 do
              let a = alpha.Basis.Svec.vals.(alpha.Basis.Svec.idx.(u)) in
              se := !se +. (a *. a)
            done;
            if entering_w > devex_weight_slack *. !se then begin
              st.devex_strikes <- st.devex_strikes + 1;
              if st.devex_strikes > devex_max_strikes then reset_devex st
            end;
            (* Forrest–Goldfarb: the leaving variable re-enters the
               nonbasic set with weight max(1, ĝ/α_rq²); the other
               nonbasic weights fold in during the pivot-row pricing pass
               below. *)
            if st.devex_gen = gen0 then
              st.devex_w.(leaving) <- Float.max 1.0 (entering_w /. (arq *. arq))
          end;
          let devex_live = devex_live && st.devex_gen = gen0 in
          (* One sparse BTRAN + one row-major pricing pass serve the
             incremental dual update, the reduced-cost update, and the
             Devex weight fold. *)
          if need_dual || devex_live then
            update_prices_after_pivot st ~row ~q:j ~leaving ~d ~lshift
              ~upd_dual:need_dual
              ~fold_g:(if devex_live then Some entering_w else None);
          (match st.trace with
          | Some f when st.pricing = Devex ->
            let mw = ref infinity in
            for k = 0 to st.ntotal - 1 do
              if st.devex_w.(k) < !mw then mw := st.devex_w.(k)
            done;
            f ~iteration:st.iterations ~min_devex_weight:!mw
          | Some _ | None -> ())
      end
    done;
    match !result with
    | Some r -> r
    | None ->
      let _, infeas_count = total_infeasibility st in
      Iteration_limit { feasible = infeas_count = 0; obj = Model.objective_value st.std st.xval }
  end
