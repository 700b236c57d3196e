(* Name-keyed diff between two compiled models, plus the basis and
   incumbent mapping that makes cross-round warm restarts possible.

   Matching is by variable/row *name*, not index: the formulation layer
   guarantees stable names across rounds (class keys, reservation ids), so
   index churn from entities appearing or disappearing does not inflate the
   diff.  Duplicate names within one model are matched by occurrence order,
   which keeps the diff well-defined on arbitrary inputs. *)

type stats = {
  vars_added : int;
  vars_removed : int;
  rows_added : int;
  rows_removed : int;
  bounds_changed : int;
  obj_changed : int;
  rhs_changed : int;
  coefs_changed : int;
  structure_identical : bool;
}

let total_changes s =
  s.vars_added + s.vars_removed + s.rows_added + s.rows_removed + s.bounds_changed
  + s.obj_changed + s.rhs_changed + s.coefs_changed

let pp_stats ppf s =
  Format.fprintf ppf "vars +%d/-%d rows +%d/-%d bounds %d obj %d rhs %d coefs %d%s"
    s.vars_added s.vars_removed s.rows_added s.rows_removed s.bounds_changed s.obj_changed
    s.rhs_changed s.coefs_changed
    (if s.structure_identical then " (same structure)" else "")

type t = {
  var_src : int array;  (* next var -> prev var, -1 when added *)
  var_dst : int array;  (* prev var -> next var, -1 when removed *)
  row_src : int array;  (* next row -> prev row, -1 when added *)
  row_dst : int array;  (* prev row -> next row, -1 when removed *)
  lb : float array;  (* next's bounds, for map_solution *)
  ub : float array;
  dstats : stats;
}

let stats t = t.dstats

(* Match [next_names] against [prev_names] by name, duplicates in occurrence
   order.  Returns (src per next index, dst per prev index). *)
let match_names prev_names next_names =
  let np = Array.length prev_names and nn = Array.length next_names in
  let pool : (string, int list ref) Hashtbl.t = Hashtbl.create (2 * np) in
  (* build FIFO pools in descending index order so list heads are ascending *)
  for i = np - 1 downto 0 do
    match Hashtbl.find_opt pool prev_names.(i) with
    | Some l -> l := i :: !l
    | None -> Hashtbl.replace pool prev_names.(i) (ref [ i ])
  done;
  let src = Array.make nn (-1) and dst = Array.make np (-1) in
  for j = 0 to nn - 1 do
    match Hashtbl.find_opt pool next_names.(j) with
    | Some ({ contents = i :: rest } as l) ->
      l := rest;
      src.(j) <- i;
      dst.(i) <- j
    | Some { contents = [] } | None -> ()
  done;
  (src, dst)

(* Prev row entries translated to next variable indices (removed variables
   dropped), sorted ascending — the order a fresh compile produces, since
   row terms are normalized by variable index. *)
let translate_row (prev : Model.std) var_dst r =
  let cols = prev.Model.row_cols.(r) and coefs = prev.Model.row_coefs.(r) in
  let kept = ref [] in
  for k = Array.length cols - 1 downto 0 do
    let d = var_dst.(cols.(k)) in
    if d >= 0 then kept := (d, coefs.(k)) :: !kept
  done;
  let arr = Array.of_list !kept in
  Array.sort (fun (a, _) (b, _) -> compare a b) arr;
  arr

let same_content translated cols coefs =
  Array.length translated = Array.length cols
  && begin
       let ok = ref true in
       Array.iteri
         (fun k (c, v) -> if c <> cols.(k) || v <> coefs.(k) then ok := false)
         translated;
       !ok
     end

let count n p =
  let k = ref 0 in
  for i = 0 to n - 1 do
    if p i then incr k
  done;
  !k

let is_identity src =
  let ok = ref true in
  Array.iteri (fun i s -> if s <> i then ok := false) src;
  !ok

let diff ~(prev : Model.std) ~(next : Model.std) =
  let var_src, var_dst = match_names prev.Model.var_names next.Model.var_names in
  let row_src, row_dst = match_names prev.Model.row_names next.Model.row_names in
  let matched src p i = src.(i) >= 0 && p src.(i) i in
  let dstats =
    {
      vars_added = count next.Model.nvars (fun j -> var_src.(j) < 0);
      vars_removed = count prev.Model.nvars (fun i -> var_dst.(i) < 0);
      rows_added = count next.Model.nrows (fun i -> row_src.(i) < 0);
      rows_removed = count prev.Model.nrows (fun i -> row_dst.(i) < 0);
      bounds_changed =
        count next.Model.nvars
          (matched var_src (fun s j ->
               prev.Model.lb.(s) <> next.Model.lb.(j) || prev.Model.ub.(s) <> next.Model.ub.(j)));
      obj_changed =
        count next.Model.nvars (matched var_src (fun s j -> prev.Model.obj.(s) <> next.Model.obj.(j)))
        + if prev.Model.obj_offset <> next.Model.obj_offset then 1 else 0;
      rhs_changed =
        count next.Model.nrows
          (matched row_src (fun s i ->
               prev.Model.rhs.(s) <> next.Model.rhs.(i)
               || prev.Model.row_sense.(s) <> next.Model.row_sense.(i)));
      coefs_changed =
        count next.Model.nrows
          (matched row_src (fun s i ->
               not
                 (same_content (translate_row prev var_dst s) next.Model.row_cols.(i)
                    next.Model.row_coefs.(i))));
      structure_identical =
        next.Model.nvars = prev.Model.nvars
        && next.Model.nrows = prev.Model.nrows
        && is_identity var_src && is_identity row_src;
    }
  in
  { var_src; var_dst; row_src; row_dst; lb = next.Model.lb; ub = next.Model.ub; dstats }

(* ------------------------------------------------------------------ *)
(* Basis mapping                                                       *)

let map_basis t ~(prev_basis : Simplex.warm_basis) =
  let pn = Array.length t.var_dst and pm = Array.length t.row_dst in
  let nvars = Array.length t.var_src in
  if
    Array.length prev_basis.Simplex.wcols <> pm
    || Array.length prev_basis.Simplex.wstatus <> pn + pm
  then None
  else begin
    (* prev column (structural or slack) -> next column, -1 when departed *)
    let col_map =
      Array.init (pn + pm) (fun c ->
          if c < pn then t.var_dst.(c)
          else
            let d = t.row_dst.(c - pn) in
            if d < 0 then -1 else nvars + d)
    in
    let wb, reused =
      Simplex.remap_basis ~nvars ~nrows:(Array.length t.row_src) ~col_map ~row_src:t.row_src
        prev_basis
    in
    (* the factorization survives only when the basis matrix is untouched:
       same index spaces and no coefficient changes (rhs/bound/objective
       deltas do not enter B) *)
    let wfac =
      if t.dstats.structure_identical && t.dstats.coefs_changed = 0 then
        prev_basis.Simplex.wfac
      else None
    in
    Some ({ wb with Simplex.wfac }, reused)
  end

let map_solution t x =
  if Array.length x < Array.length t.var_dst then
    invalid_arg "Incremental.map_solution: solution does not match the diffed model";
  Array.mapi
    (fun j s ->
      (* surviving values are clamped into the new bounds (a shrunk class
         lowers assignment-count ubs); new variables start at the bound
         closest to zero *)
      let v = if s >= 0 then x.(s) else 0.0 in
      Float.max t.lb.(j) (Float.min t.ub.(j) v))
    t.var_src
