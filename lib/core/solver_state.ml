module Model = Ras_mip.Model
module Simplex = Ras_mip.Simplex
module Incremental = Ras_mip.Incremental
module Branch_bound = Ras_mip.Branch_bound

type round_stats = {
  round : int;
  diff : Incremental.stats option;
  basis_rows_reused : int;
  basis_rows_total : int;
  seed : Branch_bound.seed_status;
  root_pivots : int;
  cold_root_pivots : int;
  pivots_saved : int;
}

let basis_reuse_rate r =
  if r.basis_rows_total = 0 then 0.0
  else float_of_int r.basis_rows_reused /. float_of_int r.basis_rows_total

let pp_round ppf r =
  let seed =
    match r.seed with
    | Branch_bound.Seed_none -> "none"
    | Branch_bound.Seed_accepted -> "accepted"
    | Branch_bound.Seed_repaired -> "repaired"
    | Branch_bound.Seed_rejected -> "rejected"
  in
  Format.fprintf ppf "round %d: " r.round;
  (match r.diff with
  | None -> Format.fprintf ppf "cold"
  | Some d -> Format.fprintf ppf "diff {%a}" Incremental.pp_stats d);
  Format.fprintf ppf ", basis %d/%d rows reused (%.0f%%), seed %s, root pivots %d (saved %d)"
    r.basis_rows_reused r.basis_rows_total
    (100.0 *. basis_reuse_rate r)
    seed r.root_pivots r.pivots_saved

(* ---- price table: the tier-1 repair policy's view of the last solve ----

   Duals are keyed by compiled row names, which encode the stable symmetry
   class key ("supply_m3h5u1a0").  The table aggregates supply-row duals
   per (msb, hw) scope — the scope the reactive pools are bucketed by —
   taking the max |dual| over the in_use / attr variants, so a class whose
   servers the solver fully values keeps its whole (msb, hw) bucket
   expensive. *)

type price_table = {
  price_round : int;
  class_prices : (int, float) Hashtbl.t;  (* msb * Hw.count + hw -> max |supply dual| *)
}

let hw_count = Ras_topology.Hardware.count

(* "supply_m<msb>[k<rack>]h<hw>u<0|1>a<attr>" -> (msb, hw); rack-level rows
   fold into their (msb, hw) bucket like everything else *)
let parse_supply name =
  let n = String.length name in
  let prefix = "supply_m" in
  let np = String.length prefix in
  if n <= np || not (String.starts_with ~prefix name) then None
  else begin
    let digits i =
      let j = ref i in
      while !j < n && name.[!j] >= '0' && name.[!j] <= '9' do incr j done;
      if !j = i then None else Some (int_of_string (String.sub name i (!j - i)), !j)
    in
    match digits np with
    | None -> None
    | Some (msb, i) -> (
      let i = if i < n && name.[i] = 'k' then match digits (i + 1) with Some (_, j) -> j | None -> i else i in
      if i >= n || name.[i] <> 'h' then None
      else match digits (i + 1) with None -> None | Some (hw, _) -> Some (msb, hw))
  end

let price_table ?(round = 0) ~row_names ~duals () =
  let t = { price_round = round; class_prices = Hashtbl.create 256 } in
  let n = Int.min (Array.length row_names) (Array.length duals) in
  for i = 0 to n - 1 do
    let d = duals.(i) in
    if Float.abs d > 1e-12 then
      match parse_supply row_names.(i) with
      | Some (msb, hw) ->
        let key = (msb * hw_count) + hw in
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt t.class_prices key) in
        if Float.abs d > prev then Hashtbl.replace t.class_prices key (Float.abs d)
      | None -> ()
  done;
  t

let class_price t ~msb ~hw =
  Option.value ~default:0.0 (Hashtbl.find_opt t.class_prices ((msb * hw_count) + hw))

type cached = {
  cstd : Model.std;
  cbasis : Simplex.warm_basis option;
  cincumbent : float array option;
}

type t = {
  mutable prev : cached option;
  mutable rounds : int;
  mutable cold_root_pivots : int;
  mutable stats : round_stats list;  (* reversed *)
}

let create () = { prev = None; rounds = 0; cold_root_pivots = 0; stats = [] }

let round t = t.rounds

let last_round t = match t.stats with [] -> None | r :: _ -> Some r

let history t = List.rev t.stats

type warm = {
  wdiff : Incremental.stats;
  wbasis : Simplex.warm_basis option;
  wrows_reused : int;
  wseed : float array option;
}

let prepare t ~next =
  match t.prev with
  | None -> None
  | Some { cstd; cbasis; cincumbent } ->
    let d = Incremental.diff ~prev:cstd ~next in
    let wbasis, wrows_reused =
      match cbasis with
      | None -> (None, 0)
      | Some prev_basis -> (
        match Incremental.map_basis d ~prev_basis with
        | Some (b, reused) -> (Some b, reused)
        | None -> (None, 0))
    in
    let wseed =
      match cincumbent with
      | Some x when Array.length x = cstd.Model.nvars -> Some (Incremental.map_solution d x)
      | Some _ | None -> None
    in
    Some { wdiff = Incremental.stats d; wbasis; wrows_reused; wseed }

let commit t ~std ~basis ~incumbent ~diff ~rows_reused ~seed ~root_pivots () =
  if t.rounds = 0 then t.cold_root_pivots <- root_pivots;
  let r =
    {
      round = t.rounds;
      diff;
      basis_rows_reused = rows_reused;
      basis_rows_total = std.Model.nrows;
      seed;
      root_pivots;
      cold_root_pivots = t.cold_root_pivots;
      pivots_saved = (if t.rounds = 0 then 0 else Int.max 0 (t.cold_root_pivots - root_pivots));
    }
  in
  t.stats <- r :: t.stats;
  t.rounds <- t.rounds + 1;
  t.prev <- Some { cstd = std; cbasis = basis; cincumbent = incumbent }
