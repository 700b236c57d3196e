module Broker = Ras_broker.Broker
module Region = Ras_topology.Region

(* Server state is columnar (int/byte column per field, indexed by server
   id): a region-scale snapshot costs a handful of flat arrays instead of
   10^6 per-server records, and capture from the (equally columnar) broker
   is a tight loop with no per-server allocation. *)
type t = {
  region : Region.t;
  current : int array;  (* Broker.owner_code per server *)
  in_use : Bytes.t;
  usable : Bytes.t;
  attr : int array;
  reservations : Reservation.t list;
}

let take ?home_of ?attr_of broker reservations =
  let n = Broker.num_servers broker in
  let current =
    match home_of with
    | None -> Array.init n (fun id -> Broker.current_code broker id)
    | Some home_of ->
      Array.init n (fun id ->
          match home_of id with
          | Some home -> Broker.owner_code home
          | None -> Broker.current_code broker id)
  in
  let in_use = Bytes.make n '\000' in
  let usable = Bytes.make n '\000' in
  for id = 0 to n - 1 do
    if Broker.in_use_at broker id then Bytes.unsafe_set in_use id '\001';
    if Broker.available_at broker id then Bytes.unsafe_set usable id '\001'
  done;
  let attr =
    match attr_of with
    | None -> Array.make n 0
    | Some attr_of -> Array.init n attr_of
  in
  { region = Broker.region broker; current; in_use; usable; attr; reservations }

let num_servers t = Array.length t.current

let server t id = t.region.Region.servers.(id)

let current_code t id = t.current.(id)

let current t id = Broker.owner_of_code t.current.(id)

let in_use_at t id = Bytes.unsafe_get t.in_use id <> '\000'

let usable_at t id = Bytes.unsafe_get t.usable id <> '\000'

let attr_at t id = t.attr.(id)

let hw_index_at t id = t.region.Region.servers.(id).Region.hw.Ras_topology.Hardware.index

let usable_hw_histogram t =
  let counts = Array.make Ras_topology.Hardware.count 0 in
  for id = 0 to num_servers t - 1 do
    if usable_at t id then begin
      let h = hw_index_at t id in
      counts.(h) <- counts.(h) + 1
    end
  done;
  counts

let with_current t current =
  if Array.length current <> Array.length t.current then
    invalid_arg "Snapshot.with_current: column length mismatch";
  { t with current }

(* Buffer reservations are per hardware category, so category membership
   (rru_of > 0) identifies which buffer reservation holds a [Shared_buffer]
   server.  Code-based so the rru folds below never decode owners. *)
let owned_by_code res code hw =
  if code = Broker.owner_code Broker.Shared_buffer then
    Reservation.is_buffer res && res.Reservation.rru_of hw > 0.0
  else
    code = Broker.owner_code (Broker.Reservation res.Reservation.id)
    && not (Reservation.is_buffer res)

(* The one "usable and owned by [res]" loop behind the RRU queries: [f acc
   server rru] runs in ascending id order, so every sum keeps one order. *)
let fold_owned_rru t res ~init ~f =
  let acc = ref init in
  for id = 0 to num_servers t - 1 do
    if usable_at t id then begin
      let s = server t id in
      let hw = s.Region.hw in
      if owned_by_code res t.current.(id) hw then acc := f !acc s (res.Reservation.rru_of hw)
    end
  done;
  !acc

let current_rru t res = fold_owned_rru t res ~init:0.0 ~f:(fun acc _ rru -> acc +. rru)

let rru_by_scope t res ~size ~scope =
  fold_owned_rru t res ~init:(Array.make size 0.0) ~f:(fun out s rru ->
      let k = scope s.Region.loc in
      out.(k) <- out.(k) +. rru;
      out)

let rru_by_msb t res =
  rru_by_scope t res ~size:t.region.Region.num_msbs ~scope:(fun l -> l.Region.msb)

let rru_by_dc t res =
  rru_by_scope t res ~size:t.region.Region.num_dcs ~scope:(fun l -> l.Region.dc)

let max_msb_share t res =
  let per_msb = rru_by_msb t res in
  let total = Array.fold_left ( +. ) 0.0 per_msb in
  if total <= 0.0 then nan
  else Array.fold_left Float.max 0.0 per_msb /. total
