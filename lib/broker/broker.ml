module Region = Ras_topology.Region
module Unavail = Ras_failures.Unavail

type owner = Free | Reservation of int | Shared_buffer | Elastic of int

type event = Went_down of int * Unavail.kind | Came_up of int

(* Per-server state lives in flat columns (one int or one byte per server)
   instead of one heap record per server: at region scale (10^6 servers) a
   record representation would cost ~6 words of header+fields per server plus a
   pointer array, while the columns cost ~2.25 words per server total and
   never allocate on reads of the hot fields. *)
type t = {
  mutable reg : Region.t;
  mutable current : int array;  (* owner codes *)
  mutable target : int array;  (* owner codes *)
  mutable down : Bytes.t;  (* 0 = healthy, 1 + kind code otherwise *)
  mutable in_use : Bytes.t;  (* 0 / 1 *)
  mutable subscribers : (event -> unit) list;  (* reversed subscription order *)
  mutable change_subscribers : (int -> unit) list;  (* reversed subscription order *)
}

(* Owner codes: injective int encoding so a column cell is a single
   immediate.  [Free] and [Shared_buffer] take the two codes outside the
   id-carrying residue classes (codes 2 mod 4 and 3 mod 4). *)
let owner_code = function
  | Free -> 0
  | Shared_buffer -> 1
  | Reservation id -> (id * 4) + 2
  | Elastic id -> (id * 4) + 3

let owner_of_code = function
  | 0 -> Free
  | 1 -> Shared_buffer
  | c when c land 3 = 2 -> Reservation ((c - 2) asr 2)
  | c -> Elastic ((c - 3) asr 2)

let kind_code = function
  | Unavail.Planned_maintenance -> 0
  | Unavail.Unplanned_sw -> 1
  | Unavail.Unplanned_hw -> 2
  | Unavail.Correlated -> 3

let free_code = 0

let create reg =
  let n = Region.num_servers reg in
  {
    reg;
    current = Array.make n free_code;
    target = Array.make n free_code;
    down = Bytes.make n '\000';
    in_use = Bytes.make n '\000';
    subscribers = [];
    change_subscribers = [];
  }

let region t = t.reg

let num_servers t = Array.length t.current

let check t id fn =
  if id < 0 || id >= Array.length t.current then
    invalid_arg (Printf.sprintf "Broker.%s: unknown server %d" fn id)

(* -- column accessors: the allocation-free read path -- *)

let current_code t id = check t id "current_code"; t.current.(id)

let target_code t id = check t id "target_code"; t.target.(id)

let current_owner t id = owner_of_code (current_code t id)

let down_code t id fn = check t id fn; Char.code (Bytes.unsafe_get t.down id)

let in_use_at t id = check t id "in_use_at"; Bytes.unsafe_get t.in_use id <> '\000'

let available_code c = c = 0 || c = 1 + kind_code Unavail.Planned_maintenance

let available_at t id = available_code (down_code t id "available_at")

let healthy_at t id = down_code t id "healthy_at" = 0

let subscribe t f = t.subscribers <- f :: t.subscribers

let subscribe_changes t f = t.change_subscribers <- f :: t.change_subscribers

let notify t ev = List.iter (fun f -> f ev) (List.rev t.subscribers)

let notify_change t id =
  List.iter (fun f -> f id) (List.rev t.change_subscribers)

let set_target t id owner = check t id "set_target"; t.target.(id) <- owner_code owner

let move t id owner =
  check t id "move";
  let code = owner_code owner in
  if t.current.(id) <> code then begin
    t.current.(id) <- code;
    Bytes.unsafe_set t.in_use id '\000';
    notify_change t id
  end

let mark_down t id kind =
  let code = 1 + kind_code kind in
  if down_code t id "mark_down" <> code then begin
    Bytes.unsafe_set t.down id (Char.chr code);
    notify_change t id;
    notify t (Went_down (id, kind))
  end

let mark_up t id =
  if down_code t id "mark_up" <> 0 then begin
    Bytes.unsafe_set t.down id '\000';
    notify_change t id;
    notify t (Came_up id)
  end

let set_in_use t id flag =
  check t id "set_in_use";
  let byte = if flag then '\001' else '\000' in
  if Bytes.unsafe_get t.in_use id <> byte then begin
    Bytes.unsafe_set t.in_use id byte;
    notify_change t id
  end

let extend_region t reg =
  let old_n = num_servers t in
  let n = Region.num_servers reg in
  if n < old_n then invalid_arg "Broker.extend_region: new region is smaller";
  for i = 0 to old_n - 1 do
    if reg.Region.servers.(i).Region.id <> t.reg.Region.servers.(i).Region.id then
      invalid_arg "Broker.extend_region: existing server ids changed"
  done;
  let grow_int col =
    let bigger = Array.make n free_code in
    Array.blit col 0 bigger 0 old_n;
    bigger
  in
  let grow_bytes col =
    let bigger = Bytes.make n '\000' in
    Bytes.blit col 0 bigger 0 old_n;
    bigger
  in
  t.current <- grow_int t.current;
  t.target <- grow_int t.target;
  t.down <- grow_bytes t.down;
  t.in_use <- grow_bytes t.in_use;
  t.reg <- reg;
  for id = old_n to n - 1 do
    notify_change t id
  done

let servers_with_owner t owner =
  let code = owner_code owner in
  let out = ref [] in
  for id = num_servers t - 1 downto 0 do
    if t.current.(id) = code then out := id :: !out
  done;
  !out

let count_owner t owner =
  let code = owner_code owner in
  let acc = ref 0 in
  Array.iter (fun c -> if c = code then incr acc) t.current;
  !acc
