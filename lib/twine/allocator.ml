module Broker = Ras_broker.Broker
module Region = Ras_topology.Region
module Hw = Ras_topology.Hardware

type key = int * int (* job id, replica index *)

type t = {
  broker : Broker.t;
  res_id : int;
  rru_of : Hw.t -> float;
  container_server : (key, int) Hashtbl.t;
  server_load : (int, float) Hashtbl.t;
  server_containers : (int, Job.container list) Hashtbl.t;
  mutable pending : Job.container list;
}

type failure_stats = { replaced : int; stranded : int }

let key (c : Job.container) = (c.Job.job.Job.id, c.Job.index)

let reservation t = t.res_id

let load t sid = try Hashtbl.find t.server_load sid with Not_found -> 0.0

let server t sid = (Broker.region t.broker).Region.servers.(sid)

let server_capacity t sid = t.rru_of (server t sid).Region.hw

let remaining t sid = server_capacity t sid -. load t sid

(* The allocator works within its reservation; elastic reservations own
   servers under the [Elastic] constructor. *)
let owned_by_me t sid =
  let code = Broker.current_code t.broker sid in
  code = Broker.owner_code (Broker.Reservation t.res_id)
  || code = Broker.owner_code (Broker.Elastic t.res_id)

(* [f] on every healthy server of the reservation, in descending id order
   (the order placement ties and capacity sums have always used). *)
let iter_candidates t f =
  for sid = Broker.num_servers t.broker - 1 downto 0 do
    if owned_by_me t sid && Broker.healthy_at t.broker sid then f sid
  done

let attach t c sid =
  Hashtbl.replace t.container_server (key c) sid;
  Hashtbl.replace t.server_load sid (load t sid +. c.Job.job.Job.rru_per_replica);
  let existing = try Hashtbl.find t.server_containers sid with Not_found -> [] in
  Hashtbl.replace t.server_containers sid (c :: existing);
  Broker.set_in_use t.broker sid true

let detach t c =
  match Hashtbl.find_opt t.container_server (key c) with
  | None -> ()
  | Some sid ->
    Hashtbl.remove t.container_server (key c);
    let new_load = load t sid -. c.Job.job.Job.rru_per_replica in
    if new_load <= 1e-9 then Hashtbl.remove t.server_load sid
    else Hashtbl.replace t.server_load sid new_load;
    let rest =
      List.filter
        (fun c' -> key c' <> key c)
        (try Hashtbl.find t.server_containers sid with Not_found -> [])
    in
    if rest = [] then begin
      Hashtbl.remove t.server_containers sid;
      Broker.set_in_use t.broker sid false
    end
    else Hashtbl.replace t.server_containers sid rest

(* Place one container: among servers with room, prefer the least-loaded MSB
   (for the job's replicas) and within it the largest remaining capacity. *)
let place_one t ~msb_replicas ~spread c =
  let size = c.Job.job.Job.rru_per_replica in
  let best = ref None in
  let consider sid =
    let rem = remaining t sid in
    if rem >= size -. 1e-9 then begin
      let msb = (server t sid).Region.loc.Region.msb in
      let reps = try Hashtbl.find msb_replicas msb with Not_found -> 0 in
      let score = if spread then (reps, -.rem) else (0, -.rem) in
      match !best with
      | Some (bscore, _) when bscore <= score -> ()
      | _ -> best := Some (score, sid)
    end
  in
  iter_candidates t consider;
  match !best with
  | None -> None
  | Some (_, sid) ->
    attach t c sid;
    let msb = (server t sid).Region.loc.Region.msb in
    Hashtbl.replace msb_replicas msb (1 + (try Hashtbl.find msb_replicas msb with Not_found -> 0));
    Some sid

let retry_pending t =
  let still = ref [] and replaced = ref 0 in
  let msb_replicas = Hashtbl.create 8 in
  List.iter
    (fun c ->
      match place_one t ~msb_replicas ~spread:c.Job.job.Job.spread_msbs c with
      | Some _ -> incr replaced
      | None -> still := c :: !still)
    t.pending;
  t.pending <- List.rev !still;
  { replaced = !replaced; stranded = List.length t.pending }

let evict_server t sid =
  match Hashtbl.find_opt t.server_containers sid with
  | None -> ()
  | Some cs ->
    List.iter (fun c -> detach t c) cs;
    t.pending <- cs @ t.pending

let create broker ~reservation ~rru_of =
  let t =
    {
      broker;
      res_id = reservation;
      rru_of;
      container_server = Hashtbl.create 256;
      server_load = Hashtbl.create 256;
      server_containers = Hashtbl.create 256;
      pending = [];
    }
  in
  let on_event = function
    | Broker.Went_down (sid, _) ->
      if owned_by_me t sid && not (Broker.healthy_at broker sid) then begin
        evict_server t sid;
        ignore (retry_pending t)
      end
    | Broker.Came_up _ -> ignore (retry_pending t)
  in
  Broker.subscribe broker on_event;
  t

let place_job t job =
  if job.Job.reservation <> t.res_id then
    invalid_arg "Allocator.place_job: job belongs to a different reservation";
  let placed = ref [] in
  let msb_replicas = Hashtbl.create 8 in
  let rec loop = function
    | [] -> Ok ()
    | c :: rest -> (
      match place_one t ~msb_replicas ~spread:job.Job.spread_msbs c with
      | Some _ ->
        placed := c :: !placed;
        loop rest
      | None ->
        (* roll back: jobs place atomically *)
        List.iter (fun c' -> detach t c') !placed;
        Error
          (Printf.sprintf "reservation %d cannot fit job %d (%d x %.2f rru)" t.res_id
             job.Job.id job.Job.replicas job.Job.rru_per_replica))
  in
  loop (Job.containers job)

let stop_job t job = List.iter (fun c -> detach t c) (Job.containers job)

let placed_containers t = Hashtbl.length t.container_server

let pending_containers t = List.length t.pending

let server_of_container t c = Hashtbl.find_opt t.container_server (key c)

let used_rru t = Hashtbl.fold (fun _ l acc -> acc +. l) t.server_load 0.0

let capacity_rru t =
  let acc = ref 0.0 in
  iter_candidates t (fun sid -> acc := !acc +. server_capacity t sid);
  !acc

let servers_in_use t = Hashtbl.fold (fun sid _ acc -> sid :: acc) t.server_containers []
