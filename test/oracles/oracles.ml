(* The original O(servers) tier-1 implementations, kept verbatim (modulo
   reading loans through the public [Online_mover.home_of]) as differential
   oracles for the reactive production paths.  Both materialize one broker
   record per server per call; they live with the tests because nothing in
   the program may scan the region on the event path. *)

open Ras
module Broker = Ras_broker.Broker
module Region = Ras_topology.Region

(* The replacement a failure of subtype [failed_hw] inside [res] picks:
   the lowest-scored healthy shared-buffer server, or a revocable loan
   whose home is the shared buffer.  Score: same subtype first, buffer
   before loans, idle before in-use, lowest id. *)
let find_replacement_reference broker mover res ~failed_hw =
  let candidate_score (r : Broker.record) ~lent =
    (* a lent server may be reclaimed even while running opportunistic
       containers — that is the elastic contract (§3.4) *)
    if (not (Broker.healthy r)) || (r.Broker.in_use && not lent) then None
    else begin
      let hw = r.Broker.server.Region.hw in
      if res.Reservation.rru_of hw <= 0.0 then None
      else begin
        let same_subtype = hw.Ras_topology.Hardware.index = failed_hw in
        Some
          ( (if same_subtype then 0 else 1),
            (if lent then 1 else 0),
            (if r.Broker.in_use then 1 else 0),
            r.Broker.server.Region.id )
      end
    end
  in
  let best = ref None in
  Broker.iter broker ~f:(fun r ->
      let id = r.Broker.server.Region.id in
      let scored =
        match r.Broker.current with
        | Broker.Shared_buffer -> candidate_score r ~lent:false
        | Broker.Elastic _ when Online_mover.home_of mover id = Some Broker.Shared_buffer ->
          candidate_score r ~lent:true
        | Broker.Free | Broker.Reservation _ | Broker.Elastic _ -> None
      in
      match scored with
      | Some score -> (
        match !best with
        | Some (s, _) when s <= score -> ()
        | _ -> best := Some (score, id))
      | None -> ());
  Option.map snd !best

(* The full-scan emergency grant: ascending server id, free pool first,
   then (with [allow_buffer]) the shared buffer.  It iterates every server
   per source even after the request is covered. *)
let grant_reference broker ~reservation ~rru ~allow_buffer : Emergency.grant =
  let owner = Broker.Reservation reservation.Reservation.id in
  let granted = ref 0.0 and servers = ref [] and from_buffer = ref 0 and visited = ref 0 in
  let try_take ~source =
    Broker.iter broker ~f:(fun r ->
        incr visited;
        if !granted < rru && r.Broker.current = source && Broker.healthy r && not r.Broker.in_use
        then begin
          let v = reservation.Reservation.rru_of r.Broker.server.Region.hw in
          if v > 0.0 then begin
            let id = r.Broker.server.Region.id in
            Broker.move broker id owner;
            Broker.set_target broker id owner;
            granted := !granted +. v;
            servers := id :: !servers;
            if source = Broker.Shared_buffer then incr from_buffer
          end
        end)
  in
  try_take ~source:Broker.Free;
  if !granted < rru && allow_buffer then try_take ~source:Broker.Shared_buffer;
  {
    Emergency.requested_rru = rru;
    granted_rru = !granted;
    servers = List.rev !servers;
    took_from_buffer = !from_buffer;
    visited = !visited;
  }
