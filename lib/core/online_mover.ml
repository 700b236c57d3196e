module Broker = Ras_broker.Broker
module Region = Ras_topology.Region
module Hw = Ras_topology.Hardware
module Engine = Ras_sim.Engine
module Unavail = Ras_failures.Unavail

type apply_stats = {
  moved_in_use : int;
  moved_unused : int;
  skipped_unavailable : int;
  conflicts : int;
}

type t = {
  broker : Broker.t;
  engine : Engine.t option;
  reactive : Reactive.t;
  mutable reservations : Reservation.t list;
  loans : (int, Broker.owner) Hashtbl.t;  (* lent server -> home owner *)
  mutable preempt : int -> unit;
  mutable replacements_done : int;
  mutable replacements_failed : int;
}

let set_reservations t reservations = t.reservations <- reservations

let on_preempt t f = t.preempt <- f

let home_of t id = Hashtbl.find_opt t.loans id

let reactive t = t.reactive

let reservation_of t id =
  List.find_opt (fun r -> r.Reservation.id = id && not (Reservation.is_buffer r)) t.reservations

(* Move one server, preempting its containers when in use and clearing any
   loan bookkeeping. *)
let do_move t id owner =
  if Broker.current_code t.broker id <> Broker.owner_code owner then begin
    if Broker.in_use_at t.broker id then t.preempt id;
    Hashtbl.remove t.loans id;
    Broker.move t.broker id owner
  end

(* Best revocable loan whose home is the shared buffer: O(outstanding
   loans), the elastic fallback of the replacement search.  Scored with the
   legacy tuple so preference classes match the reference exactly. *)
let best_lent_candidate t res ~failed_hw =
  let region = Broker.region t.broker in
  let best = ref None in
  Hashtbl.iter
    (fun id home ->
      if home = Broker.Shared_buffer && Broker.healthy_at t.broker id then begin
        match Broker.current_owner t.broker id with
        | Broker.Elastic _ ->
          let hw = region.Region.servers.(id).Region.hw in
          if res.Reservation.rru_of hw > 0.0 then begin
            let score =
              ( (if hw.Hw.index = failed_hw then 0 else 1),
                1,
                (if Broker.in_use_at t.broker id then 1 else 0),
                id )
            in
            match !best with
            | Some (s, _) when s <= score -> ()
            | _ -> best := Some (score, id)
          end
        | Broker.Free | Broker.Reservation _ | Broker.Shared_buffer -> ()
      end)
    t.loans;
  !best

(* Tier-1 replacement: the reactive index answers the shared-buffer side in
   O(classes); the elastic fallback stays O(loans).  The two candidates are
   compared with the legacy tuple, so the preference class (same subtype
   first, buffer before loans, idle before in-use) is identical to the
   full-scan reference — only the tie-break inside a class differs (dual
   price instead of lowest id). *)
let find_replacement t res ~failed_hw =
  let region = Broker.region t.broker in
  let from_buffer =
    match Reactive.find_replacement t.reactive res ~failed_hw with
    | None -> None
    | Some id ->
      let hwi = region.Region.servers.(id).Region.hw.Hw.index in
      Some (((if hwi = failed_hw then 0 else 1), 0, 0, id), id)
  in
  match (from_buffer, best_lent_candidate t res ~failed_hw) with
  | Some (s1, id1), Some (s2, id2) -> Some (if s1 <= s2 then id1 else id2)
  | Some (_, id), None | None, Some (_, id) -> Some id
  | None, None -> None

let replace_failed t id =
  match Broker.current_owner t.broker id with
  | Broker.Reservation rid -> (
    match reservation_of t rid with
    | None -> ()
    | Some res -> (
      let failed_hw = (Broker.region t.broker).Region.servers.(id).Region.hw.Hw.index in
      match find_replacement t res ~failed_hw with
      | Some replacement ->
        do_move t replacement (Broker.Reservation rid);
        Broker.set_target t.broker replacement (Broker.Reservation rid);
        (* swap semantics: the dead server leaves the reservation for the
           shared buffer, so the reservation's capacity accounting sees one
           replacement — not the replacement plus a dead member that would
           double-count the moment the server heals *)
        do_move t id Broker.Shared_buffer;
        Broker.set_target t.broker id Broker.Shared_buffer;
        t.replacements_done <- t.replacements_done + 1
      | None -> t.replacements_failed <- t.replacements_failed + 1))
  | Broker.Free | Broker.Shared_buffer | Broker.Elastic _ -> ()

let create ?engine ?reactive broker =
  let reactive =
    match reactive with
    | Some ri when Reactive.broker ri != broker ->
      invalid_arg "Online_mover.create: reactive index is bound to a different broker"
    | Some ri -> ri
    | None -> Reactive.create broker
  in
  let t =
    {
      broker;
      engine;
      reactive;
      reservations = [];
      loans = Hashtbl.create 256;
      preempt = (fun _ -> ());
      replacements_done = 0;
      replacements_failed = 0;
    }
  in
  let on_event = function
    (* random failures only: planned maintenance and correlated failures are
       absorbed by capacity already inside the reservations (§3.3.1) *)
    | Broker.Went_down (id, (Unavail.Unplanned_sw | Unavail.Unplanned_hw as kind)) -> (
      ignore kind;
      (* replacement within one minute (§3.3.1) *)
      match t.engine with
      | Some engine ->
        Engine.schedule engine
          ~at:(Engine.now engine +. (1.0 /. 60.0))
          (fun _ -> if not (Broker.healthy_at t.broker id) then replace_failed t id)
      | None -> replace_failed t id)
    | Broker.Went_down _ | Broker.Came_up _ -> ()
  in
  Broker.subscribe broker on_event;
  t

(* The owner a plan's move expects: the home owner of a lent server (what
   [Snapshot.take ~home_of] recorded), the current owner otherwise. *)
let planned_owner_code t id =
  match home_of t id with
  | Some home -> Broker.owner_code home
  | None -> Broker.current_code t.broker id

let apply_plan t (plan : Concretize.plan) =
  let moved_in_use = ref 0 and moved_unused = ref 0 and skipped = ref 0 and conflicts = ref 0 in
  List.iter
    (fun (m : Concretize.move) ->
      let id = m.Concretize.server in
      if planned_owner_code t id <> Broker.owner_code m.Concretize.from_ then incr conflicts
      else begin
        Broker.set_target t.broker id m.Concretize.to_;
        if not (Broker.available_at t.broker id) then incr skipped
        else begin
          if Broker.in_use_at t.broker id then incr moved_in_use else incr moved_unused;
          do_move t id m.Concretize.to_
        end
      end)
    plan.Concretize.moves;
  {
    moved_in_use = !moved_in_use;
    moved_unused = !moved_unused;
    skipped_unavailable = !skipped;
    conflicts = !conflicts;
  }

let lend_idle t ~elastic_id ~max_servers =
  if max_servers <= 0 then 0
  else begin
    (* tier-1 donor pick: drain the cheapest buffer buckets, O(classes +
       servers lent) *)
    let ids = Reactive.take_idle_buffer t.reactive ~max_servers in
    List.iter
      (fun id ->
        Hashtbl.replace t.loans id Broker.Shared_buffer;
        Broker.move t.broker id (Broker.Elastic elastic_id))
      ids;
    List.length ids
  end

let revoke t ~elastic_id =
  (* O(outstanding loans): the loan table is the authoritative set of lent
     servers, so revocation never needs a broker scan *)
  let to_revoke =
    Hashtbl.fold
      (fun id _home acc ->
        if Broker.current_owner t.broker id = Broker.Elastic elastic_id then id :: acc
        else acc)
      t.loans []
    |> List.sort compare
  in
  let revoked = ref 0 in
  List.iter
    (fun id ->
      match Hashtbl.find_opt t.loans id with
      | Some home ->
        if Broker.in_use_at t.broker id then t.preempt id;
        Hashtbl.remove t.loans id;
        Broker.move t.broker id home;
        incr revoked
      | None -> ())
    to_revoke;
  !revoked

let loans_outstanding t = Hashtbl.length t.loans

let replacements_done t = t.replacements_done

let replacements_failed t = t.replacements_failed
