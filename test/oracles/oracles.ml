(* The original O(servers) implementations, kept verbatim (modulo reading
   loans through the public [Online_mover.home_of] and owners through
   [Reservation.owner]) as differential oracles: two tier-1 policies for
   the reactive production paths, and the per-server concretizer for the
   delta one.  They materialize per-server records, lists or tables on
   every call; they live with the tests because nothing in the program may
   scan the region on the event path or per solve. *)

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

(* The list-and-table concretizer: a target for every classed server,
   moves where the target differs from the snapshot owner.  Both lists
   ascend by server id. *)
let concretize_reference (f : Formulation.t) (assignment : Formulation.assignment) =
  let snapshot = f.Formulation.symmetry.Symmetry.snapshot in
  let current id = Snapshot.current snapshot id in
  (* per class: quotas per owner *)
  let quotas_of_class : (int, (Broker.owner * int) list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (cls, res, count) ->
      let owner = Reservation.owner res in
      let q =
        match Hashtbl.find_opt quotas_of_class cls.Symmetry.index with
        | Some q -> q
        | None ->
          let q = ref [] in
          Hashtbl.replace quotas_of_class cls.Symmetry.index q;
          q
      in
      q := (owner, count) :: !q)
    assignment.Formulation.counts;
  let moves = ref [] and targets = ref [] in
  Array.iter
    (fun (cls : Symmetry.cls) ->
      let quotas =
        match Hashtbl.find_opt quotas_of_class cls.Symmetry.index with
        | Some q -> List.sort compare !q
        | None -> []
      in
      let members = Array.to_list cls.Symmetry.members in
      (* stability first: fill each owner's quota with servers it already has *)
      let kept : (int, Broker.owner) Hashtbl.t = Hashtbl.create 16 in
      let remaining_quota = ref [] in
      List.iter
        (fun (owner, want) ->
          let have = List.filter (fun id -> current id = owner) members in
          let keep, _ =
            List.fold_left
              (fun (acc, k) id -> if k < want then (id :: acc, k + 1) else (acc, k))
              ([], 0) have
          in
          List.iter (fun id -> Hashtbl.replace kept id owner) keep;
          let missing = want - List.length keep in
          if missing > 0 then remaining_quota := (owner, missing) :: !remaining_quota)
        quotas;
      (* surplus pool: members not kept anywhere; free servers first, then by id *)
      let surplus = List.filter (fun id -> not (Hashtbl.mem kept id)) members in
      let free_first =
        List.stable_sort
          (fun a b ->
            let fa = current a = Broker.Free and fb = current b = Broker.Free in
            if fa = fb then compare a b else if fa then -1 else 1)
          surplus
      in
      let pool = ref free_first in
      List.iter
        (fun (owner, missing) ->
          let taken = ref 0 in
          let rest = ref [] in
          List.iter
            (fun id ->
              if !taken < missing then begin
                Hashtbl.replace kept id owner;
                incr taken
              end
              else rest := id :: !rest)
            !pool;
          pool := List.rev !rest)
        (List.sort compare !remaining_quota);
      (* whatever is left returns to the free pool *)
      List.iter (fun id -> if not (Hashtbl.mem kept id) then Hashtbl.replace kept id Broker.Free) members;
      List.iter
        (fun id ->
          let target = Hashtbl.find kept id in
          targets := (id, target) :: !targets;
          if target <> current id then
            moves :=
              {
                Concretize.server = id;
                from_ = current id;
                to_ = target;
                was_in_use = Snapshot.in_use_at snapshot id;
              }
              :: !moves)
        members)
    f.Formulation.symmetry.Symmetry.classes;
  ( List.sort (fun a b -> compare a.Concretize.server b.Concretize.server) !moves,
    List.sort compare !targets )

(* The owner a plan leaves a server with: its snapshot owner, overridden by
   the plan's move when it has one. *)
let plan_target (snapshot : Snapshot.t) (plan : Concretize.plan) =
  let moved = Hashtbl.create 64 in
  List.iter
    (fun (m : Concretize.move) -> Hashtbl.replace moved m.Concretize.server m.Concretize.to_)
    plan.Concretize.moves;
  fun id ->
    match Hashtbl.find_opt moved id with Some o -> o | None -> Snapshot.current snapshot id
