(* The original O(servers) implementations, kept as differential oracles
   (reading server state through the broker and snapshot column accessors,
   loans through the public [Online_mover.home_of] and owners through
   [Reservation.owner]): two tier-1 policies for the reactive production
   paths, the list-grouping symmetry build for the streaming one, and the
   per-server concretizer for the delta one.  They scan the region or build
   per-server lists and tables on every call; they live with the tests
   because nothing in the program may scan the region on the event path or
   per solve.  The table-keyed LP rounding and repair at the end are the
   same kind of oracle for the pair-indexed formulation heuristics. *)

open Ras
module Broker = Ras_broker.Broker
module Region = Ras_topology.Region

(* The replacement a failure of subtype [failed_hw] inside [res] picks:
   the lowest-scored healthy shared-buffer server, or a revocable loan
   whose home is the shared buffer.  Score: same subtype first, buffer
   before loans, idle before in-use, lowest id. *)
let find_replacement_reference broker mover res ~failed_hw =
  let servers = (Broker.region broker).Region.servers in
  let candidate_score id ~lent =
    (* a lent server may be reclaimed even while running opportunistic
       containers — that is the elastic contract (§3.4) *)
    let in_use = Broker.in_use_at broker id in
    if (not (Broker.healthy_at broker id)) || (in_use && not lent) then None
    else begin
      let hw = servers.(id).Region.hw in
      if res.Reservation.rru_of hw <= 0.0 then None
      else begin
        let same_subtype = hw.Ras_topology.Hardware.index = failed_hw in
        Some
          ( (if same_subtype then 0 else 1),
            (if lent then 1 else 0),
            (if in_use then 1 else 0),
            id )
      end
    end
  in
  let best = ref None in
  for id = 0 to Broker.num_servers broker - 1 do
    let scored =
      match Broker.current_owner broker id with
      | Broker.Shared_buffer -> candidate_score id ~lent:false
      | Broker.Elastic _ when Online_mover.home_of mover id = Some Broker.Shared_buffer ->
        candidate_score id ~lent:true
      | Broker.Free | Broker.Reservation _ | Broker.Elastic _ -> None
    in
    match scored with
    | Some score -> (
      match !best with
      | Some (s, _) when s <= score -> ()
      | _ -> best := Some (score, id))
    | None -> ()
  done;
  Option.map snd !best

(* The full-scan emergency grant: ascending server id, free pool first,
   then (with [allow_buffer]) the shared buffer.  It iterates every server
   per source even after the request is covered. *)
let grant_reference broker ~reservation ~rru ~allow_buffer : Emergency.grant =
  let owner = Broker.Reservation reservation.Reservation.id in
  let granted = ref 0.0 and servers = ref [] and from_buffer = ref 0 and visited = ref 0 in
  let region = Broker.region broker in
  let try_take ~source =
    for id = 0 to Broker.num_servers broker - 1 do
      incr visited;
      if
        !granted < rru
        && Broker.current_owner broker id = source
        && Broker.healthy_at broker id
        && not (Broker.in_use_at broker id)
      then begin
        let v = reservation.Reservation.rru_of region.Region.servers.(id).Region.hw in
        if v > 0.0 then begin
          Broker.move broker id owner;
          Broker.set_target broker id owner;
          granted := !granted +. v;
          servers := id :: !servers;
          if source = Broker.Shared_buffer then incr from_buffer
        end
      end
    done
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

(* The pre-streaming symmetry build: member-id lists grouped under a
   (msb, rack, hardware, in-use, attribute) tuple key, classes in sorted key
   order, owner histograms counted by scanning each class's members. *)
let symmetry_reference ?(rack_level = false) ?owners (snapshot : Snapshot.t) =
  let keep id =
    match owners with
    | None -> true
    | Some owners -> List.mem (Snapshot.current snapshot id) owners
  in
  let groups = Hashtbl.create 256 in
  for id = 0 to Snapshot.num_servers snapshot - 1 do
    if Snapshot.usable_at snapshot id && keep id then begin
      let s = Snapshot.server snapshot id in
      let loc = s.Region.loc in
      let key =
        ( loc.Region.msb,
          (if rack_level then loc.Region.rack else -1),
          s.Region.hw.Ras_topology.Hardware.index,
          Snapshot.in_use_at snapshot id,
          Snapshot.attr_at snapshot id )
      in
      match Hashtbl.find_opt groups key with
      | Some members -> members := id :: !members
      | None -> Hashtbl.replace groups key (ref [ id ])
    end
  done;
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) groups []) in
  let classes =
    Array.of_list
      (List.mapi
         (fun index ((msb, rack, hw, in_use, attr) as key) ->
           {
             Symmetry.index;
             msb;
             rack = (if rack >= 0 then Some rack else None);
             hw;
             in_use;
             attr;
             members = Array.of_list (List.sort compare !(Hashtbl.find groups key));
           })
         keys)
  in
  let owner_counts =
    Array.map
      (fun (c : Symmetry.cls) ->
        let h = Hashtbl.create 8 in
        Array.iter
          (fun id ->
            let code = Snapshot.current_code snapshot id in
            Hashtbl.replace h code (1 + Option.value (Hashtbl.find_opt h code) ~default:0))
          c.Symmetry.members;
        h)
      classes
  in
  { Symmetry.classes; region = snapshot.Snapshot.region; snapshot; owner_counts }

(* The list-and-table concretizer: a target for every classed server,
   moves where the target differs from the snapshot owner.  Both lists
   ascend by server id. *)
let concretize_reference (f : Formulation.t) (assignment : Formulation.assignment) =
  let snapshot = f.Formulation.symmetry.Symmetry.snapshot in
  let current id = Snapshot.current snapshot id in
  (* per class: quotas per owner *)
  let quotas_of_class : (int, (Broker.owner * int) list ref) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun i count ->
      if count > 0 then begin
        let { Formulation.cls; res; _ } = f.Formulation.pairs.(i) in
        let owner = Reservation.owner res in
        let q =
          match Hashtbl.find_opt quotas_of_class cls.Symmetry.index with
          | Some q -> q
          | None ->
            let q = ref [] in
            Hashtbl.replace quotas_of_class cls.Symmetry.index q;
            q
        in
        q := (owner, count) :: !q
      end)
    assignment;
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

(* The tuple-keyed heuristics behind {!Formulation.round_lp} and
   {!Formulation.repair}, kept verbatim apart from reading the pairs out of
   the formulation's array: every pass regroups the pairs by class or
   reservation into a table and edits counts through a table keyed by
   (class index, reservation id). *)
module Heuristics_reference = struct
  open Formulation

  let pair_list t = Array.to_list t.pairs

  let encode_by t count_of = encode t (Array.map count_of t.pairs)

  (* Largest-remainder rounding of an LP-relaxation solution: per class, floor
     every count, then hand the class's remaining LP mass back to the pairs
     with the largest fractional parts.  Supply can only decrease, so the
     result is always feasible once auxiliaries are re-encoded. *)
  let round_lp t lp_solution =
    let by_class = Hashtbl.create 64 in
    List.iter
      (fun p ->
        let existing = try Hashtbl.find by_class p.cls.Symmetry.index with Not_found -> [] in
        Hashtbl.replace by_class p.cls.Symmetry.index (p :: existing))
      (pair_list t);
    let counts = Hashtbl.create 256 in
    Hashtbl.iter
      (fun _ ps ->
        let floors =
          List.map
            (fun p ->
              let x = Float.max 0.0 lp_solution.(p.var) in
              let fl = Float.floor (x +. 1e-9) in
              (p, int_of_float fl, x -. fl))
            ps
        in
        let total_lp = List.fold_left (fun acc p -> acc +. Float.max 0.0 lp_solution.(p.var)) 0.0 ps in
        let floor_sum = List.fold_left (fun acc (_, fl, _) -> acc + fl) 0 floors in
        let extra = int_of_float (Float.round total_lp) - floor_sum in
        let by_remainder =
          List.sort (fun (_, _, ra) (_, _, rb) -> compare rb ra) floors
        in
        List.iteri
          (fun i (p, fl, _) ->
            let c = if i < extra then fl + 1 else fl in
            Hashtbl.replace counts (p.cls.Symmetry.index, p.res.Reservation.id) c)
          by_remainder)
      by_class;
    encode_by t (fun p ->
        try Hashtbl.find counts (p.cls.Symmetry.index, p.res.Reservation.id) with Not_found -> 0)


  (* Spread local search: repeatedly move one server of the reservation out of
     its fullest MSB into an acceptable class with free supply in a less-loaded
     MSB, whenever that lowers the reservation's max-MSB capacity (expressions
     3/4/6 all improve).  Works on a counts table in place. *)
  let improve_spread t ~counts ~class_used =
    let region = t.symmetry.Symmetry.region in
    let num_msbs = region.Region.num_msbs in
    let pairs_of_res = Hashtbl.create 32 in
    List.iter
      (fun p ->
        let existing = try Hashtbl.find pairs_of_res p.res.Reservation.id with Not_found -> [] in
        Hashtbl.replace pairs_of_res p.res.Reservation.id (p :: existing))
      (pair_list t);
    let value p = p.res.Reservation.rru_of (Symmetry.hw_of p.cls) in
    let count_of p = !(Hashtbl.find counts (p.cls.Symmetry.index, p.res.Reservation.id)) in
    let set p delta =
      let r = Hashtbl.find counts (p.cls.Symmetry.index, p.res.Reservation.id) in
      r := !r + delta;
      class_used.(p.cls.Symmetry.index) <- class_used.(p.cls.Symmetry.index) + delta
    in
    List.iter
      (fun res ->
        if res.Reservation.embedded_buffer then begin
          let my_pairs = try Hashtbl.find pairs_of_res res.Reservation.id with Not_found -> [] in
          let msb_rru = Array.make num_msbs 0.0 in
          List.iter
            (fun p ->
              msb_rru.(p.cls.Symmetry.msb) <-
                msb_rru.(p.cls.Symmetry.msb) +. (value p *. float_of_int (count_of p)))
            my_pairs;
          let improved = ref true and guard = ref 0 in
          while !improved && !guard < 500 do
            improved := false;
            incr guard;
            (* fullest MSB *)
            let max_msb = ref 0 in
            for m = 1 to num_msbs - 1 do
              if msb_rru.(m) > msb_rru.(!max_msb) then max_msb := m
            done;
            if msb_rru.(!max_msb) > 0.0 then begin
              (* best single-server move out of it *)
              let best = ref None in
              List.iter
                (fun p_from ->
                  if p_from.cls.Symmetry.msb = !max_msb && count_of p_from > 0 then
                    List.iter
                      (fun p_to ->
                        if
                          p_to.cls.Symmetry.msb <> !max_msb
                          && class_used.(p_to.cls.Symmetry.index) < Symmetry.size p_to.cls
                        then begin
                          let new_src = msb_rru.(!max_msb) -. value p_from in
                          let new_dst = msb_rru.(p_to.cls.Symmetry.msb) +. value p_to in
                          (* the move must lower this reservation's max share
                             and must not shrink its total capacity *)
                          if
                            Float.max new_src new_dst < msb_rru.(!max_msb) -. 1e-9
                            && value p_to >= value p_from -. 1e-9
                          then begin
                            let headroom = msb_rru.(!max_msb) -. Float.max new_src new_dst in
                            (* idle servers move for a tenth of the cost of
                               in-use ones (expression 1), so prefer them *)
                            let key = ((if p_from.cls.Symmetry.in_use then 0 else 1), headroom) in
                            match !best with
                            | Some (k, _, _) when k >= key -> ()
                            | _ -> best := Some (key, p_from, p_to)
                          end
                        end)
                      my_pairs)
                my_pairs;
              match !best with
              | Some (_, p_from, p_to) ->
                set p_from (-1);
                set p_to 1;
                msb_rru.(p_from.cls.Symmetry.msb) <-
                  msb_rru.(p_from.cls.Symmetry.msb) -. value p_from;
                msb_rru.(p_to.cls.Symmetry.msb) <- msb_rru.(p_to.cls.Symmetry.msb) +. value p_to;
                improved := true
              | None -> ()
            end
          done
        end)
      t.reservations

  (* Affinity local search: for reservations with datacenter affinity, swap
     servers between datacenters (one dropped, one picked up from unassigned
     supply) until every declared datacenter's share is inside
     [(A - theta) C_r, (A + theta) C_r] or no swap helps. *)
  let improve_affinity t ~counts ~class_used =
    let region = t.symmetry.Symmetry.region in
    let dc_of cls = region.Region.msb_dc.(cls.Symmetry.msb) in
    let pairs_of_res = Hashtbl.create 32 in
    List.iter
      (fun p ->
        let existing = try Hashtbl.find pairs_of_res p.res.Reservation.id with Not_found -> [] in
        Hashtbl.replace pairs_of_res p.res.Reservation.id (p :: existing))
      (pair_list t);
    let value p = p.res.Reservation.rru_of (Symmetry.hw_of p.cls) in
    let count_of p = !(Hashtbl.find counts (p.cls.Symmetry.index, p.res.Reservation.id)) in
    let set p delta =
      let r = Hashtbl.find counts (p.cls.Symmetry.index, p.res.Reservation.id) in
      r := !r + delta;
      class_used.(p.cls.Symmetry.index) <- class_used.(p.cls.Symmetry.index) + delta
    in
    List.iter
      (fun res ->
        if res.Reservation.dc_affinity <> [] then begin
          let my_pairs = try Hashtbl.find pairs_of_res res.Reservation.id with Not_found -> [] in
          let cr = res.Reservation.capacity_rru in
          let theta = res.Reservation.affinity_tolerance in
          let dc_rru = Array.make region.Region.num_dcs 0.0 in
          List.iter
            (fun p -> dc_rru.(dc_of p.cls) <- dc_rru.(dc_of p.cls) +. (value p *. float_of_int (count_of p)))
            my_pairs;
          let declared = res.Reservation.dc_affinity in
          let lo d = match List.assoc_opt d declared with Some a -> (a -. theta) *. cr | None -> 0.0 in
          let hi d =
            match List.assoc_opt d declared with Some a -> (a +. theta) *. cr | None -> infinity
          in
          let violation () =
            Array.to_list dc_rru
            |> List.mapi (fun d v -> Float.max 0.0 (lo d -. v) +. Float.max 0.0 (v -. hi d))
            |> List.fold_left ( +. ) 0.0
          in
          let guard = ref 0 and progress = ref true in
          while violation () > 1e-6 && !progress && !guard < 500 do
            progress := false;
            incr guard;
            (* best swap: drop one server in dc_from, add one in dc_to *)
            let best = ref None in
            let before = violation () in
            List.iter
              (fun p_from ->
                if count_of p_from > 0 then
                  List.iter
                    (fun p_to ->
                      if
                        dc_of p_to.cls <> dc_of p_from.cls
                        && class_used.(p_to.cls.Symmetry.index) < Symmetry.size p_to.cls
                      then begin
                        let df = dc_of p_from.cls and dt = dc_of p_to.cls in
                        dc_rru.(df) <- dc_rru.(df) -. value p_from;
                        dc_rru.(dt) <- dc_rru.(dt) +. value p_to;
                        let after = violation () in
                        dc_rru.(df) <- dc_rru.(df) +. value p_from;
                        dc_rru.(dt) <- dc_rru.(dt) -. value p_to;
                        (* keep total capacity: only allow swaps that do not
                           shrink the reservation *)
                        if after < before -. 1e-9 && value p_to >= value p_from -. 1e-9 then begin
                          let key = ((if p_from.cls.Symmetry.in_use then 1 else 0), after) in
                          match !best with
                          | Some (k, _, _) when k <= key -> ()
                          | _ -> best := Some (key, p_from, p_to)
                        end
                      end)
                    my_pairs)
              my_pairs;
            match !best with
            | Some (_, p_from, p_to) ->
              set p_from (-1);
              set p_to 1;
              dc_rru.(dc_of p_from.cls) <- dc_rru.(dc_of p_from.cls) -. value p_from;
              dc_rru.(dc_of p_to.cls) <- dc_rru.(dc_of p_to.cls) +. value p_to;
              progress := true
            | None -> ()
          done
        end)
      t.reservations

  (* Greedy capacity repair: rounding can strand fractional mass of scarce
     hardware classes, leaving reservations short.  Walk every short
     reservation and top it up from (a) unassigned class supply, preferring
     under-loaded MSBs and the highest-value class, then (b) donors that would
     remain above their own requested capacity after giving a server up. *)
  let repair t solution =
    let nclasses = Array.length t.symmetry.Symmetry.classes in
    let num_msbs = t.symmetry.Symmetry.region.Region.num_msbs in
    let counts = Hashtbl.create 256 in
    let class_used = Array.make nclasses 0 in
    let res_total = Hashtbl.create 32 in
    List.iter
      (fun res -> Hashtbl.replace res_total res.Reservation.id (ref 0.0))
      t.reservations;
    List.iter
      (fun p ->
        let c = int_of_float (Float.round solution.(p.var)) in
        Hashtbl.replace counts (p.cls.Symmetry.index, p.res.Reservation.id) (ref c);
        class_used.(p.cls.Symmetry.index) <- class_used.(p.cls.Symmetry.index) + c;
        let v = p.res.Reservation.rru_of (Symmetry.hw_of p.cls) in
        let total = Hashtbl.find res_total p.res.Reservation.id in
        total := !total +. (v *. float_of_int c))
      (pair_list t);
    let value p = p.res.Reservation.rru_of (Symmetry.hw_of p.cls) in
    let count_of p = !(Hashtbl.find counts (p.cls.Symmetry.index, p.res.Reservation.id)) in
    let bump p delta =
      let r = Hashtbl.find counts (p.cls.Symmetry.index, p.res.Reservation.id) in
      r := !r + delta;
      class_used.(p.cls.Symmetry.index) <- class_used.(p.cls.Symmetry.index) + delta;
      let total = Hashtbl.find res_total p.res.Reservation.id in
      total := !total +. (value p *. float_of_int delta)
    in
    let pairs_of_res = Hashtbl.create 32 in
    List.iter
      (fun p ->
        let existing =
          try Hashtbl.find pairs_of_res p.res.Reservation.id with Not_found -> []
        in
        Hashtbl.replace pairs_of_res p.res.Reservation.id (p :: existing))
      (pair_list t);
    let pairs_of_class = Hashtbl.create 64 in
    List.iter
      (fun p ->
        let existing =
          try Hashtbl.find pairs_of_class p.cls.Symmetry.index with Not_found -> []
        in
        Hashtbl.replace pairs_of_class p.cls.Symmetry.index (p :: existing))
      (pair_list t);
    (* Shed over-assignment first: a stale cross-round seed can leave a class
       holding more servers than it has members (its membership shrank under
       churn).  Drop one server at a time — from the reservation with the
       most surplus over its own request, so the drop is least likely to
       create a shortfall — until every class fits; the top-up loop below
       then restores any capacity this sheds.  A no-op on supply-feasible
       inputs. *)
    for c = 0 to nclasses - 1 do
      let size = Symmetry.size t.symmetry.Symmetry.classes.(c) in
      let guard = ref 0 in
      while class_used.(c) > size && !guard < 10_000 do
        incr guard;
        let ps = try Hashtbl.find pairs_of_class c with Not_found -> [] in
        let best = ref None in
        List.iter
          (fun p ->
            if count_of p > 0 then begin
              let surplus =
                !(Hashtbl.find res_total p.res.Reservation.id) -. p.res.Reservation.capacity_rru
              in
              match !best with
              | Some (bs, _) when bs >= surplus -> ()
              | _ -> best := Some (surplus, p)
            end)
          ps;
        match !best with
        | Some (_, p) -> bump p (-1)
        | None -> guard := 10_000 (* unreachable: class_used > 0 implies a positive count *)
      done
    done;
    (* a donor must keep a safety margin over its own request so stealing never
       creates a new violation elsewhere *)
    let donor_floor res =
      if res.Reservation.embedded_buffer && num_msbs > 1 then
        res.Reservation.capacity_rru *. (1.0 +. (1.2 /. float_of_int (num_msbs - 1)))
      else res.Reservation.capacity_rru
    in
    List.iter
      (fun res ->
        let rid = res.Reservation.id in
        let my_pairs = try Hashtbl.find pairs_of_res rid with Not_found -> [] in
        let cr = res.Reservation.capacity_rru in
        let total = Hashtbl.find res_total rid in
        let msb_rru = Array.make num_msbs 0.0 in
        List.iter
          (fun p ->
            msb_rru.(p.cls.Symmetry.msb) <-
              msb_rru.(p.cls.Symmetry.msb) +. (value p *. float_of_int (count_of p)))
          my_pairs;
        let buffered = res.Reservation.embedded_buffer && num_msbs > 1 in
        (* expression (6): what the reservation keeps after losing its fullest
           MSB must cover the request; without an embedded buffer plain total
           suffices *)
        let surviving () =
          if buffered then !total -. Array.fold_left Float.max 0.0 msb_rru else !total
        in
        (* deficit reduction if one server of pair [p] were added *)
        let gain p =
          if not buffered then value p
          else begin
            let old_max = Array.fold_left Float.max 0.0 msb_rru in
            let new_max = Float.max old_max (msb_rru.(p.cls.Symmetry.msb) +. value p) in
            !total +. value p -. new_max -. surviving ()
          end
        in
        let guard = ref 0 in
        let progress = ref true in
        while surviving () < cr -. 1e-6 && !progress && !guard < 2000 do
          progress := false;
          incr guard;
          (* free supply: candidate with the best deficit reduction *)
          let best_free = ref None in
          List.iter
            (fun p ->
              if class_used.(p.cls.Symmetry.index) < Symmetry.size p.cls then begin
                let g = gain p in
                if g > 1e-9 then
                  match !best_free with
                  | Some (bg, _) when bg >= g -> ()
                  | _ -> best_free := Some (g, p)
              end)
            my_pairs;
          match !best_free with
          | Some (_, p) ->
            bump p 1;
            msb_rru.(p.cls.Symmetry.msb) <- msb_rru.(p.cls.Symmetry.msb) +. value p;
            progress := true
          | None ->
            (* donors: anyone who keeps its safety margin after giving one up *)
            let best_donor = ref None in
            List.iter
              (fun my_p ->
                let g = gain my_p in
                if g > 1e-9 then begin
                  let others =
                    try Hashtbl.find pairs_of_class my_p.cls.Symmetry.index with Not_found -> []
                  in
                  List.iter
                    (fun donor ->
                      if donor.res.Reservation.id <> rid && count_of donor > 0 then begin
                        let donor_total = !(Hashtbl.find res_total donor.res.Reservation.id) in
                        if donor_total -. value donor >= donor_floor donor.res -. 1e-6 then begin
                          (* stealing an idle server avoids a preemption *)
                          let key = ((if donor.cls.Symmetry.in_use then 0 else 1), g) in
                          match !best_donor with
                          | Some (bk, _, _) when bk >= key -> ()
                          | _ -> best_donor := Some (key, my_p, donor)
                        end
                      end)
                    others
                end)
              my_pairs;
            (match !best_donor with
            | Some (_, my_p, donor) ->
              bump donor (-1);
              bump my_p 1;
              msb_rru.(my_p.cls.Symmetry.msb) <- msb_rru.(my_p.cls.Symmetry.msb) +. value my_p;
              progress := true
            | None -> ())
        done)
      t.reservations;
    improve_spread t ~counts ~class_used;
    improve_affinity t ~counts ~class_used;
    encode_by t (fun p -> count_of p)
end

let round_lp_reference = Heuristics_reference.round_lp
let repair_reference = Heuristics_reference.repair
