module Broker = Ras_broker.Broker

type move = { server : int; from_ : Broker.owner; to_ : Broker.owner; was_in_use : bool }

type plan = { moves : move list }

let free_code = Broker.owner_code Broker.Free

(* One class's moves, prepended to [acc]; [quotas] are its [(owner, count)]
   pairs in [compare] order.  Owner k keeps its first [keep.(k)] members by
   id; the surplus — free members by id, then the rest by id — fills the
   missing quotas in order (pool positions below [bound.(k)] go to owner
   k), and what is left goes to [Free].  Only a free member can land back
   on its own owner, so the moves are counted from the owner histogram up
   front and the member walk stops at the last one. *)
let plan_class sym (cls : Symmetry.cls) quotas acc =
  let snapshot = sym.Symmetry.snapshot in
  let owners = Array.of_list (List.map fst quotas) in
  let codes = Array.map Broker.owner_code owners in
  let q = Array.length owners in
  let keep =
    Array.of_list
      (List.map (fun (o, want) -> Int.max 0 (Int.min want (Symmetry.current_count sym cls o))) quotas)
  in
  let bound = Array.of_list (List.mapi (fun k (_, want) -> Int.max 0 (want - keep.(k))) quotas) in
  for k = 1 to q - 1 do
    bound.(k) <- bound.(k) + bound.(k - 1)
  done;
  let total_missing = if q = 0 then 0 else bound.(q - 1) in
  let free = Symmetry.current_count sym cls Broker.Free in
  let kept = Array.fold_left ( + ) 0 keep in
  let left = ref (Array.length cls.Symmetry.members - kept - free + Int.min free total_missing) in
  let seen = Array.make q 0 and free_seen = ref 0 and other_seen = ref 0 in
  let acc = ref acc and i = ref 0 in
  while !left > 0 do
    let id = cls.Symmetry.members.(!i) in
    incr i;
    let c = Snapshot.current_code snapshot id in
    let k = ref 0 in
    while !k < q && codes.(!k) <> c do
      incr k
    done;
    if !k < q && seen.(!k) < keep.(!k) then seen.(!k) <- seen.(!k) + 1
    else begin
      let pos =
        if c = free_code then (incr free_seen; !free_seen - 1)
        else (incr other_seen; free + !other_seen - 1)
      in
      if c <> free_code || pos < total_missing then begin
        let k = ref 0 in
        while !k < q && pos >= bound.(!k) do
          incr k
        done;
        decr left;
        acc :=
          {
            server = id;
            from_ = Broker.owner_of_code c;
            to_ = (if !k < q then owners.(!k) else Broker.Free);
            was_in_use = Snapshot.in_use_at snapshot id;
          }
          :: !acc
      end
    end
  done;
  !acc

let plan (f : Formulation.t) (assignment : Formulation.assignment) =
  let sym = f.Formulation.symmetry in
  let moves =
    Array.fold_left
      (fun acc (cls : Symmetry.cls) ->
        let quotas =
          Array.fold_left
            (fun q i ->
              let count = assignment.(i) in
              if count > 0 then
                (Reservation.owner f.Formulation.pairs.(i).Formulation.res, count) :: q
              else q)
            [] f.Formulation.class_pairs.(cls.Symmetry.index)
        in
        plan_class sym cls (List.sort compare quotas) acc)
      [] sym.Symmetry.classes
  in
  { moves = List.sort (fun a b -> compare a.server b.server) moves }

let moves_in_use plan =
  List.fold_left (fun acc m -> if m.was_in_use then acc + 1 else acc) 0 plan.moves

let moves_unused plan =
  List.fold_left (fun acc m -> if m.was_in_use then acc else acc + 1) 0 plan.moves
