(** Turn the solver's per-class counts back into concrete server moves.

    Within a class all members are interchangeable, so the mapping is free
    to prefer stability: members already owned by a reservation fill that
    reservation's quota first, and only the surplus moves.  Free servers are
    consumed before servers are taken away from other owners, and whatever
    no quota claims returns to the free pool.

    The result is the solver output of Fig. 6 step 3 as a delta: the
    servers whose owner changes.  Each class is decided from its symmetry
    owner histogram and reads its members only up to its last move, so a
    plan costs O(classes + moves), not O(servers). *)

type move = {
  server : int;
  from_ : Ras_broker.Broker.owner;
  to_ : Ras_broker.Broker.owner;
  was_in_use : bool;
}

type plan = {
  moves : move list;
      (** servers whose owner changes, ascending id; a server the plan does
          not name stays with its snapshot owner *)
}

val plan : Formulation.t -> Formulation.assignment -> plan

val moves_in_use : plan -> int

val moves_unused : plan -> int
