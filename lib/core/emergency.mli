(** The out-of-band emergency path (paper §5.4, "capacity-request delays").

    When capacity is needed for an urgent outage, waiting up to an hour for
    the Async Solver is not acceptable; RAS allows writing server
    assignments directly to the Resource Broker without obeying all
    placement guarantees.  The next solve then repairs whatever those direct
    writes broke.

    The grant policy is deliberately simple (free pool first, then the
    shared buffer): quality comes later, from the solver.  What must {e not}
    be simple is the cost: a grant is an event-path operation, so scanning
    every server per grant is a bug at region scale.  {!grant} picks
    servers from a tier-1 {!Reactive} index in O(affected classes), guided
    by the last solve's dual prices. *)

type grant = Reactive.grant = {
  requested_rru : float;
  granted_rru : float;
  servers : int list;
  took_from_buffer : int;  (** servers pulled from the shared buffer *)
  visited : int;  (** candidate servers examined: O(grant size) *)
}

val grant :
  reactive:Reactive.t ->
  Ras_broker.Broker.t ->
  reservation:Reservation.t ->
  rru:float ->
  allow_buffer:bool ->
  grant
(** Bind healthy acceptable servers directly to the reservation (current and
    target both updated) until [rru] is covered or supply runs out.  With
    [allow_buffer] the shared random-failure buffer may be drained —
    dangerous, and exactly the "dipping into buffers" §5.3 warns about, so
    callers must opt in.

    Delegates to {!Reactive.grant}: free pool first, then the buffer,
    cheapest-priced (msb, hw) buckets first.  Raises [Invalid_argument]
    when [reactive] is bound to a broker other than [broker]. *)
