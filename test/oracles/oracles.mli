(** Full-scan reference implementations of the tier-1 policies, kept as
    differential oracles for {!Ras.Online_mover.find_replacement} and
    {!Ras.Emergency.grant}.  Built only from the public API; O(servers)
    per call by design. *)

val find_replacement_reference :
  Ras_broker.Broker.t -> Ras.Online_mover.t -> Ras.Reservation.t -> failed_hw:int -> int option
(** The replacement a failure of hardware subtype [failed_hw] inside the
    reservation would pick (no state change): healthy shared-buffer servers
    and revocable loans homed in the buffer (via
    {!Ras.Online_mover.home_of}), ranked same subtype > other subtype,
    buffer > loan, idle > in-use, then lowest id. *)

val grant_reference :
  Ras_broker.Broker.t ->
  reservation:Ras.Reservation.t ->
  rru:float ->
  allow_buffer:bool ->
  Ras.Emergency.grant
(** The full-scan emergency grant: binds servers in ascending id, free
    pool first, then the shared buffer when [allow_buffer]; [visited]
    counts every server of every scanned source. *)
