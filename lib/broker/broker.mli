(** Resource Broker: the authoritative store of server state (paper §3.1-2).

    For every server the broker keeps the fields of Fig. 6's "Solve Input"
    table: the {e current} owner (who holds the server now), the {e target}
    owner (the last binding intent written for the server: plans write it
    only for the servers they move, so [target <> current] marks a planned
    move not carried out yet), whether the server is lent out elastically,
    and its unavailability state.  The Twine
    allocator and the Online Mover subscribe to unavailability changes.

    The production broker is highly-available replicated storage; behaviour
    relevant to allocation is the data model and the subscription contract,
    which this in-memory version preserves.

    Internally the store is columnar — one int or byte column per field,
    indexed by server id — so a region-scale broker (10⁶ servers) costs a
    few flat arrays rather than a million heap records.  The [*_at] /
    [*_code] / {!current_owner} accessors are the only read path: they read
    the columns without allocating, and each raises [Invalid_argument] on an
    unknown server id. *)

type owner =
  | Free  (** region free pool *)
  | Reservation of int  (** bound to a guaranteed reservation *)
  | Shared_buffer  (** the shared random-failure buffer (§3.3.1) *)
  | Elastic of int  (** buffer capacity lent to an elastic reservation (§3.4) *)

type t

type event = Went_down of int * Ras_failures.Unavail.kind | Came_up of int

val create : Ras_topology.Region.t -> t
(** All servers start [Free], healthy, targets equal to current. *)

val region : t -> Ras_topology.Region.t

val num_servers : t -> int

(** {2 Column accessors}

    Reads never allocate; writes go through {!move}/{!set_target}/
    {!mark_down}/{!mark_up}/{!set_in_use}. *)

val owner_code : owner -> int
(** Injective encoding of {!owner} as an immediate int ([Free] = 0). *)

val owner_of_code : int -> owner
(** Inverse of {!owner_code}. *)

val current_code : t -> int -> int
(** [owner_code] of the server's current owner. *)

val target_code : t -> int -> int

val current_owner : t -> int -> owner

val in_use_at : t -> int -> bool
(** Has running containers (drives movement cost). *)

val available_at : t -> int -> bool
(** Healthy or under planned maintenance: planned events count as usable
    capacity for the solver (§3.5.1). *)

val healthy_at : t -> int -> bool
(** No active unavailability at all. *)

val subscribe : t -> (event -> unit) -> unit
(** Callbacks run synchronously on {!mark_down}/{!mark_up}, in subscription
    order. *)

val subscribe_changes : t -> (int -> unit) -> unit
(** Low-level column-change feed: the callback receives the server id on
    every effective mutation of its columns ({!move}, {!mark_down},
    {!mark_up}, {!set_in_use}, and once per adopted server on
    {!extend_region}).  No-op writes (same owner, same state) do not fire.
    On {!mark_down}/{!mark_up} change callbacks run {e before} the
    {!subscribe} event callbacks, so an index maintained through this feed
    (e.g. {!Ras.Reactive}'s availability pools) is already consistent when
    event handlers run.  Callbacks must not mutate the broker for the same
    id re-entrantly. *)

val set_target : t -> int -> owner -> unit
(** Record binding intent (solver output step 3 in Fig. 6).  Writers name
    single servers — a plan's moves, applied or skipped, and the servers a
    tier-1 path binds — so every other server keeps its target. *)

val move : t -> int -> owner -> unit
(** Change [current] ownership (the Online Mover's capacity-binding step).
    Moving a server across owners preempts its containers: [in_use] resets
    to false unless the owner is unchanged. *)

val mark_down : t -> int -> Ras_failures.Unavail.kind -> unit
(** Idempotent for the same kind; a more severe event may overwrite. *)

val mark_up : t -> int -> unit

val set_in_use : t -> int -> bool -> unit

val extend_region : t -> Ras_topology.Region.t -> unit
(** Adopt an extended region (see {!Ras_topology.Generator.extend}): new
    servers are added as [Free]; existing servers keep their state.  Raises
    [Invalid_argument] if the new region does not extend the old one. *)

val servers_with_owner : t -> owner -> int list

val count_owner : t -> owner -> int
