(** Tier-1 reactive repair (ROADMAP "two-tiered online optimization";
    paper §3.3.1's "replacement within one minute" promise).

    Between tier-2 rounds of the Async Solver, events — server failures,
    urgent capacity grants, elastic revokes — must be answered immediately,
    and at region scale (10⁶ servers) answering them by scanning the broker
    is itself a bug: one full scan per event silently undoes the columnar
    refactor.  This module keeps an {e incrementally maintained} index of
    available capacity, bucketed by (MSB, hardware subtype) — the same
    scope as the phase-1 symmetry classes — and repairs the current
    assignment per event in O(classes), not O(servers):

    - the index subscribes to {!Ras_broker.Broker.subscribe_changes}, so
      every ownership / health / in-use mutation updates the affected
      bucket in O(1), no matter which code path performed it;
    - candidate buckets are scored with the dual prices the last tier-2
      solve already produced ({!Solver_state.price_table}): the repair
      takes equivalent servers from the scope tier-2 valued least, which is
      what keeps the next round's objective drift small;
    - picking a server out of a bucket is O(1).

    The legacy full-scan replacement search and grant live on as
    differential oracles in the test suite's [oracles] library. *)

type counters = {
  events : int;  (** tier-1 operations served (replacements + grants) *)
  visited_classes : int;  (** candidate buckets examined across events *)
  visited_servers : int;  (** candidate servers examined / taken *)
  index_updates : int;  (** broker change notifications absorbed *)
}

type grant = {
  requested_rru : float;
  granted_rru : float;
  servers : int list;
  took_from_buffer : int;
  visited : int;
      (** candidate servers examined while granting — the per-event cost
          the O(n)-scan regression tests pin *)
}

type t

val create : Ras_broker.Broker.t -> t
(** Builds the availability index in one pass over the broker columns and
    subscribes to its change feed; from then on the index tracks every
    mutation incrementally.  One instance per broker. *)

val broker : t -> Ras_broker.Broker.t

val set_prices : t -> Solver_state.price_table -> unit
(** Install the dual prices of the latest tier-2 solve
    ({!Async_solver.stats.price_table}, or a {!Solver_state.price_table}
    parsed from a {!Phases.result}'s duals).  Without
    prices every bucket scores 0 and repair falls back to deterministic
    (same-subtype first, lowest bucket) choice. *)

val prices : t -> Solver_state.price_table option

val num_buckets : t -> int
(** num_msbs x hardware-catalog size: the per-event visit bound. *)

val available_in_bucket : t -> source:[ `Free | `Buffer ] -> msb:int -> hw:int -> int
(** Current pool size of one bucket (test/oracle hook). *)

val find_replacement : t -> Reservation.t -> failed_hw:int -> int option
(** A healthy, idle shared-buffer server the reservation can use: same
    hardware subtype preferred, then cheapest dual price.  O(classes);
    does not move the server.  [None] when no buffer bucket has supply —
    callers may still fall back to revoking elastic loans (an O(loans)
    concern the Online Mover owns). *)

val take_idle_buffer : t -> max_servers:int -> int list
(** Up to [max_servers] healthy idle shared-buffer servers, cheapest
    buckets first (the elastic-lending donor pick).  Does not move them. *)

val grant : t -> reservation:Reservation.t -> rru:float -> allow_buffer:bool -> grant
(** The tier-1 urgent grant: binds servers (current and target) directly to
    the reservation until [rru] is covered, free pool first, then — only
    with [allow_buffer] — the shared buffer, draining cheapest-priced
    buckets first.  O(classes + servers granted). *)

val counters : t -> counters
(** Cumulative counters since creation or the last {!reset_counters}. *)

val reset_counters : t -> unit

val rebuild : t -> unit
(** Drop and rebuild the index from the broker columns (O(servers)).
    Happens automatically when the broker adopts an extended region; the
    oracle tests also use it to prove the incremental index never drifts
    from a fresh build. *)
