(** The Online Mover (Fig. 6): executes solver plans, provides replacement
    servers within a minute of unplanned failures, and runs the two
    efficiency optimizations of §3.2 — shared buffers and opportunistic
    (elastic) capacity.

    Elastic lending (§3.4) is an overlay: a lent server's broker owner
    becomes [Elastic id] while the mover remembers its {e home} owner; the
    Async Solver sees lent servers at their home owner (via {!home_of}), so
    loans never perturb the optimization.  Whenever failure handling needs
    buffer capacity, loans are revoked. *)

type t

type apply_stats = {
  moved_in_use : int;  (** moves that preempted running containers *)
  moved_unused : int;
  skipped_unavailable : int;  (** planned moves whose server was down *)
  conflicts : int;
      (** planned moves whose server changed owner since the snapshot (a
          tier-1 grant or replacement); neither target nor owner written *)
}

val create : ?engine:Ras_sim.Engine.t -> ?reactive:Reactive.t -> Ras_broker.Broker.t -> t
(** Subscribes to broker unavailability events.  With an engine, failure
    replacements are scheduled one simulated minute after the failure (the
    paper's replacement SLO); without one they happen synchronously.

    Replacement search and elastic-lending donor selection run against a
    tier-1 {!Reactive} index — incrementally maintained availability pools
    answering in O(affected classes), never a broker scan.  [?reactive]
    shares an existing index over the same broker (raises
    [Invalid_argument] when it is bound to another broker); without it the
    mover builds its own. *)

val reactive : t -> Reactive.t
(** The tier-1 index the mover repairs through (shared or its own). *)

val find_replacement : t -> Reservation.t -> failed_hw:int -> int option
(** The replacement a failure of hardware-subtype [failed_hw] inside the
    reservation would pick right now (no state change): a healthy
    shared-buffer server — same subtype preferred — or, failing that, a
    revocable elastic loan whose home is the shared buffer.  The preference
    classes (same subtype > other subtype, buffer > loan, idle > in-use)
    match the full-scan reference the tests keep as an oracle; within a
    class the pick goes by dual price where the scan picks the lowest id. *)

val set_reservations : t -> Reservation.t list -> unit
(** The mover needs reservation specs to pick acceptable replacements. *)

val on_preempt : t -> (int -> unit) -> unit
(** Called with the server id before an in-use server changes owner; the
    container allocator uses this to evict and re-queue containers. *)

val apply_plan : t -> Concretize.plan -> apply_stats
(** Execute the binding intent in O(moves), compare-and-set: a move applies
    only while the server's owner still equals its [from_] (for a lent
    server, its home owner, as {!home_of} reports it).  A server bound
    elsewhere since the snapshot keeps its owner and target and is counted
    in [conflicts].  An applied move records its [to_] as the server's
    target, then moves the server if it is available.  An unavailable one
    keeps its owner (counted in [skipped_unavailable]) and is picked up by a
    later solve once it returns.  Servers the plan does not name keep their
    recorded target. *)

val home_of : t -> int -> Ras_broker.Broker.owner option
(** Lending overlay for {!Snapshot.take}. *)

val lend_idle : t -> elastic_id:int -> max_servers:int -> int
(** Lend healthy, idle shared-buffer servers to an elastic reservation;
    returns how many were lent. *)

val revoke : t -> elastic_id:int -> int
(** Return every loan of the elastic reservation to its home owner. *)

val loans_outstanding : t -> int

val replacements_done : t -> int
(** Successful shared-buffer replacements since creation. *)

val replacements_failed : t -> int
(** Failures for which no acceptable buffer server (even after revoking
    loans) was available — §5.4's "random failures exceeding planned
    limits". *)
