(** Server equivalence classes (paper §3.5.2, "Exploit symmetry").

    Servers that are identical under the model — same hardware subtype, same
    location scope, same in-use state — have identical coefficients in every
    constraint and objective, so one integer count variable per (class,
    reservation) replaces their individual binary assignment variables.

    Phase 1 groups at MSB scope (rack ignored), which is what makes
    region-scale problems tractable; phase 2 keys classes by rack for the
    reservations it refines.  A server's current owner is {e not} part of
    the key: the per-owner member counts give the movement baseline
    [N0_{c,r}] instead, which keeps the class count independent of the
    number of reservations. *)

type cls = {
  index : int;  (** dense index within the build *)
  msb : int;
  rack : int option;  (** [Some r] when built rack-level *)
  hw : int;  (** hardware catalog index *)
  in_use : bool;
  attr : int;  (** generic placement attribute (e.g. SSD wear bucket) *)
  members : int array;  (** server ids, ascending *)
}

type t = {
  classes : cls array;
  region : Ras_topology.Region.t;
  snapshot : Snapshot.t;
  owner_counts : (int, int) Hashtbl.t array;
      (** per class index: histogram of member current-owner codes
          ({!Ras_broker.Broker.owner_code}), making {!current_count} O(1) *)
}

val build : ?rack_level:bool -> ?owners:Ras_broker.Broker.owner list -> Snapshot.t -> t
(** Classes over the snapshot's usable servers, MSB-level by default.
    [?owners] keeps only the servers whose snapshot owner is in the list
    (default: every owner); membership is tested on owner codes.  Streams
    over the snapshot columns: per-server work is O(1) (O(|owners|) with a
    filter) and nothing per-server is materialized.  The test suite keeps a
    list-grouping oracle that this must match class-for-class,
    member-for-member. *)

val class_name : cls -> string
(** Stable textual identity of the class, built from every grouping-key
    field and none of the dense index (e.g. ["m3k2h5u1a0"]).  Two builds
    over different snapshots give the same name to the same logical class,
    which is what keeps model variable/row names — and therefore the
    cross-round {!Ras_mip.Incremental} diffs — stable under churn. *)

val size : cls -> int

val hw_of : cls -> Ras_topology.Hardware.t

val current_count : t -> cls -> Ras_broker.Broker.owner -> int
(** [N0]: how many members are currently owned by the given owner. *)

val num_classes : t -> int

val total_members : t -> int

val raw_variable_count : t -> reservations:Reservation.t list -> int
(** Assignment variables a per-server formulation would need (|usable
    servers| x |acceptable reservations|) — the paper's Fig. 10/11 x-axis. *)

val grouped_variable_count : t -> reservations:Reservation.t list -> int
(** Assignment variables after symmetry grouping. *)
