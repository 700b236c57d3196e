(** Service catalog: workload profiles with hardware preferences and
    per-generation Relative Value (paper §2.3, Fig. 3).

    A service's Relative Value on a CPU generation captures how much
    throughput it gains from that generation relative to generation 1: Web
    gains 1.47x/1.82x on generations 2/3, DataStore is storage-bound and
    gains nothing, one Feed variant gains from one generation but not the
    next.  RAS turns these into the per-server RRU values [V_{s,r}] of the
    MIP (Table 1). *)

type profile =
  | Web
  | Feed1
  | Feed2
  | Data_store
  | Ml_training  (** GPU-bound, bandwidth-constrained to one datacenter *)
  | Presto_batch  (** batch SQL over data pinned in a datacenter (Fig. 15) *)
  | Presto_interactive
  | Cache
  | Video_encoding  (** prefers ASIC accelerators *)
  | Batch_async  (** elastic/opportunistic consumer (§3.4) *)
  | Generic

type t = {
  id : int;
  name : string;
  profile : profile;
  categories : Ras_topology.Hardware.category list;  (** acceptable hardware *)
  min_generation : int;  (** oldest CPU generation the service can run on *)
  max_generation : int;
      (** newest qualified generation — services "not yet ready to utilize
          the newest hardware" (Fig. 13, services 6 and 15) set this < 3 *)
  network_gb_per_rru : float;  (** traffic intensity, drives Fig. 15 *)
  data_locality : int option;  (** datacenter index holding the data *)
}

val relative_value : profile -> int -> float
(** [relative_value p gen] for [gen] in 1..3; Fig. 3's table, extended with
    plausible values for the profiles the figure aggregates as "Fleet Avg". *)

val acceptable : t -> Ras_topology.Hardware.t -> bool

val rru_of : t -> Ras_topology.Hardware.t -> float
(** [V_{s,r}]: the RRU value of a server of this hardware type for the
    service — 0 when the hardware is unacceptable.  Compute-bound profiles
    value cores scaled by Relative Value; storage profiles value flash
    capacity; ML values GPUs. *)

val make :
  id:int ->
  name:string ->
  profile:profile ->
  ?min_generation:int ->
  ?max_generation:int ->
  ?data_locality:int ->
  unit ->
  t
(** Builds a service with the profile's default hardware acceptability and
    network intensity. *)

val default_catalog : t list
(** Thirty services echoing Fig. 13's top-30: a few very large generation-
    sensitive services, storage and cache tiers, one ML service pinned to a
    datacenter, two Presto services, and a tail of generic services. *)
