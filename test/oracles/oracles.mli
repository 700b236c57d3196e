(** Reference implementations kept as differential oracles: the
    tier-1 policies behind {!Ras.Online_mover.find_replacement} and
    {!Ras.Emergency.grant}, the list-grouping build behind
    {!Ras.Symmetry.build}, the per-server concretizer behind
    {!Ras.Concretize.plan}, and the table-keyed LP rounding and repair
    behind {!Ras.Formulation.round_lp} and {!Ras.Formulation.repair}.
    Built only from the public API; the scans are O(servers) per call by
    design. *)

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

val symmetry_reference :
  ?rack_level:bool -> ?owners:Ras_broker.Broker.owner list -> Ras.Snapshot.t -> Ras.Symmetry.t
(** The pre-streaming {!Ras.Symmetry.build}: usable servers (whose snapshot
    owner is in [owners], when given) grouped into id lists under a tuple
    key, classes in sorted key order, owner histograms counted by scanning
    members.  {!Ras.Symmetry.build} must agree with it class-for-class,
    member-for-member. *)

val concretize_reference :
  Ras.Formulation.t ->
  Ras.Formulation.assignment ->
  Ras.Concretize.move list * (int * Ras_broker.Broker.owner) list
(** [(moves, targets)]: a target owner for every server of every class —
    each owner's quota filled from the members it already holds, then the
    missing quotas in [(owner, count)] order from the surplus (free members
    first, then by id), the rest freed — and a move wherever the target
    differs from the snapshot owner.  Both lists ascend by server id.
    {!Ras.Concretize.plan} must return exactly these moves. *)

val plan_target : Ras.Snapshot.t -> Ras.Concretize.plan -> int -> Ras_broker.Broker.owner
(** [plan_target snapshot plan id]: the owner [plan] leaves server [id]
    with — its snapshot owner, overridden by the plan's move when it has
    one: the per-server view the tests read counts and movement from. *)

val round_lp_reference : Ras.Formulation.t -> float array -> float array
(** The largest-remainder rounding {!Ras.Formulation.round_lp} must equal
    bit for bit: pairs regrouped per class through a table, counts kept in
    a table keyed by (class index, reservation id). *)

val repair_reference : Ras.Formulation.t -> float array -> float array
(** The shed / top-up / donor repair plus the MSB-spread and
    datacenter-affinity local searches {!Ras.Formulation.repair} must equal
    bit for bit, written over per-call regroupings and tuple-keyed count
    tables. *)
