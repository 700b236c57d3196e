(** Random distributions used by the synthetic workload, topology and failure
    generators.  All samplers take an explicit {!Rng.t} stream. *)

val uniform : Rng.t -> lo:float -> hi:float -> float
(** Uniform in \[lo, hi). *)

val exponential : Rng.t -> rate:float -> float
(** Exponential with rate [rate] (mean [1 /. rate]).  Used for failure
    inter-arrival times.  Raises [Invalid_argument] if [rate <= 0]. *)

val normal : Rng.t -> mean:float -> stddev:float -> float
(** Gaussian via Box–Muller. *)

val lognormal : Rng.t -> mu:float -> sigma:float -> float
(** Log-normal: [exp (normal mu sigma)].  Capacity-request sizes in the paper
    (Fig. 4) span 1–30,000 units with a heavy upper tail, which a log-normal
    reproduces. *)

val zipf : Rng.t -> n:int -> s:float -> int
(** Zipf-like rank in \[1, n\] with exponent [s], sampled by inverse CDF over
    precomputed weights.  Used for service popularity. *)

val poisson : Rng.t -> mean:float -> int
(** Poisson counts (Knuth's method for small means, normal approximation for
    large ones). *)

val categorical : Rng.t -> float array -> int
(** [categorical rng weights] picks index [i] with probability proportional
    to [weights.(i)].  Raises [Invalid_argument] if all weights are zero or
    any is negative. *)
