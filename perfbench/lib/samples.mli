(** Exact latency samples.

    Every value is kept: values below {!dense_limit} ns as a per-ns
    count (a counting sort, so memory stays fixed however long the run
    is), larger ones raw.  Percentiles are therefore exact order
    statistics of the samples, never a bucket edge.  Single writer;
    merge per-domain recorders after the join. *)

type t

val dense_limit : int

val create : unit -> t
val add : t -> int -> unit
(** Record one value (negative values count as [0]). *)

val clear : t -> unit

val merge : into:t -> t -> unit
val count : t -> int
val sum : t -> int
val mean : t -> float
(** [0.] when empty. *)

val percentile : t -> float -> int
(** Nearest-rank percentile: the value at rank [ceil (q * count)]
    (rank 1 for [q = 0.]).  [0] when empty. *)

val tail : t -> (float * int * int) option
(** The highest of p50, p90, p99, p99.9, … p99.9999 with at least ten
    samples ranked above it, as [(q, value, samples_beyond)]; [None]
    when even the median has fewer than ten above it. *)
