(** Log-bucketed histograms of non-negative integer measurements
    (shared-access costs, hold times, latencies in arbitrary units).

    Buckets are exact for values below 16 and log-spaced with 8
    sub-buckets per power of two beyond, so quantile estimates carry at
    most 12.5% relative error.  [min], [max] (and hence [p100]) are
    tracked exactly on the side: the paper's worst-case bounds are
    checked against the {e exact} maximum, never a bucket edge.

    Same single-writer-per-shard discipline as {!Counter}; [merge] is
    element-wise and exact. *)

type t

type snap = {
  count : int;
  sum : int;
  mean : float;
  min : int;  (** Exact; [0] when empty. *)
  p50 : int;  (** Bucket-edge estimate (≤ 12.5% high). *)
  p95 : int;
  p99 : int;
  p100 : int;  (** Exact maximum; [0] when empty. *)
  buckets : (int * int) list;
      (** Non-empty buckets as [(upper_edge, count)], ascending — the
          raw material for cumulative (Prometheus-style) exposition. *)
}

val create : unit -> t

val observe : t -> int -> unit
(** Negative values are clamped into the zero bucket. *)

val observe_ex : t -> int -> ex:int -> unit
(** {!observe}, additionally linking the landing bucket to exemplar
    [ex] (a journey id; [0] means none and leaves links untouched).
    The latest exemplar per bucket wins; an observation that sets or
    ties the exact maximum also becomes the p100 exemplar. *)

val exemplar : t -> int -> int option
(** The exemplar linked to the bucket that value would land in. *)

val max_exemplar : t -> int option
(** The exemplar explaining [p100] (the exact maximum), if any. *)

val count : t -> int
val snap : t -> snap
val percentile : t -> float -> int
(** Nearest-rank quantile estimate for [q ∈ (0, 1]]; the empty
    histogram yields [0].  The rank is taken over the bucket masses
    (not the [count] field), so a snapshot merged from {e live}
    many-writer shards mid-run still reports an honest quantile of
    the observation prefix it caught — it can never overshoot to
    [p100] on a torn [count] read.  After merging quiescent shards
    the result is exactly what a single histogram fed every
    observation would report. *)

val reset : t -> unit

val fill : t -> int -> count:int -> unit
(** [fill t v ~count] makes [t] hold exactly [count] observations of
    [v], replacing what it held — for publishers whose every
    observation is known to be [v] and who keep only the count.  Each
    field is assigned, never accumulated, so repeating it with the same
    arguments is idempotent. *)

val merge : into:t -> t -> unit

(** {1 Bucket geometry} — shared with {!Timeseries}, which reuses the
    same log-bucket scheme for its per-window deltas. *)

val nbuckets : int
val index : int -> int
(** Bucket index for a value (negatives clamp to bucket 0). *)

val upper_edge : int -> int
(** Largest value a bucket admits. *)
