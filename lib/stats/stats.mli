(** Aggregation and reporting helpers for the experiment harness. *)

(** {1 Summaries} *)

type summary = {
  n : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  stddev : float;
      (** {e Population} standard deviation (divisor [n], not [n-1]):
          the experiment harness reports on the full set of runs it
          performed, not a sample of a larger population.  With [n = 1]
          this is [0.], never nan. *)
}

val summarize : float list -> summary
(** Values are ordered with [Float.compare], so nans sort first and
    would surface in [min]/percentiles rather than corrupting the
    order.
    @raise Invalid_argument on the empty list. *)

val summarize_ints : int list -> summary

val percentile : float array -> float -> float
(** [percentile sorted q] with [q ∈ [0,1]]; nearest-rank on a sorted
    array. *)

(** {1 Fits} *)

val linear_fit : (float * float) list -> float * float
(** Least-squares [(slope, intercept)].
    @raise Invalid_argument with fewer than 2 points. *)

val growth_exponent : (float * float) list -> float
(** Log–log slope: fits [y = c·x^a] and returns [a].  Points must have
    positive coordinates. *)

(** {1 Tables} *)

type table

val table : string list -> table
(** Create a table with the given column headers. *)

val add_row : table -> string list -> unit
(** @raise Invalid_argument on column-count mismatch. *)

val render : table -> string
(** Aligned, pipe-separated rows with a header rule. *)

val to_csv : table -> string
(** RFC-4180-ish CSV (quotes doubled, fields with commas/quotes/newlines
    quoted), header row first. *)

val print : table -> unit
(** [render] to stdout with a trailing newline. *)

(** {1 Bench results and gates} *)

module Bench = Bench
