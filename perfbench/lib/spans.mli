(** Per-domain flat span arena, the benchmark's own tracer.

    A span is one timed call into a layer: its kind, start and stop
    (ns), the span open when it began (its parent), and the shared
    accesses it made.  Spans live in preallocated parallel int arrays;
    {!fold} turns the closed ones into per-kind statistics — self time
    being a span's duration minus the durations of its direct children
    — and empties the arena.  Single writer: one recorder per domain,
    installed with {!install} so that protocol wrappers deep inside a
    server call find it with {!current}. *)

type t

(** {1 Span kinds} *)

val acquire_cold : int
val acquire_warm : int
val acquire_refused : int
val release : int
val tend : int
val proto_get : int
val proto_release : int
val proto_reset : int

val kinds : int

(** {1 Recording} *)

val create : ?capacity:int -> unit -> t
(** A recorder holding up to [capacity] (default [65536]) spans
    between folds. *)

val disabled : t
(** A recorder that records nothing ({!open_} returns [-1]). *)

val install : t -> unit
(** Make [t] this domain's {!current} recorder. *)

val current : unit -> t
(** This domain's recorder ({!disabled} unless one was installed). *)

val open_ : t -> int -> int
(** [open_ t kind] starts a span nested in the innermost open one and
    returns its handle.
    @raise Failure when the arena is full. *)

val close : ?accesses:int -> t -> int -> unit
(** Stop the span; no-op on handle [-1].  Spans close innermost
    first; closing any other counts a {!nest_errors}. *)

val set_kind : t -> int -> int -> unit
(** Re-label a span (e.g. once an acquire's outcome is known). *)

val needs_fold : t -> bool
(** Past three quarters full — fold at the next top-level point. *)

val fold : t -> unit
(** Fold every recorded span into the statistics below and empty the
    arena.  Call only with no span open.
    @raise Invalid_argument if a span is still open. *)

(** {1 Statistics of folded spans} *)

val self : t -> int -> Samples.t
(** Self times of one kind. *)

val count : t -> int -> int
val duration_sum : t -> int -> int
val accesses_sum : t -> int -> int
val accesses_max : t -> int -> int

val child_sum : t -> parent:int -> child:int -> int
(** Total duration of [child]-kind spans directly inside
    [parent]-kind spans; [parent = kinds] stands for top level. *)

val nest_errors : t -> int
(** Spans closed out of order.  With none, every child lies inside its
    parent, and self times add up to the top-level spans' durations. *)

val merge : into:t -> t -> unit
(** Add [t]'s folded statistics into [into]. *)
