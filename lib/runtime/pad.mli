(** Cache-line discipline for hot atomic words.

    [Atomic.make] allocates a two-word block (header + value).  OCaml 5
    promotes such blocks into a size-segregated major-heap pool, so up
    to four unrelated atomics end up on one 64-byte line whatever was
    allocated between them, and contended updates to {e different}
    words ping-pong the same line between cores (false sharing).
    Spacer blocks do not help: promotion separates a cell from its
    spacer.

    This module instead makes every cell a single block of
    {!line_words} fields whose field 0 holds the value, the layout
    OCaml >= 5.2's [Atomic.make_contended] builds.  Two cells' values
    are then at least 72 bytes apart wherever the GC moves them.  On
    OCaml 5.1 the block is built with one [Obj.magic] over an [int]
    array (see {!make}); that is the only [Obj] use in the library and
    becomes [Atomic.make_contended] once the toolchain reaches 5.2.

    A cell costs [line_words + 1] words instead of 2: use it for small,
    hot arrays (per-name holder counters, per-worker cycle counters,
    per-shard list heads), not for O(S) bookkeeping tables. *)

type t
(** A padded array of [int Atomic.t] cells. *)

val make : int -> int Atomic.t
(** [make v] — one atomic cell initialised to [v], built as a block of
    {!line_words} fields, so its value is at least 72 bytes from the
    value of any other cell made here.  Use it wherever a lone
    contended atomic would otherwise share a line with a neighbour. *)

val create : int -> int -> t
(** [create n v] — [n] cells built by {!make}, no two on one cache
    line.
    @raise Invalid_argument when [n < 0]. *)

val cells : t -> int Atomic.t array
(** The cells themselves, for hot-loop indexing.  Element [i] is the
    same cell every call. *)

val get : t -> int -> int
val length : t -> int

val line_words : int
(** Fields in one cell's block (one 64-byte line on 64-bit). *)
