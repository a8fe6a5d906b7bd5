(** Where bench results and baselines live, how a key is read back from
    them, and when a regression gate passes.

    A baseline is a one-line JSON file [<dir>/<id>_baseline.json]
    holding one recorded number under [key].  The gate fails closed: a
    missing, unreadable or non-finite baseline fails it, and so does a
    non-finite measurement. *)

val find_root : string -> string option
(** [find_root exe] is the checkout root for an executable at the
    absolute path [exe]: the parent of the nearest [_build] directory
    above it.  [None] for a relative path or one outside any [_build]. *)

val read_file : string -> string option
(** The whole file, or [None] if it cannot be opened. *)

val write_file : string -> string -> unit
(** [write_file path contents] creates or replaces [path]. *)

(** {1 Key scanner}

    Enough of JSON for flat result files and the trend log: the first
    ["key":] in the text, then the value after it.  No parser
    dependency. *)

val float_key : string -> string -> float option
(** [float_key s key] reads the number after the first ["key":] in
    [s], sign and exponent included.  [None] if the key is absent or
    its value is not a number ([null], a string, [nan]). *)

val string_key : string -> string -> string option
(** [string_key s key] reads the quoted string after the first
    ["key":] in [s] (no escape handling). *)

(** {1 Gate} *)

type direction =
  | At_most  (** pass when [measured <= factor * baseline] (costs, ratios) *)
  | At_least  (** pass when [measured >= factor * baseline] (throughputs) *)

val baseline_path : dir:string -> id:string -> string
(** [<dir>/<id>_baseline.json]. *)

val gate :
  ?cap:float ->
  rebaseline:bool ->
  dir:string ->
  id:string ->
  key:string ->
  direction ->
  factor:float ->
  float ->
  bool
(** [gate ~rebaseline ~dir ~id ~key direction ~factor measured] checks
    [measured] against [factor] times the [key] recorded in
    [baseline_path ~dir ~id], printing one verdict line to stdout.
    [cap] is an absolute bound the limit may not pass: the limit is
    [min cap (factor * baseline)] for [At_most] and the [max] for
    [At_least].  With [rebaseline] it instead records [measured] as the
    new baseline and passes.  A non-finite [measured] fails either way
    and is never recorded; a baseline without a finite [key] fails,
    naming the file and [--rebaseline]. *)
