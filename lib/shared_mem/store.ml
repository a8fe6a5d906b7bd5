type ops = {
  pid : int;
  read : Cell.t -> int;
  write : Cell.t -> int -> unit;
  rmw : Cell.t -> (int -> int) -> int;
  probe : Obs.Probe.t;
}

type seq = int array

let seq_create layout = Layout.initial_values layout

let seq_ops mem ~pid =
  {
    pid;
    read = (fun c -> mem.(Cell.id c));
    write = (fun c v -> mem.(Cell.id c) <- v);
    rmw =
      (fun c f ->
        let v = mem.(Cell.id c) in
        mem.(Cell.id c) <- f v;
        v);
    probe = Obs.Probe.null;
  }

let seq_get mem c = mem.(Cell.id c)
let seq_set mem c v = mem.(Cell.id c) <- v

let group c =
  let n = Cell.name c in
  match String.index_opt n '[' with Some i -> String.sub n 0 i | None -> n

(* ----- the flat access arena -----

   A [tally] is the one access ledger.  Counts live in a flat int
   array indexed by [3 * Cell.id + kind] — Layout hands out dense ids
   from 0, so the hot path is one registered-check, one store into
   the arena and one bump of the running total.  Nothing touches the
   registry per access: group counters are materialized lazily, as
   deltas, when a snapshot runs (via [Registry.on_snapshot]) or on an
   explicit [tally_flush].  Single-writer, like every [lib/obs]
   shard. *)

type tally = {
  mutable slots : int array; (* 3 per cell id: reads / writes / rmws *)
  mutable flushed : int array; (* counts already pushed to the registry *)
  mutable cells : Cell.t option array; (* registered = Some *)
  mutable total : int; (* every access ever, never reset *)
  mutable mark : int; (* set by [tally_mark], read by [tally_since] *)
  mutable bound : Obs.Registry.shard option;
}

let tally () =
  { slots = [||]; flushed = [||]; cells = [||]; total = 0; mark = 0; bound = None }

let tally_register t cell =
  let id = Cell.id cell in
  if id >= Array.length t.cells then begin
    let n = max 64 (max (id + 1) (2 * Array.length t.cells)) in
    let cells = Array.make n None in
    Array.blit t.cells 0 cells 0 (Array.length t.cells);
    let slots = Array.make (3 * n) 0 in
    Array.blit t.slots 0 slots 0 (Array.length t.slots);
    let flushed = Array.make (3 * n) 0 in
    Array.blit t.flushed 0 flushed 0 (Array.length t.flushed);
    t.cells <- cells;
    t.slots <- slots;
    t.flushed <- flushed
  end;
  t.cells.(id) <- Some cell

let tally_total t = t.total
let tally_mark t = t.mark <- t.total
let tally_since t = t.total - t.mark

let kind_total = [| "store.reads"; "store.writes"; "store.rmws" |]
let kind_prefix = [| "store.reads."; "store.writes."; "store.rmws." |]

let tally_flush t =
  match t.bound with
  | None -> ()
  | Some sh ->
      for id = 0 to Array.length t.cells - 1 do
        match t.cells.(id) with
        | None -> ()
        | Some cell ->
            let g = group cell in
            for k = 0 to 2 do
              let i = (3 * id) + k in
              let d = t.slots.(i) - t.flushed.(i) in
              if d > 0 then begin
                Obs.Registry.count sh (kind_prefix.(k) ^ g) d;
                Obs.Registry.count sh kind_total.(k) d;
                t.flushed.(i) <- t.slots.(i)
              end
            done
      done

let observed_into t shard ops =
  (match t.bound with
  | None ->
      t.bound <- Some shard;
      (* the ungrouped totals exist from wrap time (as they always
         have), even if this ops set never runs — schema stability *)
      Array.iter (fun n -> Obs.Registry.count shard n 0) kind_total;
      Obs.Registry.on_snapshot shard (fun () -> tally_flush t)
  | Some s ->
      if not (s == shard) then
        invalid_arg "Store.observed_into: tally already bound to another shard");
  (* The hot path is written out in each closure (no helper calls —
     this compiler doesn't cross-inline) and uses unsafe indexing: the
     registered check establishes [id < length t.cells], and [t.slots]
     is always allocated at [3 x] the cell-array length, so every
     index below is in bounds. *)
  let read = ops.read
  and write = ops.write
  and rmw = ops.rmw in
  {
    pid = ops.pid;
    read =
      (fun cell ->
        let id = Cell.id cell in
        (if id < Array.length t.cells then begin
           match Array.unsafe_get t.cells id with
           | Some _ -> ()
           | None -> tally_register t cell
         end
         else tally_register t cell);
        t.total <- t.total + 1;
        let i = 3 * id in
        Array.unsafe_set t.slots i (Array.unsafe_get t.slots i + 1);
        read cell);
    write =
      (fun cell v ->
        let id = Cell.id cell in
        (if id < Array.length t.cells then begin
           match Array.unsafe_get t.cells id with
           | Some _ -> ()
           | None -> tally_register t cell
         end
         else tally_register t cell);
        t.total <- t.total + 1;
        let i = (3 * id) + 1 in
        Array.unsafe_set t.slots i (Array.unsafe_get t.slots i + 1);
        write cell v);
    rmw =
      (fun cell f ->
        let id = Cell.id cell in
        (if id < Array.length t.cells then begin
           match Array.unsafe_get t.cells id with
           | Some _ -> ()
           | None -> tally_register t cell
         end
         else tally_register t cell);
        t.total <- t.total + 1;
        let i = (3 * id) + 2 in
        Array.unsafe_set t.slots i (Array.unsafe_get t.slots i + 1);
        rmw cell f);
    probe = ops.probe;
  }

let tallying t ops =
  {
    pid = ops.pid;
    read =
      (fun cell ->
        t.total <- t.total + 1;
        ops.read cell);
    write =
      (fun cell v ->
        t.total <- t.total + 1;
        ops.write cell v);
    rmw =
      (fun cell f ->
        t.total <- t.total + 1;
        ops.rmw cell f);
    probe = ops.probe;
  }

(* The pre-tally names, kept as aliases for the perfbench/ harness,
   which runs unchanged against every commit it compares; everything
   else uses the tally names. *)
type counter = tally

let counter = tally
let counting = tallying
let reset = tally_mark
let accesses = tally_since
let probed p ops = { ops with probe = p }
