open Shared_mem

type op_state = {
  mutable op : string option;
  mutable start : int;
  mutable accesses : int;
  mutable notes : (string * int) list; (* reversed *)
}

type t = {
  shard : Obs.Registry.shard;
  procs : (int, op_state) Hashtbl.t;
  ops : (string, Obs.Registry.op) Hashtbl.t;
  cell_counters : (int, Obs.Counter.t * Obs.Counter.t * Obs.Counter.t) Hashtbl.t;
  total_reads : Obs.Counter.t;
  total_writes : Obs.Counter.t;
  total_rmws : Obs.Counter.t;
  mutable sched : Sched.t option;
}

let max_annotations = 32

let create shard =
  {
    shard;
    procs = Hashtbl.create 8;
    ops = Hashtbl.create 4;
    cell_counters = Hashtbl.create 16;
    total_reads = Obs.Registry.counter shard "store.reads";
    total_writes = Obs.Registry.counter shard "store.writes";
    total_rmws = Obs.Registry.counter shard "store.rmws";
    sched = None;
  }

let op_begin name = Sched.emit (Event.Note ("obs:" ^ name, 0))

let state t proc =
  match Hashtbl.find_opt t.procs proc with
  | Some st -> st
  | None ->
      let st = { op = None; start = 0; accesses = 0; notes = [] } in
      Hashtbl.add t.procs proc st;
      st

let counters_for t cell =
  match Hashtbl.find_opt t.cell_counters (Cell.id cell) with
  | Some cs -> cs
  | None ->
      let g = Store.group cell in
      let cs =
        ( Obs.Registry.counter t.shard ("store.reads." ^ g),
          Obs.Registry.counter t.shard ("store.writes." ^ g),
          Obs.Registry.counter t.shard ("store.rmws." ^ g) )
      in
      Hashtbl.add t.cell_counters (Cell.id cell) cs;
      cs

let now t = match t.sched with Some s -> Sched.total_steps s | None -> 0

let close_op t proc st =
  match st.op with
  | None -> ()
  | Some name ->
      let pid = match t.sched with Some s -> Sched.pid_of s proc | None -> proc in
      let op =
        match Hashtbl.find_opt t.ops name with
        | Some op -> op
        | None ->
            let op = Obs.Registry.op t.shard name in
            Hashtbl.add t.ops name op;
            op
      in
      Obs.Registry.record op ~pid ~start_step:st.start ~end_step:(now t)
        ~accesses:st.accesses ~annotations:(List.rev st.notes);
      st.op <- None;
      st.accesses <- 0;
      st.notes <- []

let annotate st key v =
  if st.op <> None && List.length st.notes < max_annotations then
    st.notes <- (key, v) :: st.notes

let on_event t sched proc ev =
  t.sched <- Some sched;
  let st = state t proc in
  match (ev : Event.t) with
  | Note (tag, _)
    when String.length tag > 4 && String.equal (String.sub tag 0 4) "obs:" ->
      close_op t proc st;
      st.op <- Some (String.sub tag 4 (String.length tag - 4));
      st.start <- Sched.total_steps sched
  | Acquired n ->
      annotate st "name" n;
      close_op t proc st;
      Obs.Gauge.incr (Obs.Registry.gauge t.shard "names.held");
      Obs.Gauge.incr (Obs.Registry.gauge t.shard ("names.held." ^ string_of_int n));
      Obs.Registry.inc t.shard "names.acquired"
  | Released n ->
      annotate st "released" n;
      Obs.Gauge.decr (Obs.Registry.gauge t.shard "names.held");
      Obs.Gauge.decr (Obs.Registry.gauge t.shard ("names.held." ^ string_of_int n));
      Obs.Registry.inc t.shard "names.released"
  | Note (tag, v) -> annotate st tag v

let on_access t sched proc access =
  t.sched <- Some sched;
  (match (access : Sched.access) with
  | Read (c, _) ->
      let r, _, _ = counters_for t c in
      Obs.Counter.incr r;
      Obs.Counter.incr t.total_reads
  | Write (c, _) ->
      let _, w, _ = counters_for t c in
      Obs.Counter.incr w;
      Obs.Counter.incr t.total_writes
  | Update (c, _, _) ->
      let _, _, u = counters_for t c in
      Obs.Counter.incr u;
      Obs.Counter.incr t.total_rmws);
  let st = state t proc in
  if st.op <> None then st.accesses <- st.accesses + 1

let monitor t =
  Sched.monitor
    ~on_event:(fun sched proc ev -> on_event t sched proc ev)
    ~on_access:(fun sched proc access -> on_access t sched proc access)
    ()

let finalize t = Hashtbl.iter (fun proc st -> close_op t proc st) t.procs
