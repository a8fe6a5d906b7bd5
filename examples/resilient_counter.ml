(* The paper's motivating application (§1, after Anderson–Moir): shared
   objects whose operations scan one register per *potential* process
   become dramatically cheaper when a renaming protocol shrinks the
   name space first.

   The object here is a wait-free "collect counter": each process adds
   to its own single-writer slot, and reading the counter sums every
   slot — so a read costs one shared access per name in the slot space.

   Without renaming, the slot space is the source name space S (here
   65536): every read scans 65536 registers.  With the pipeline
   front-end, k = 4 processes rename into k(k+1)/2 = 10 slots: every
   read scans 10 — at the price of one GetName/ReleaseName pair per
   session.

     dune exec examples/resilient_counter.exe *)

open Shared_mem
module Pipeline = Renaming.Pipeline

(* The underlying shared object: an array of single-writer slots. *)
module Collect_counter = struct
  type t = { slots : Cell.t array }

  let create layout ~names = { slots = Layout.alloc_array layout ~name:"slot" names 0 }

  (* add my contribution: read-modify-write my own slot (single-writer,
     so the two accesses need not be atomic together) *)
  let add t (ops : Store.ops) ~slot v =
    ops.write t.slots.(slot) (ops.read t.slots.(slot) + v)

  let read t (ops : Store.ops) =
    Array.fold_left (fun acc c -> acc + ops.read c) 0 t.slots
end

let k = 4
let s = 65_536
let pids = [| 4_321; 17_290; 33_001; 60_007 |]

(* One "session": acquire a slot identity, do some adds and reads,
   release.  [slot_of] abstracts how the slot is obtained. *)
let session counter (ops : Store.ops) ~slot ~adds =
  for _ = 1 to adds do
    Collect_counter.add counter ops ~slot 1
  done;
  Collect_counter.read counter ops

let run_without_renaming () =
  let layout = Layout.create () in
  let counter = Collect_counter.create layout ~names:s in
  let mem = Store.seq_create layout in
  let cost = Store.tally () in
  let total = ref 0 in
  Array.iter
    (fun pid ->
      let ops = Store.tallying cost (Store.seq_ops mem ~pid) in
      (* without renaming, the only safe slot is your source name *)
      total := session counter ops ~slot:pid ~adds:3)
    pids;
  (!total, Store.tally_since cost)

let run_with_renaming () =
  let layout = Layout.create () in
  let protocol = Pipeline.create layout ~k ~s ~participants:pids in
  let counter = Collect_counter.create layout ~names:(Pipeline.name_space protocol) in
  let mem = Store.seq_create layout in
  let cost = Store.tally () in
  let total = ref 0 in
  Array.iter
    (fun pid ->
      let ops = Store.tallying cost (Store.seq_ops mem ~pid) in
      let lease = Pipeline.get_name protocol ops in
      total := session counter ops ~slot:(Pipeline.name_of protocol lease) ~adds:3;
      Pipeline.release_name protocol ops lease)
    pids;
  (!total, Store.tally_since cost)

let () =
  let sum_plain, cost_plain = run_without_renaming () in
  let sum_renamed, cost_renamed = run_with_renaming () in
  Fmt.pr "collect counter over S = %d potential processes, %d actually active@." s k;
  Fmt.pr "@.%-28s %12s %18s@." "" "final value" "shared accesses";
  Fmt.pr "%-28s %12d %18d@." "slots = source names (65536)" sum_plain cost_plain;
  Fmt.pr "%-28s %12d %18d@." "slots = renamed (10)" sum_renamed cost_renamed;
  Fmt.pr "@.speedup: %.0fx fewer shared accesses, same counter semantics@."
    (float_of_int cost_plain /. float_of_int cost_renamed);
  assert (sum_plain = sum_renamed)
