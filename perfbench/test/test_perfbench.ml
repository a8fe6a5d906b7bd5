(* The benchmark's own arithmetic and failure reporting. *)

open Perfbench
module Store = Shared_mem.Store
module Layout = Shared_mem.Layout

(* ----- percentiles ----- *)

let naive values q =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  let r = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n)))) in
  a.(r - 1)

let of_list values =
  let s = Samples.create () in
  List.iter (Samples.add s) values;
  s

let test_percentiles () =
  let st = Random.State.make [| 7 |] in
  (* mostly dense values, some beyond the dense range *)
  let values =
    List.init 5000 (fun i ->
        if i mod 97 = 0 then Samples.dense_limit + Random.State.int st 1_000_000
        else Random.State.int st 4000)
  in
  let s = of_list values in
  List.iter
    (fun q -> Alcotest.(check int) (Printf.sprintf "p%g" (100. *. q)) (naive values q) (Samples.percentile s q))
    [ 0.; 0.01; 0.25; 0.5; 0.9; 0.99; 0.999; 1. ];
  Alcotest.(check int) "count" 5000 (Samples.count s);
  Alcotest.(check int) "empty" 0 (Samples.percentile (Samples.create ()) 0.5)

let test_merge_and_clear () =
  let a = [ 5; 70_000; 12; 9 ] and b = [ 3; 80_000; 1 ] in
  let s = of_list a in
  Samples.merge ~into:s (of_list b);
  Alcotest.(check int) "merged p50" (naive (a @ b) 0.5) (Samples.percentile s 0.5);
  Alcotest.(check int) "merged p90" (naive (a @ b) 0.9) (Samples.percentile s 0.9);
  Samples.clear s;
  Alcotest.(check int) "cleared" 0 (Samples.count s);
  Samples.add s 4;
  Alcotest.(check int) "reused" 4 (Samples.percentile s 0.99)

let test_tail_rule () =
  let tail n =
    match Samples.tail (of_list (List.init n (fun i -> i))) with
    | Some (q, v, beyond) -> (q, v, beyond)
    | None -> (0., -1, 0)
  in
  (* 1000 samples: p99 is rank 990, ten above it; p99.9 has one *)
  let q, v, beyond = tail 1000 in
  Alcotest.(check (float 0.)) "p99 at n=1000" 0.99 q;
  Alcotest.(check int) "p99 value" 989 v;
  Alcotest.(check int) "beyond" 10 beyond;
  (* 999 samples: p99 is rank 990, only nine above it *)
  let q, _, beyond = tail 999 in
  Alcotest.(check (float 0.)) "p90 at n=999" 0.9 q;
  Alcotest.(check bool) "at least ten beyond" true (beyond >= 10);
  let q, _, _ = tail 10 in
  Alcotest.(check (float 0.)) "too few for any" 0. q

(* ----- span self time ----- *)

let busy ns =
  let t = Clock.now_ns () in
  while Clock.now_ns () - t < ns do
    ()
  done

let span sp kind f =
  let i = Spans.open_ sp kind in
  f ();
  Spans.close sp i

(* A release whose batched drain runs two protocol releases, and a
   tend whose reclaimer scan runs a reset and a drain release. *)
let test_self_time () =
  let sp = Spans.create () in
  span sp Spans.release (fun () ->
      busy 20_000;
      span sp Spans.proto_release (fun () -> busy 30_000);
      span sp Spans.proto_release (fun () -> busy 30_000));
  span sp Spans.tend (fun () ->
      span sp Spans.proto_reset (fun () -> busy 25_000);
      busy 10_000;
      span sp Spans.proto_release (fun () -> busy 15_000));
  span sp Spans.acquire_cold (fun () -> span sp Spans.proto_get (fun () -> busy 5_000));
  Spans.fold sp;
  let self k = Samples.sum (Spans.self sp k) in
  let kinds = List.init Spans.kinds Fun.id in
  List.iter
    (fun k ->
      let children = List.fold_left (fun s c -> s + Spans.child_sum sp ~parent:k ~child:c) 0 kinds in
      Alcotest.(check int)
        (Printf.sprintf "kind %d: self + children = duration" k)
        (Spans.duration_sum sp k) (self k + children))
    kinds;
  let top = List.fold_left (fun s c -> s + Spans.child_sum sp ~parent:Spans.kinds ~child:c) 0 kinds in
  Alcotest.(check int) "self times add up to the top-level spans" top
    (List.fold_left (fun s k -> s + self k) 0 kinds);
  Alcotest.(check int) "well nested" 0 (Spans.nest_errors sp);
  Alcotest.(check int) "two drain releases inside release" 2 (Spans.count sp Spans.proto_release - 1);
  Alcotest.(check bool) "release self excludes its drain" true (self Spans.release < 60_000);
  Alcotest.(check bool) "tend self excludes its scan" true (self Spans.tend < 25_000)

let test_bad_nesting () =
  let sp = Spans.create () in
  let parent = Spans.open_ sp Spans.release in
  let child = Spans.open_ sp Spans.proto_release in
  Alcotest.check_raises "fold with an open span" (Invalid_argument "Spans.fold: a span is still open")
    (fun () -> Spans.fold sp);
  (* the parent closes while its child is still open *)
  Spans.close sp parent;
  Alcotest.(check int) "reported" 1 (Spans.nest_errors sp);
  ignore child

(* ----- grant checks ----- *)

let test_grant_check () =
  let open Rig in
  Alcotest.(check bool) "cold at the bound" true (check_grant ~warm:false ~accesses:get_bound = Grant_ok);
  Alcotest.(check bool) "cold over the bound" true
    (check_grant ~warm:false ~accesses:(get_bound + 1) = Over_bound);
  Alcotest.(check bool) "warm with no access" true (check_grant ~warm:true ~accesses:0 = Grant_ok);
  Alcotest.(check bool) "warm with accesses" true (check_grant ~warm:true ~accesses:1 = Warm_accessed)

(* ----- tiny runs ----- *)

let tiny ?backend ?grace_s ?(rounds = 3) w ~trace =
  Rig.run ?backend ?grace_s ~check:(2, 1) ~rounds w ~seed:5 ~seconds:0.03 ~trace

let names r = List.map (fun (m : Rig.metric) -> (m.name, m.unit)) r.Rig.metrics

let test_tiny_runs () =
  List.iter
    (fun (label, w) ->
      List.iter
        (fun trace ->
          let r = tiny w ~trace in
          let what = Printf.sprintf "%s trace=%b" label trace in
          Alcotest.(check (list string)) (what ^ ": no problems") [] r.problems;
          Alcotest.(check bool) (what ^ ": correct") true r.correct;
          Alcotest.(check (list (pair string string)))
            (what ^ ": every metric, in order")
            (if trace then Rig.per_layer else Rig.end_to_end)
            (names r);
          Alcotest.(check bool) (what ^ ": attempted") true (r.attempted > 0))
        [ false; true ])
    Rig.workloads

(* ----- failures are reported ----- *)

(* SPLIT wrapped so that each get makes [extra] more reads, or hands out
   [name] instead of its own, or first waits on [gate]. *)
module Mutant (X : sig
  val extra : int
  val name : int option
  val gate : bool Atomic.t
end) =
struct
  type t = { inner : Renaming.Split.t; cell : Shared_mem.Cell.t }
  type lease = Renaming.Split.lease

  let name_space t = Renaming.Split.name_space t.inner

  let get_name t (ops : Store.ops) =
    while Atomic.get X.gate do
      Domain.cpu_relax ()
    done;
    for _ = 1 to X.extra do
      ignore (ops.read t.cell)
    done;
    Renaming.Split.get_name t.inner ops

  let name_of t l = match X.name with Some n -> n | None -> Renaming.Split.name_of t.inner l
  let release_name t ops l = Renaming.Split.release_name t.inner ops l
  let reset_footprint = None
end

let mutant ?(extra = 0) ?name ?(gate = Atomic.make false) () ~traced:_ layout ~stage ~k =
  let module M = Mutant (struct
    let extra = extra
    let name = name
    let gate = gate
  end) in
  let inner = Renaming.Split.create ~stage layout ~k in
  let cell = Layout.alloc layout ~name:"mutant" 0 in
  Renaming.Protocol.Any.pack (module M) { M.inner; cell }

let test_over_bound () =
  let r = tiny ~backend:(mutant ~extra:(Rig.get_bound + 1) ()) Rig.Protocol_direct ~trace:false in
  Alcotest.(check bool) "run failed" false r.correct;
  Alcotest.(check bool) "every get counted" true (r.failed >= r.attempted)

let test_violation () =
  (* every shard hands out its name 0 to every client *)
  let r = tiny ~backend:(mutant ~name:0 ()) Rig.Server_cold ~trace:false in
  Alcotest.(check bool) "run failed" false r.correct;
  Alcotest.(check bool) "violations counted" true (r.failed > 0);
  let r = tiny ~backend:(mutant ~name:1_000 ()) Rig.Protocol_direct ~trace:false in
  Alcotest.(check bool) "out-of-range name fails the run" false r.correct

let test_hang () =
  let gate = Atomic.make true in
  let r = tiny ~backend:(mutant ~gate ()) ~grace_s:0.2 ~rounds:2 Rig.Protocol_direct ~trace:false in
  Atomic.set gate false;
  Alcotest.(check bool) "hung" true r.hung;
  Alcotest.(check bool) "run failed" false r.correct;
  Alcotest.(check bool) "counted" true (r.failed > 0)

let () =
  Alcotest.run "perfbench"
    [
      ( "samples",
        [
          Alcotest.test_case "exact percentiles" `Quick test_percentiles;
          Alcotest.test_case "merge and clear" `Quick test_merge_and_clear;
          Alcotest.test_case "ten-beyond tail rule" `Quick test_tail_rule;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time with nested drains and reclaims" `Quick test_self_time;
          Alcotest.test_case "bad nesting is reported" `Quick test_bad_nesting;
        ] );
      ( "runs",
        [
          Alcotest.test_case "grant checks" `Quick test_grant_check;
          Alcotest.test_case "every workload prints every metric" `Quick test_tiny_runs;
          Alcotest.test_case "over-bound gets fail the run" `Quick test_over_bound;
          Alcotest.test_case "uniqueness violations fail the run" `Quick test_violation;
          Alcotest.test_case "a hung round fails the run" `Quick test_hang;
        ] );
    ]
