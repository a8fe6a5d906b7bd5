(* One-time renaming (the Moir-Anderson one-shot grid). *)

open Shared_mem
module One_time = Renaming.One_time

let make ~k =
  let layout = Layout.create () in
  let ot = One_time.create layout ~k in
  (layout, ot)

let test_structure () =
  let layout, ot = make ~k:4 in
  Alcotest.(check int) "name space" 10 (One_time.name_space ot);
  Alcotest.(check int) "registers 2 per block" 20 (Layout.size layout);
  Alcotest.(check (pair int int)) "name 0 at origin" (0, 0) (One_time.grid_position ot 0);
  Alcotest.(check (pair int int)) "last name on diagonal" (3, 0) (One_time.grid_position ot 9);
  Alcotest.check_raises "bad k" (Invalid_argument "One_time.create: k must be >= 1")
    (fun () -> ignore (make ~k:0))

let test_solo () =
  let layout, ot = make ~k:3 in
  let mem = Store.seq_create layout in
  Alcotest.(check int) "lone process gets 0" 0
    (One_time.get_name ot (Store.seq_ops mem ~pid:42))

let test_sequential_distinct () =
  let layout, ot = make ~k:4 in
  let mem = Store.seq_create layout in
  let names =
    List.map (fun pid -> One_time.get_name ot (Store.seq_ops mem ~pid)) [ 9; 5; 2; 7 ]
  in
  Alcotest.(check int) "all distinct" 4 (List.length (List.sort_uniq compare names));
  (* sequential processes walk right along row 0 *)
  Alcotest.(check (list int)) "row 0 names" [ 0; 1; 2; 3 ] (List.sort compare names)

(* concurrent uniqueness: every process gets a distinct name within
   the k(k+1)/2 space, under exhaustive (k=2) and random schedules *)
let builder ~k () : Sim.Model_check.config =
  let layout, ot = make ~k in
  let u = Sim.Checks.uniqueness ~name_space:(One_time.name_space ot) () in
  let body (ops : Store.ops) =
    let name = One_time.get_name ot ops in
    (* one-time: the name is held forever *)
    Sim.Sched.emit (Sim.Event.Acquired name)
  in
  {
    layout;
    procs = Array.init k (fun i -> ((i * 557) + 3, body));
    monitor = Sim.Checks.uniqueness_monitor u;
  }

let test_exhaustive_k2 () =
  let r = Sim.Model_check.explore (builder ~k:2) in
  Test_util.check_no_violation "one-time k=2" r;
  Alcotest.(check bool) "complete" true r.complete

let test_exhaustive_k3 () =
  let r = Sim.Model_check.explore ~max_paths:1_500_000 (builder ~k:3) in
  Test_util.check_no_violation "one-time k=3" r

let test_sampled_k5 () =
  let r = Sim.Model_check.sample ~seeds:(Test_util.seeds 3000) (builder ~k:5) in
  Test_util.check_no_violation "one-time k=5" r

(* O(k) cost: at most 4 accesses per block over at most k blocks *)
let test_cost_bound () =
  List.iter
    (fun k ->
      let layout, ot = make ~k in
      let costs = ref [] in
      let body (ops : Store.ops) =
        let c = Store.tally () in
        let counted = Store.tallying c ops in
        let name = One_time.get_name ot counted in
        costs := Store.tally_since c :: !costs;
        Sim.Sched.emit (Sim.Event.Acquired name)
      in
      List.iter
        (fun seed ->
          let u = Sim.Checks.uniqueness ~name_space:(One_time.name_space ot) () in
          let t =
            Sim.Sched.create
              ~monitor:(Sim.Checks.uniqueness_monitor u)
              layout
              (Array.init k (fun i -> (i * 31, body)))
          in
          let outcome = Sim.Sched.run t (Sim.Sched.random (Sim.Rng.make seed)) in
          Alcotest.(check bool) "completes" true (Test_util.all_completed outcome))
        (Test_util.seeds 10);
      List.iter
        (fun c ->
          Alcotest.(check bool) (Printf.sprintf "cost %d <= 4k (k=%d)" c k) true (c <= 4 * k))
        !costs)
    [ 2; 3; 5; 8 ]

(* One-time names persist: re-running other processes later still
   avoids taken names (the Y bits never reset). *)
let test_names_persist () =
  let layout, ot = make ~k:5 in
  let mem = Store.seq_create layout in
  let first = List.map (fun pid -> One_time.get_name ot (Store.seq_ops mem ~pid)) [ 1; 2 ] in
  let later = List.map (fun pid -> One_time.get_name ot (Store.seq_ops mem ~pid)) [ 3; 4 ] in
  let all = first @ later in
  Alcotest.(check int) "still distinct" 4 (List.length (List.sort_uniq compare all))

let () =
  Alcotest.run "one_time"
    [
      ( "structure",
        [
          Alcotest.test_case "grid" `Quick test_structure;
          Alcotest.test_case "solo" `Quick test_solo;
          Alcotest.test_case "sequential distinct" `Quick test_sequential_distinct;
          Alcotest.test_case "names persist" `Quick test_names_persist;
        ] );
      ( "concurrent",
        [
          Alcotest.test_case "exhaustive k=2" `Slow test_exhaustive_k2;
          Alcotest.test_case "exhaustive k=3 (bounded)" `Slow test_exhaustive_k3;
          Alcotest.test_case "sampled k=5" `Slow test_sampled_k5;
          Alcotest.test_case "O(k) cost" `Slow test_cost_bound;
        ] );
    ]
