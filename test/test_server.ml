(* The sharded name server: routing, warm-cache legality, batched
   release survival across the join, and fault-campaign pressure. *)

module Agg = Runtime.Agg

let cfg ?(shards = 4) ?(k = 4) ?(warm = 2) ?(batch = 8) ?(clients = 2) ?(s = 1024) ()
    =
  Server.default_config ~shards ~k_per_shard:k ~warm_capacity:warm ~batch ~clients
    ~source_space:s ()
  |> fun c -> { c with Server.shards; k_per_shard = k }

(* --- shard routing --- *)

let test_routing_stable () =
  let c = cfg () in
  let a = Server.create c and b = Server.create c in
  for src = 0 to c.Server.source_space - 1 do
    let sa = Server.shard_of a ~src in
    Alcotest.(check int) "same route on a fresh instance" sa (Server.shard_of b ~src);
    Alcotest.(check bool) "in range" true (sa >= 0 && sa < c.Server.shards)
  done;
  (* every shard serves someone: the route spreads *)
  let seen = Array.make c.Server.shards false in
  for src = 0 to c.Server.source_space - 1 do
    seen.(Server.shard_of a ~src) <- true
  done;
  Array.iteri
    (fun sh hit -> Alcotest.(check bool) (Printf.sprintf "shard %d used" sh) true hit)
    seen

(* --- single-client service basics (sequential, deterministic) --- *)

let test_warm_hit () =
  let t = Server.create (cfg ~clients:1 ()) in
  let c = Server.client t 0 in
  (match Server.acquire t c ~src:7 with
  | Server.Granted g ->
      Alcotest.(check bool) "first grant is cold" false g.warm;
      Alcotest.(check bool) "cold grant costs accesses" true (g.accesses > 0);
      Server.release t c ~token:g.token
  | _ -> Alcotest.fail "first acquire not granted");
  (match Server.acquire t c ~src:7 with
  | Server.Granted g ->
      Alcotest.(check bool) "re-acquire is warm" true g.warm;
      Alcotest.(check int) "warm grant is free" 0 g.accesses;
      Server.release t c ~token:g.token
  | _ -> Alcotest.fail "re-acquire not granted");
  Server.flush t c;
  Alcotest.(check int) "all names returned" 0 (Server.outstanding t);
  let r = Agg.result (Server.scoreboard t) in
  Alcotest.(check int) "no violations" 0 r.Agg.violations

let test_busy_and_shed () =
  let t = Server.create (cfg ~shards:1 ~k:1 ~clients:2 ()) in
  let c0 = Server.client t 0 and c1 = Server.client t 1 in
  let g0 =
    match Server.acquire t c0 ~src:3 with
    | Server.Granted { token; _ } -> token
    | _ -> Alcotest.fail "c0 not granted"
  in
  (match Server.acquire t c1 ~src:3 with
  | Server.Busy -> ()
  | _ -> Alcotest.fail "claimed source must be Busy");
  (match Server.acquire t c0 ~src:4 with
  | Server.Shed -> ()
  | _ -> Alcotest.fail "full shard must Shed");
  Server.release t c0 ~token:g0;
  (* src 3 is warm in c0's cache: still claimed *)
  (match Server.acquire t c1 ~src:3 with
  | Server.Busy -> ()
  | _ -> Alcotest.fail "warm-cached source must stay Busy");
  Server.flush t c0;
  (match Server.acquire t c1 ~src:3 with
  | Server.Granted g -> Server.release t c1 ~token:g.token
  | _ -> Alcotest.fail "flushed source must be grantable");
  Server.flush t c1;
  Alcotest.(check int) "drained" 0 (Server.outstanding t)

let test_batch_drain () =
  let t = Server.create (cfg ~shards:1 ~k:4 ~warm:0 ~batch:3 ~clients:1 ()) in
  let c = Server.client t 0 in
  let grant src =
    match Server.acquire t c ~src with
    | Server.Granted g -> g.token
    | _ -> Alcotest.fail "not granted"
  in
  let t1 = grant 1 and t2 = grant 2 and t3 = grant 3 in
  Server.release t c ~token:t1;
  Server.release t c ~token:t2;
  Alcotest.(check int) "two releases still pending" 3 (Server.outstanding t);
  Server.release t c ~token:t3;
  (* the third release trips the batch and drains all three *)
  Alcotest.(check int) "batch drained" 0 (Server.outstanding t);
  let stats = Server.client_stats c in
  Alcotest.(check int) "one drain" 1 stats.Server.drains;
  Alcotest.(check int) "three releases executed" 3 stats.Server.drained_releases

let test_double_release_rejected () =
  let t = Server.create (cfg ~clients:1 ()) in
  let c = Server.client t 0 in
  match Server.acquire t c ~src:5 with
  | Server.Granted g ->
      Server.release t c ~token:g.token;
      Alcotest.check_raises "double release"
        (Invalid_argument "Server.release: not a token this client holds")
        (fun () -> Server.release t c ~token:g.token)
  | _ -> Alcotest.fail "not granted"

let test_foreign_token_rejected () =
  let t = Server.create (cfg ~clients:2 ()) in
  let c0 = Server.client t 0 and c1 = Server.client t 1 in
  let not_held = Invalid_argument "Server.release: not a token this client holds" in
  Alcotest.check_raises "in-range token never granted" not_held (fun () ->
      Server.release t c0 ~token:0);
  match Server.acquire t c0 ~src:5 with
  | Server.Granted g ->
      Alcotest.check_raises "another client's token" not_held (fun () ->
          Server.release t c1 ~token:g.token);
      Server.release t c0 ~token:g.token
  | _ -> Alcotest.fail "not granted"

(* A client declared dead that resyncs (here through [flush]) before
   it releases: each retired token is counted as fenced and absorbed,
   and the one already re-granted to another client is left alone. *)
let test_fenced_release_after_resync () =
  let config = cfg ~shards:1 ~k:4 ~warm:2 ~clients:2 ~s:64 () in
  let t = Server.create config in
  let a = Server.client t 0 and b = Server.client t 1 in
  let grant c src =
    match Server.acquire t c ~src with
    | Server.Granted g -> g.token
    | _ -> Alcotest.fail "not granted"
  in
  let t5 = grant a 5 and t6 = grant a 6 in
  for _ = 1 to config.Server.resilience.Server.lease_ttl + 1 do
    Server.scan t b
  done;
  let rs = Server.resilience_stats t in
  Alcotest.(check int) "a declared dead" 1 rs.Server.deaths;
  Alcotest.(check int) "both leases reclaimed" 2 rs.Server.reclaimed;
  Server.flush t a;
  (* the freelist hands one retired slot straight to b *)
  let tb = grant b 5 in
  Alcotest.(check bool) "b now holds one of a's old slots" true (tb = t5 || tb = t6);
  let fenced0 = (Server.client_stats a).Server.fenced in
  Server.release t a ~token:t5;
  Server.release t a ~token:t6;
  Alcotest.(check int) "both releases fenced" (fenced0 + 2)
    (Server.client_stats a).Server.fenced;
  Alcotest.(check int) "b's lease untouched" 1 (Server.outstanding t);
  Server.release t b ~token:tb;
  Server.flush t b;
  Alcotest.(check int) "b's release is not fenced" 0 (Server.client_stats b).Server.fenced;
  Alcotest.(check int) "all returned" 0 (Server.outstanding t);
  Alcotest.check_raises "a fenced token cannot be released twice"
    (Invalid_argument "Server.release: not a token this client holds") (fun () ->
      Server.release t a ~token:t5);
  let r = Agg.result ~reclaimed:rs.Server.reclaimed (Server.scoreboard t) in
  Alcotest.(check int) "no violations" 0 r.Agg.violations;
  Alcotest.(check int) "no leaks" 0 r.Agg.leaked

(* --- the slab: shard [sh] serves tokens from [sh*k, (sh+1)*k) only --- *)

let test_shard_slab_ranges () =
  let shards = 4 and k = 4 in
  let t = Server.create (cfg ~shards ~k ~clients:1 ()) in
  let c = Server.client t 0 in
  (* the first k+1 sources routed to each shard *)
  let on_shard = Array.make shards [] in
  for src = 1023 downto 0 do
    let sh = Server.shard_of t ~src in
    on_shard.(sh) <- src :: on_shard.(sh)
  done;
  let in_range sh token =
    Alcotest.(check bool)
      (Printf.sprintf "token %d in shard %d's range" token sh)
      true
      (token >= k * sh && token < (k * sh) + k)
  in
  for _round = 1 to 2 do
    for sh = 0 to shards - 1 do
      let srcs = List.filteri (fun i _ -> i <= k) on_shard.(sh) in
      let held = List.filteri (fun i _ -> i < k) srcs and extra = List.nth srcs k in
      let tokens =
        List.map
          (fun src ->
            match Server.acquire t c ~src with
            | Server.Granted g ->
                in_range sh g.token;
                g.token
            | _ -> Alcotest.fail "a shard with room must grant")
          held
      in
      (match Server.acquire t c ~src:extra with
      | Server.Shed -> ()
      | _ -> Alcotest.fail "the (k+1)-th source on a full shard must Shed");
      List.iter (fun token -> Server.release t c ~token) tokens
    done;
    Server.flush t c;
    Alcotest.(check int) "whole slab free" (shards * k) (Server.probe_free t);
    Alcotest.(check int) "nothing outstanding" 0 (Server.outstanding t)
  done;
  Alcotest.(check int) "no violations" 0 (Agg.result (Server.scoreboard t)).Agg.violations

(* --- warm-cache uniqueness with a concurrent stealer --- *)

let test_warm_vs_stealer () =
  let config = cfg ~shards:2 ~k:3 ~warm:2 ~batch:4 ~clients:2 ~s:64 () in
  let t = Server.create config in
  let hot = 11 in
  let cycles = 2_000 in
  let owner =
    Domain.spawn (fun () ->
        let c = Server.client t 0 in
        for _ = 1 to cycles do
          match Server.acquire t c ~src:hot with
          | Server.Granted g -> Server.release t c ~token:g.token
          | Server.Busy | Server.Shed -> Domain.cpu_relax ()
        done;
        Server.flush t c)
  in
  let stolen = ref 0 in
  let stealer =
    Domain.spawn (fun () ->
        let c = Server.client t 1 in
        for _ = 1 to cycles do
          match Server.acquire t c ~src:hot with
          | Server.Granted g ->
              incr stolen;
              Server.release t c ~token:g.token
          | Server.Busy | Server.Shed -> Domain.cpu_relax ()
        done;
        Server.flush t c)
  in
  Domain.join owner;
  Domain.join stealer;
  Server.drain_all t (Server.client t 0);
  let r = Agg.result (Server.scoreboard t) in
  Alcotest.(check int) "uniqueness holds under warm hits + stealing" 0
    r.Agg.violations;
  Alcotest.(check int) "nothing leaked" 0 r.Agg.leaked;
  Alcotest.(check int) "nothing outstanding" 0 (Server.outstanding t);
  let owner_stats = Server.client_stats (Server.client t 0) in
  Alcotest.(check bool) "owner got warm hits" true (owner_stats.Server.warm_hits > 0)

(* --- batched releases survive the join --- *)

let test_join_drain () =
  (* batch far above anything the run trips: releases pile up pending
     and must all be retired by the post-join drain *)
  let config = cfg ~shards:2 ~k:4 ~warm:1 ~batch:1_000_000 ~clients:3 ~s:256 () in
  let report =
    Churn.run ~config
      ~spec:(fun client ->
        Workload.server_churn ~s:256 ~requests:500 ~seed:42 ~client ())
      ()
  in
  Alcotest.(check int) "no violations" 0 report.Churn.result.Agg.violations;
  Alcotest.(check int) "no leaks after drain" 0 report.Churn.outstanding;
  Alcotest.(check int) "scoreboard agrees" 0 report.Churn.result.Agg.leaked;
  Alcotest.(check bool) "cycles completed" true (report.Churn.cycles > 0);
  (* warm hits re-grant a lease the server still holds, so protocol
     releases must match *cold* grants exactly *)
  Alcotest.(check int) "every cold grant eventually released"
    (report.Churn.acquires - report.Churn.warm_hits)
    report.Churn.drained_releases

(* --- a fault campaign aimed at one shard --- *)

let test_fault_campaign_one_shard () =
  let s = 64 in
  let config = cfg ~shards:2 ~k:3 ~warm:1 ~batch:4 ~clients:4 ~s () in
  (* pin every request to sources served by shard 0 *)
  let probe = Server.create config in
  let shard0 =
    Array.of_list
      (List.filter
         (fun src -> Server.shard_of probe ~src = 0)
         (List.init s (fun i -> i)))
  in
  Alcotest.(check bool) "shard 0 serves sources" true (Array.length shard0 > 2);
  let plan = Result.get_ok (Sim.Faults.of_string "crash@p1:acc40,park@p3:acc1") in
  let faults = Churn.of_plan plan in
  let report =
    Churn.run ~config ~faults
      ~spec:(fun client ->
        let zipf = Workload.zipf ~s:(Array.length shard0) ~seed:7 ~stream:client () in
        {
          Workload.requests = 300;
          source = (fun i -> shard0.(zipf i));
          arrival = (fun _ -> 0.);
          think = 0;
        })
      ()
  in
  Alcotest.(check int) "uniqueness survives the campaign" 0
    report.Churn.result.Agg.violations;
  (* the healthy clients (0 and 2) finished their requests *)
  Alcotest.(check bool) "healthy clients progressed" true
    (report.Churn.result.Agg.cycles_done.(0) > 0
    && report.Churn.result.Agg.cycles_done.(2) > 0);
  (* the crashed client's warm lease leaks, and is *visible* as a leak *)
  Alcotest.(check int) "leak accounting agrees" report.Churn.result.Agg.leaked
    report.Churn.outstanding

(* --- crash-tolerant reclamation --- *)

let test_reclaim_crashed_client () =
  let config = cfg ~shards:2 ~k:4 ~warm:2 ~clients:2 ~s:64 () in
  let t = Server.create config in
  let c0 = Server.client t 0 and c1 = Server.client t 1 in
  (* client 1 holds one lease, caches another warm, then crashes *)
  (match Server.acquire t c1 ~src:5 with
  | Server.Granted _ -> ()
  | _ -> Alcotest.fail "c1 not granted");
  (match Server.acquire t c1 ~src:9 with
  | Server.Granted g -> Server.release t c1 ~token:g.token
  | _ -> Alcotest.fail "c1 not granted a warm lease");
  Alcotest.(check bool) "leases outstanding" true (Server.outstanding t > 0);
  (match Server.acquire t c0 ~src:5 with
  | Server.Busy -> ()
  | _ -> Alcotest.fail "a corpse's held source is still Busy");
  let ttl = config.Server.resilience.Server.lease_ttl in
  for _ = 1 to ttl + 2 do
    Server.scan t c0
  done;
  let rs = Server.resilience_stats t in
  Alcotest.(check int) "one death declared" 1 rs.Server.deaths;
  Alcotest.(check int) "held + warm leases reclaimed" 2 rs.Server.reclaimed;
  Alcotest.(check int) "nothing outstanding after reclaim" 0 (Server.outstanding t);
  Alcotest.(check bool) "reclaim bounded by the lease TTL" true
    (rs.Server.reclaim_max_scans <= 2 * ttl);
  (* the reclaimed sources serve again (possibly via failover) *)
  (match Server.acquire t c0 ~src:5 with
  | Server.Granted g -> Server.release t c0 ~token:g.token
  | _ -> Alcotest.fail "a reclaimed source must be grantable");
  Server.flush t c0;
  let r = Agg.result ~reclaimed:rs.Server.reclaimed (Server.scoreboard t) in
  Alcotest.(check int) "no violations" 0 r.Agg.violations;
  Alcotest.(check int) "leaks reconciled by reclaim" 0 r.Agg.leaked

let test_drain_reclaim_race () =
  (* regression: a pending chain walked by a live drainer while the
     reclaimer's orphan sweep retires the same slots must retire each
     exactly once.  A double retirement double-decrements the
     admission census or double-releases on the scoreboard — both
     visible below.  The scanner also races liveness itself: the
     churners tend, but on an oversubscribed host they still get
     declared dead under the short TTL, so the false-expiry path
     (epoch fence + re-sync) is exercised too. *)
  let config = cfg ~shards:1 ~k:4 ~warm:1 ~batch:2 ~clients:3 ~s:32 () in
  let t = Server.create config in
  let churn id cycles =
    Domain.spawn (fun () ->
        let c = Server.client t id in
        let seed = ref (id + 1) in
        for _ = 1 to cycles do
          seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
          (match Server.acquire t c ~src:(!seed mod 32) with
          | Server.Granted g -> Server.release t c ~token:g.token
          | Server.Busy | Server.Shed -> ());
          Server.tend t c
        done;
        Server.flush t c)
  in
  let d0 = churn 0 3_000 and d1 = churn 1 3_000 in
  let scanner =
    Domain.spawn (fun () ->
        let c = Server.client t 2 in
        for _ = 1 to 400 do
          Server.scan t c;
          Server.drain_all t c
        done)
  in
  Domain.join d0;
  Domain.join d1;
  Domain.join scanner;
  let c0 = Server.client t 0 in
  let settle = ref 0 in
  while Server.outstanding t > 0 && !settle < 64 do
    incr settle;
    Server.scan t c0;
    Server.drain_all t c0
  done;
  let rs = Server.resilience_stats t in
  let r = Agg.result ~reclaimed:rs.Server.reclaimed (Server.scoreboard t) in
  Alcotest.(check int) "no violations under drain/reclaim races" 0 r.Agg.violations;
  Alcotest.(check int) "every slot retired exactly once" 0 (Server.outstanding t);
  Alcotest.(check int) "scoreboard agrees" 0 r.Agg.leaked

(* --- quarantine, failover, rebuild --- *)

let test_failover_quarantine () =
  let config = cfg ~shards:2 ~k:4 ~warm:0 ~clients:2 ~s:64 () in
  let t = Server.create config in
  let c0 = Server.client t 0 and c1 = Server.client t 1 in
  (* a source served by shard 0, leaked by a crash *)
  let src = ref 0 in
  while Server.shard_of t ~src:!src <> 0 do
    incr src
  done;
  let src = !src in
  (match Server.acquire t c1 ~src with
  | Server.Granted _ -> ()
  | _ -> Alcotest.fail "c1 not granted");
  (* the quarantine window is tight — the reclaim empties the shard,
     so the very next clean scan rebuilds it.  Scan just far enough to
     catch the shard in quarantine. *)
  let ttl = config.Server.resilience.Server.lease_ttl in
  let n = ref 0 in
  while Server.health t 0 <> Server.Health.Quarantined && !n < 2 * ttl do
    incr n;
    Server.scan t c0
  done;
  Alcotest.(check bool) "leaking shard quarantined" true
    (Server.health t 0 = Server.Health.Quarantined);
  let rs = Server.resilience_stats t in
  Alcotest.(check bool) "quarantine counted" true (rs.Server.quarantines >= 1);
  (* acquires routed at the quarantined shard spill over and still grant *)
  (match Server.acquire t c0 ~src with
  | Server.Granted g -> Server.release t c0 ~token:g.token
  | _ -> Alcotest.fail "failover must still grant");
  let rs = Server.resilience_stats t in
  Alcotest.(check bool) "failover counted" true (rs.Server.failovers >= 1);
  Server.flush t c0;
  (* clean scans rebuild the shard in place *)
  let n = ref 0 in
  while Server.health t 0 <> Server.Health.Live && !n < 16 do
    incr n;
    Server.scan t c0
  done;
  Alcotest.(check bool) "shard re-admitted as live" true
    (Server.health t 0 = Server.Health.Live);
  let rs = Server.resilience_stats t in
  Alcotest.(check bool) "rebuild counted" true (rs.Server.rebuilds >= 1);
  let r = Agg.result ~reclaimed:rs.Server.reclaimed (Server.scoreboard t) in
  Alcotest.(check int) "no violations through failover" 0 r.Agg.violations

(* --- registry: server.* metrics mirror the client counters --- *)

let test_registry_mirrors_clients () =
  let registry = Obs.Registry.create () in
  let t = Server.create ~registry (cfg ~clients:2 ()) in
  let c0 = Server.client t 0 and c1 = Server.client t 1 in
  let grant c src =
    match Server.acquire t c ~src with
    | Server.Granted g -> (g.token, g.warm)
    | _ -> Alcotest.failf "src %d not granted" src
  in
  (* cold grants, then warm hits on the same sources *)
  List.iter (fun src -> Server.release t c0 ~token:(fst (grant c0 src))) [ 1; 2 ];
  List.iter
    (fun src ->
      let token, warm = grant c0 src in
      Alcotest.(check bool) "re-acquire is warm" true warm;
      Server.release t c0 ~token)
    [ 1; 2 ];
  (* client 1 asks for a source client 0 still holds *)
  let held, _ = grant c0 3 in
  (match Server.acquire t c1 ~src:3 with
  | Server.Busy -> ()
  | _ -> Alcotest.fail "held source must be Busy");
  Server.release t c1 ~token:(fst (grant c1 5));
  Server.release t c0 ~token:held;
  Server.flush t c0;
  Server.flush t c1;
  Alcotest.(check int) "all names returned" 0 (Server.outstanding t);
  let total f =
    f (Server.client_stats c0) + f (Server.client_stats c1)
  in
  let expected =
    List.filter
      (fun (_, v) -> v > 0)
      [
        ("server.acquired", total (fun s -> s.Server.acquires));
        ("server.busy", total (fun s -> s.Server.busy));
        ("server.drained", total (fun s -> s.Server.drained_releases));
        ("server.drains", total (fun s -> s.Server.drains));
        ("server.failover", total (fun s -> s.Server.failovers));
        ("server.fenced", total (fun s -> s.Server.fenced));
        ("server.shed", total (fun s -> s.Server.shed));
        ("server.warm_hits", total (fun s -> s.Server.warm_hits));
      ]
  in
  let warm_hits = total (fun s -> s.Server.warm_hits) in
  Alcotest.(check int) "two warm hits" 2 warm_hits;
  Alcotest.(check int) "one busy" 1 (total (fun s -> s.Server.busy));
  Alcotest.(check bool) "the flush drained" true (total (fun s -> s.Server.drains) > 0);
  let server_counters (snap : Obs.Registry.snapshot) =
    List.filter
      (fun (n, _) -> String.length n > 7 && String.sub n 0 7 = "server.")
      snap.counters
  in
  let snap = Obs.Registry.snapshot registry in
  Alcotest.(check (list (pair string int)))
    "each server.* counter is the clients' sum" expected (server_counters snap);
  Alcotest.(check bool) "no shed, no server.shed" false
    (List.mem_assoc "server.shed" snap.counters);
  let hist name = List.assoc name snap.histograms in
  let warm = hist "server.acquire.accesses.warm" in
  Alcotest.(check int) "warm histogram counts warm hits" warm_hits warm.Obs.Histogram.count;
  Alcotest.(check int) "warm grants cost 0 accesses" 0 warm.Obs.Histogram.p100;
  let cold = hist "server.acquire.accesses.cold" in
  Alcotest.(check int) "cold histogram counts cold grants"
    (total (fun s -> s.Server.acquires) - warm_hits)
    cold.Obs.Histogram.count;
  let again = Obs.Registry.snapshot registry in
  Alcotest.(check (list (pair string int)))
    "a second snapshot counts nothing twice" snap.counters again.counters;
  Alcotest.(check bool) "histograms unchanged by a second snapshot" true
    (snap.histograms = again.histograms)

let () =
  Alcotest.run "server"
    [
      ( "routing",
        [ Alcotest.test_case "stable across instances, spreads" `Quick test_routing_stable ] );
      ( "service",
        [
          Alcotest.test_case "warm hit is free" `Quick test_warm_hit;
          Alcotest.test_case "busy and shed" `Quick test_busy_and_shed;
          Alcotest.test_case "batched drain" `Quick test_batch_drain;
          Alcotest.test_case "double release rejected" `Quick test_double_release_rejected;
          Alcotest.test_case "never-granted token rejected" `Quick test_foreign_token_rejected;
          Alcotest.test_case "each shard grants from its own slab range" `Quick
            test_shard_slab_ranges;
          Alcotest.test_case "registry mirrors client counters" `Quick
            test_registry_mirrors_clients;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "warm cache vs stealer" `Quick test_warm_vs_stealer;
          Alcotest.test_case "releases survive the join" `Quick test_join_drain;
          Alcotest.test_case "fault campaign on one shard" `Quick
            test_fault_campaign_one_shard;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "fenced release after resync" `Quick
            test_fenced_release_after_resync;
          Alcotest.test_case "crashed client reclaimed" `Quick
            test_reclaim_crashed_client;
          Alcotest.test_case "drain vs reclaim exactly-once" `Quick
            test_drain_reclaim_race;
          Alcotest.test_case "quarantine, failover, rebuild" `Quick
            test_failover_quarantine;
        ] );
    ]
