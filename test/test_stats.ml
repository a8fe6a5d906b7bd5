let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let test_summarize () =
  let s = Stats.summarize_ints [ 4; 1; 3; 2; 5 ] in
  Alcotest.(check int) "n" 5 s.n;
  Alcotest.(check bool) "mean" true (feq s.mean 3.0);
  Alcotest.(check bool) "min" true (feq s.min 1.0);
  Alcotest.(check bool) "max" true (feq s.max 5.0);
  Alcotest.(check bool) "median" true (feq s.p50 3.0);
  (* population stddev: divisor n=5 gives sqrt(10/5); the sample
     (n-1) convention would give sqrt(10/4) ~ 1.58 instead *)
  Alcotest.(check bool) "population stddev" true (feq s.stddev (sqrt 2.0));
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: empty") (fun () ->
      ignore (Stats.summarize []))

let test_summarize_population_convention () =
  (* [1;2]: population variance ((0.5)^2+(0.5)^2)/2 = 0.25 -> 0.5;
     sample variance would be 0.5 -> ~0.707 *)
  let s = Stats.summarize [ 1.0; 2.0 ] in
  Alcotest.(check bool) "two-point stddev" true (feq s.stddev 0.5);
  (* a single observation has zero spread under the population
     convention; the sample convention would divide by zero *)
  let s1 = Stats.summarize [ 42.0 ] in
  Alcotest.(check bool) "singleton stddev" true (feq s1.stddev 0.0)

let test_percentile () =
  let a = [| 10.0; 20.0; 30.0; 40.0 |] in
  Alcotest.(check bool) "p0" true (feq (Stats.percentile a 0.0) 10.0);
  Alcotest.(check bool) "p100" true (feq (Stats.percentile a 1.0) 40.0);
  Alcotest.(check bool) "p50 nearest rank" true (feq (Stats.percentile a 0.5) 30.0)

let test_linear_fit () =
  let slope, intercept = Stats.linear_fit [ (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) ] in
  Alcotest.(check bool) "slope 2" true (feq slope 2.0);
  Alcotest.(check bool) "intercept 1" true (feq intercept 1.0);
  Alcotest.check_raises "single point" (Invalid_argument "Stats.linear_fit: need at least 2 points")
    (fun () -> ignore (Stats.linear_fit [ (1.0, 1.0) ]))

let test_growth_exponent () =
  let pts = List.map (fun x -> (float_of_int x, float_of_int (x * x))) [ 1; 2; 4; 8; 16 ] in
  Alcotest.(check bool) "quadratic" true (feq ~eps:1e-6 (Stats.growth_exponent pts) 2.0);
  let lin = List.map (fun x -> (float_of_int x, 7.0 *. float_of_int x)) [ 1; 3; 9; 27 ] in
  Alcotest.(check bool) "linear" true (feq ~eps:1e-6 (Stats.growth_exponent lin) 1.0)

let test_table () =
  let t = Stats.table [ "k"; "cost" ] in
  Stats.add_row t [ "2"; "14" ];
  Stats.add_row t [ "10"; "63" ];
  Alcotest.(check string) "render"
    "k  | cost\n---+-----\n2  | 14  \n10 | 63  " (Stats.render t);
  Alcotest.check_raises "bad row" (Invalid_argument "Stats.add_row: column count mismatch")
    (fun () -> Stats.add_row t [ "1" ])

let test_csv () =
  let t = Stats.table [ "name"; "value" ] in
  Stats.add_row t [ "plain"; "1" ];
  Stats.add_row t [ "with,comma"; "quote\"inside" ];
  Alcotest.(check string) "csv escaping"
    "name,value\nplain,1\n\"with,comma\",\"quote\"\"inside\"" (Stats.to_csv t)

let prop_linear_fit_recovers =
  Test_util.qtest "linear_fit recovers exact lines"
    QCheck2.Gen.(
      let* a = int_range (-50) 50 in
      let* b = int_range (-50) 50 in
      return (float_of_int a /. 4.0, float_of_int b /. 4.0))
    (fun (a, b) ->
      let pts = List.map (fun x -> (float_of_int x, (a *. float_of_int x) +. b)) [ 0; 1; 5; 9 ] in
      let slope, intercept = Stats.linear_fit pts in
      feq ~eps:1e-6 slope a && feq ~eps:1e-6 intercept b)

let prop_summary_bounds =
  Test_util.qtest "summary invariants"
    QCheck2.Gen.(list_size (int_range 1 60) (int_range (-1000) 1000))
    (fun xs ->
      let s = Stats.summarize_ints xs in
      s.min <= s.mean && s.mean <= s.max && s.min <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.max)

(* ----- bench gate and key scanner ----- *)

module B = Stats.Bench

let with_temp_dir f =
  let dir = Filename.temp_dir "renaming_gate" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let write_baseline dir id body = B.write_file (B.baseline_path ~dir ~id) body

let test_find_root () =
  Alcotest.(check (option string)) "parent of _build" (Some "/src/repo")
    (B.find_root "/src/repo/_build/default/bench/main.exe");
  Alcotest.(check (option string)) "relative path" None
    (B.find_root "_build/default/bench/main.exe");
  Alcotest.(check (option string)) "outside _build" None (B.find_root "/usr/bin/bench")

let test_scanner () =
  let opt_float = Alcotest.(option (float 0.)) in
  Alcotest.check opt_float "negative number" (Some (-3.5)) (B.float_key "{\"a\":-3.5}" "a");
  Alcotest.check opt_float "exponent" (Some 1.5e7) (B.float_key "{\"a\": 1.5e+07}" "a");
  Alcotest.check opt_float "not inside journey_overhead" (Some 1.9)
    (B.float_key "{\"journey_overhead\":1.4,\"overhead\":1.9}" "overhead");
  Alcotest.check opt_float "only journey_overhead present" None
    (B.float_key "{\"journey_overhead\":1.4}" "overhead");
  Alcotest.check opt_float "missing key" None (B.float_key "{\"b\":1}" "a");
  Alcotest.check opt_float "nan is no number" None (B.float_key "{\"a\":nan}" "a");
  Alcotest.check opt_float "string is no number" None (B.float_key "{\"a\":\"x\"}" "a");
  Alcotest.(check (option string)) "quoted string" (Some "drain")
    (B.string_key "{\"n\":1,\"top_blame_stage\":\"drain\"}" "top_blame_stage");
  Alcotest.(check (option string)) "number is no string" None (B.string_key "{\"a\":1}" "a")

let check_gate what expected ?cap dir direction ~factor measured =
  Alcotest.(check bool) what expected
    (B.gate ?cap ~rebaseline:false ~dir ~id:"g" ~key:"v" direction ~factor measured)

let test_gate_fails_closed () =
  with_temp_dir (fun dir ->
      check_gate "missing baseline" false dir B.At_most ~factor:1.5 1.0;
      write_baseline dir "g" "{\"id\":\"g_baseline\",\"v\":nan}\n";
      check_gate "non-finite baseline" false dir B.At_most ~factor:1.5 1.0;
      write_baseline dir "g" "{\"id\":\"g_baseline\",\"v\":2}\n";
      check_gate "finite measurement" true dir B.At_most ~factor:1.5 1.0;
      check_gate "nan measurement" false dir B.At_most ~factor:1.5 nan;
      check_gate "infinite measurement" false dir B.At_least ~factor:0.9 infinity)

let test_gate_factors () =
  with_temp_dir (fun dir ->
      write_baseline dir "g" "{\"id\":\"g_baseline\",\"v\":2}\n";
      (* at most 1.5x of 2: limit 3 *)
      check_gate "at the ceiling" true dir B.At_most ~factor:1.5 3.0;
      check_gate "just under the ceiling" true dir B.At_most ~factor:1.5 (Float.pred 3.0);
      check_gate "just over the ceiling" false dir B.At_most ~factor:1.5 (Float.succ 3.0);
      (* at least 0.5x of 2: limit 1 *)
      check_gate "at the floor" true dir B.At_least ~factor:0.5 1.0;
      check_gate "just over the floor" true dir B.At_least ~factor:0.5 (Float.succ 1.0);
      check_gate "just under the floor" false dir B.At_least ~factor:0.5 (Float.pred 1.0))

let test_gate_cap () =
  (* obs on full runs: min(2.0, 2x baseline) with the committed 1.894 *)
  with_temp_dir (fun dir ->
      write_baseline dir "g" "{\"id\":\"g_baseline\",\"v\":1.894}\n";
      check_gate "under the cap" true ~cap:2.0 dir B.At_most ~factor:2.0 1.99;
      check_gate "over the cap" false ~cap:2.0 dir B.At_most ~factor:2.0 2.01;
      check_gate "no cap (smoke)" true dir B.At_most ~factor:2.0 2.01)

let test_rebaseline () =
  with_temp_dir (fun dir ->
      let path = B.baseline_path ~dir ~id:"g" in
      let rebase v = B.gate ~rebaseline:true ~dir ~id:"g" ~key:"v" B.At_most ~factor:1.5 v in
      Alcotest.(check bool) "nan refused" false (rebase nan);
      Alcotest.(check bool) "nothing written" false (Sys.file_exists path);
      Alcotest.(check bool) "finite recorded" true (rebase 1.25);
      Alcotest.(check (option (float 0.))) "scanner reads it back" (Some 1.25)
        (Option.bind (B.read_file path) (fun s -> B.float_key s "v"));
      check_gate "gates against it" true dir B.At_most ~factor:1.5 1.25)

let () =
  Alcotest.run "stats"
    [
      ( "unit",
        [
          Alcotest.test_case "summarize" `Quick test_summarize;
          Alcotest.test_case "population stddev convention" `Quick
            test_summarize_population_convention;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "linear fit" `Quick test_linear_fit;
          Alcotest.test_case "growth exponent" `Quick test_growth_exponent;
          Alcotest.test_case "table rendering" `Quick test_table;
          Alcotest.test_case "csv export" `Quick test_csv;
        ] );
      ( "bench",
        [
          Alcotest.test_case "checkout root" `Quick test_find_root;
          Alcotest.test_case "key scanner" `Quick test_scanner;
          Alcotest.test_case "gate fails closed" `Quick test_gate_fails_closed;
          Alcotest.test_case "gate factors, both directions" `Quick test_gate_factors;
          Alcotest.test_case "gate absolute cap" `Quick test_gate_cap;
          Alcotest.test_case "rebaseline" `Quick test_rebaseline;
        ] );
      ("property", [ prop_linear_fit_recovers; prop_summary_bounds ]);
    ]
