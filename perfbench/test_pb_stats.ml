(* Tests for the benchmark's arithmetic (Pb_stats). *)

open Perfbench_stats

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps
let check_float ?eps what want got =
  if not (feq ?eps want got) then Alcotest.failf "%s: want %g, got %g" what want got

let shuffled n = Array.init n (fun i -> float_of_int ((i * 7919) mod n + 1))

let test_tail_supported () =
  (* 1..1000: exactly ten samples lie beyond the 990th, so p99 holds *)
  match Pb_stats.tail ~target:0.99 (shuffled 1000) with
  | Some t ->
      check_float "q" 0.99 t.q;
      check_float "value" 990. t.value;
      Alcotest.(check int) "n" 1000 t.n
  | None -> Alcotest.fail "p99 of 1000 samples is supported"

let test_tail_falls_back () =
  (* 500 samples support at most the 490th: the 98th percentile *)
  (match Pb_stats.tail ~target:0.99 (shuffled 500) with
  | Some t ->
      check_float "q" 0.98 t.q;
      check_float "value" 490. t.value
  | None -> Alcotest.fail "500 samples support a tail");
  (* the median needs ten beyond it too *)
  Alcotest.(check bool) "10 samples: nothing" true
    (Pb_stats.tail ~target:0.5 (shuffled 10) = None);
  match Pb_stats.tail ~target:0.5 (shuffled 21) with
  | Some t -> check_float "median of 21" 11. t.value
  | None -> Alcotest.fail "21 samples support the median"

let test_quantile_nearest_rank () =
  let xs = [| 4.; 1.; 3.; 2. |] in
  check_float "q50" 2. (Pb_stats.quantile xs 0.5);
  check_float "q75" 3. (Pb_stats.quantile xs 0.75);
  check_float "q100" 4. (Pb_stats.quantile xs 1.0);
  Alcotest.(check bool) "empty" true (Float.is_nan (Pb_stats.quantile [||] 0.5))

let test_spearman () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  let some what want = function
    | Some r -> check_float what want r
    | None -> Alcotest.failf "%s: undefined" what
  in
  (* any monotone transform ranks identically *)
  some "monotone" 1. (Pb_stats.spearman xs (Array.map exp xs));
  some "reversed" (-1.) (Pb_stats.spearman xs [| 50.; 40.; 30.; 20.; 10. |]);
  (* textbook case: d = (0,1,-1,0,0), rho = 1 - 6·2/(5·24) = 0.9 *)
  some "one swap" 0.9 (Pb_stats.spearman xs [| 1.; 3.; 2.; 4.; 5. |]);
  (* ties take the mean rank *)
  let r = Pb_stats.ranks [| 10.; 20.; 20.; 30. |] in
  check_float "tied rank" 2.5 r.(1);
  check_float "tied rank" 2.5 r.(2);
  Alcotest.(check bool) "constant side" true
    (Pb_stats.spearman xs [| 1.; 1.; 1.; 1.; 1. |] = None);
  Alcotest.(check bool) "one point" true (Pb_stats.spearman [| 1. |] [| 2. |] = None)

(* A FIFO single server with a fixed service time, fed by a generator
   that stalls over [stall_from, stall_to): requests due in the stall
   are sent when it ends. *)
let simulate ~rate ~n ~service ~stall_from ~stall_to =
  let dues = Pb_stats.due_times ~start:0. ~rate n in
  let free = ref 0. in
  Array.map
    (fun due ->
      let submitted =
        if due >= stall_from && due < stall_to then stall_to else due
      in
      let start = Float.max submitted !free in
      free := start +. service;
      { Pb_stats.due; submitted; completed = !free })
    dues

let test_due_time_latency_under_stall () =
  let reqs =
    simulate ~rate:100. ~n:100 ~service:0.001 ~stall_from:0.3 ~stall_to:0.4
  in
  let lat = Array.map Pb_stats.latency reqs in
  let late = Array.map Pb_stats.lateness reqs in
  let from_submit = Array.map (fun r -> r.Pb_stats.completed -. r.submitted) reqs in
  let max a = Array.fold_left Float.max neg_infinity a in
  (* the first request due in the stall waited all of it *)
  check_float ~eps:1e-6 "generator lateness" 0.1 (max late);
  Alcotest.(check bool) "latency from due carries the stall" true (max lat >= 0.1);
  (* timed from the send instead, the stall would vanish: the ten
     delayed requests only queue behind each other *)
  Alcotest.(check bool) "latency from send hides it" true (max from_submit <= 0.012);
  check_float ~eps:1e-9 "unstalled request" 0.001 lat.(0);
  (* ten requests fell due during the stall; the tail percentile sees them *)
  match Pb_stats.tail ~beyond:5 ~target:0.95 lat with
  | Some t -> Alcotest.(check bool) "p95 inside the stall" true (t.value > 0.01)
  | None -> Alcotest.fail "tail supported"

let test_backlog_growth () =
  let rate = 100. in
  let rising = Array.init 20 (fun i -> (float_of_int i *. 0.1, float_of_int (i * 3))) in
  let flat =
    Array.init 20 (fun i -> (float_of_int i *. 0.1, float_of_int (3 + (i mod 2))))
  in
  check_float ~eps:1e-6 "slope" 30. (Option.get (Pb_stats.slope rising));
  Alcotest.(check bool) "30/s at 100/s grows" true
    (Pb_stats.backlog_growing ~rate rising);
  Alcotest.(check bool) "bounded jitter does not" false
    (Pb_stats.backlog_growing ~rate flat)

let test_max_rate () =
  let r rate tail_ms growing = { Pb_stats.rate; tail_ms; growing } in
  let limit_ms = 50. in
  Alcotest.(check (float 0.)) "highest passing rung" 200.
    (Pb_stats.max_rate ~limit_ms
       [ r 100. 10. false; r 200. 40. false; r 300. 45. true; r 400. 900. false ]);
  (* a growing backlog disqualifies a rung even inside the limit *)
  Alcotest.(check (float 0.)) "backlog disqualifies" 100.
    (Pb_stats.max_rate ~limit_ms [ r 100. 10. false; r 200. 20. true ]);
  (* a failed request is an infinite latency *)
  Alcotest.(check (float 0.)) "failures miss the limit" 0.
    (Pb_stats.max_rate ~limit_ms [ r 100. infinity false ]);
  (* rungs are judged independently of their order *)
  Alcotest.(check (float 0.)) "order-free" 300.
    (Pb_stats.max_rate ~limit_ms [ r 300. 1. false; r 100. 1. false ])

let test_ladder () =
  check_float "rung 0" 50. (Pb_stats.ladder_rate 0);
  check_float ~eps:1e-9 "rung 2" 55.125 (Pb_stats.ladder_rate 2);
  Alcotest.(check int) "exact rate" 2 (Pb_stats.ladder_index 55.125);
  Alcotest.(check int) "between rungs" 2 (Pb_stats.ladder_index 57.);
  Alcotest.(check int) "below the grid" 0 (Pb_stats.ladder_index 10.);
  (* a tier that meets 50 ms up to 300/s and whose backlog grows above *)
  let probe k =
    let rate = Pb_stats.ladder_rate k in
    { Pb_stats.rate; tail_ms = (if rate <= 300. then 20. else 30.); growing = rate > 300. }
  in
  let limit_ms = 50. and more () = true in
  let best rungs = Pb_stats.max_rate ~limit_ms rungs in
  let up = Pb_stats.climb ~limit_ms ~start:(Pb_stats.ladder_index 200.) ~probe ~more in
  check_float ~eps:1e-9 "climbs to the last rung under 300/s"
    (Pb_stats.ladder_rate (Pb_stats.ladder_index 300.)) (best up);
  Alcotest.(check bool) "stops at the first growing rung" true
    (match up with r :: _ -> r.growing | [] -> false);
  let down = Pb_stats.climb ~limit_ms ~start:(Pb_stats.ladder_index 400.) ~probe ~more in
  check_float ~eps:1e-9 "descends from a missing start"
    (Pb_stats.ladder_rate (Pb_stats.ladder_index 300.)) (best down);
  (* out of time after the start: only the start was run *)
  let once = Pb_stats.climb ~limit_ms ~start:3 ~probe ~more:(fun () -> false) in
  Alcotest.(check int) "budget" 1 (List.length once)

let test_windows () =
  (* 10 s at 100 requests/s, 20 ms each, except a host slowdown that
     triples latency over the last 2 s *)
  let pts =
    Array.init 1000 (fun i ->
        let t = float_of_int i /. 100. in
        (t, if t >= 8. then 60. else 20.))
  in
  let pooled = Pb_stats.tail ~target:0.9 (Array.map snd pts) in
  check_float "pooled p90 lands in the slowdown" 60. (Option.get pooled).value;
  check_float "windowed p90 does not" 20.
    (Pb_stats.windowed_tail ~windows:5 ~t0:0. ~t1:10. ~target:0.9 pts);
  (* completions thin out in the slowdown too *)
  let times =
    Array.append
      (Array.init 80 (fun i -> float_of_int i /. 10.))
      (Array.init 5 (fun i -> 8. +. (float_of_int i *. 0.4)))
  in
  check_float "windowed rate" 10. (Pb_stats.windowed_rate ~windows:5 ~t0:0. ~t1:10. times);
  (* a window with too few samples for the statistic is skipped *)
  let few = [| (0.5, 1.); (9.5, 2.) |] in
  Alcotest.(check bool) "no window qualifies" true
    (Float.is_nan (Pb_stats.windowed_tail ~windows:2 ~t0:0. ~t1:10. ~target:0.5 few))

let () =
  Alcotest.run "pb_stats"
    [
      ( "percentiles",
        [
          Alcotest.test_case "p99 supported at 1000" `Quick test_tail_supported;
          Alcotest.test_case "fallback below 1000" `Quick test_tail_falls_back;
          Alcotest.test_case "nearest rank" `Quick test_quantile_nearest_rank;
          Alcotest.test_case "median over windows" `Quick test_windows;
        ] );
      ("spearman", [ Alcotest.test_case "rank correlation" `Quick test_spearman ]);
      ( "open loop",
        [
          Alcotest.test_case "due-time latency under a stall" `Quick
            test_due_time_latency_under_stall;
          Alcotest.test_case "backlog growth" `Quick test_backlog_growth;
          Alcotest.test_case "max rate selection" `Quick test_max_rate;
          Alcotest.test_case "ladder climb" `Quick test_ladder;
        ] );
    ]
