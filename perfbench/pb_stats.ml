(* The benchmark's own arithmetic: percentiles under the ten-samples
   rule, rank correlation, open-loop due-time accounting and the
   rate-ladder verdict. Pure functions, covered by test_pb_stats.ml. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* 1-based nearest rank of quantile [q] (0 < q <= 1) among [n] samples.
   The epsilon keeps q·n from rounding up past an exact integer
   (0.99 ·. 1000. is 990.0000000000001). *)
let rank q n = max 1 (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)))

let quantile xs q =
  let s = sorted xs in
  let n = Array.length s in
  if n = 0 then nan else s.(min n (rank q n) - 1)

let median xs = quantile xs 0.5

(* A tail percentile as reported: the requested quantile when at least
   [beyond] samples lie past it, otherwise the highest quantile that
   still has [beyond] samples past it. [None] when even that is empty. *)
type tail = { q : float; value : float; n : int }

let tail ?(beyond = 10) ~target xs =
  let s = sorted xs in
  let n = Array.length s in
  let r_target = rank target n in
  let r = min r_target (n - beyond) in
  if r < 1 then None
  else
    let q = if r = r_target then target else float_of_int r /. float_of_int n in
    Some { q; value = s.(r - 1); n }

(* {1 Windows}

   The run is split into equal time windows, a statistic is taken in each
   window and the median over windows is reported. A host slowdown that
   covers part of the run then moves the figure less than it moves the
   same statistic over the pooled samples. *)

let split ~windows ~t0 ~t1 pts =
  let w = Array.make windows [] in
  Array.iter
    (fun (t, v) ->
      let i = int_of_float (float_of_int windows *. (t -. t0) /. (t1 -. t0)) in
      let i = max 0 (min (windows - 1) i) in
      w.(i) <- v :: w.(i))
    pts;
  Array.map (fun l -> Array.of_list (List.rev l)) w

(* Median over windows of [f] of each window's values ([None]: the
   window has too few samples for [f]); nan when no window qualifies. *)
let windowed ~windows ~t0 ~t1 f pts =
  median (Array.of_list (List.filter_map f (Array.to_list (split ~windows ~t0 ~t1 pts))))

let windowed_tail ~windows ~t0 ~t1 ~target pts =
  windowed ~windows ~t0 ~t1 (fun xs -> Option.map (fun t -> t.value) (tail ~target xs)) pts

(* Median over windows of events per second. *)
let windowed_rate ~windows ~t0 ~t1 times =
  let span = (t1 -. t0) /. float_of_int windows in
  windowed ~windows ~t0 ~t1
    (fun xs -> Some (float_of_int (Array.length xs) /. span))
    (Array.map (fun t -> (t, t)) times)

(* Average ranks (1-based), ties sharing the mean of their positions. *)
let ranks xs =
  let n = Array.length xs in
  let idx = Array.init n Fun.id in
  Array.sort (fun i j -> Float.compare xs.(i) xs.(j)) idx;
  let r = Array.make n 0. in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && xs.(idx.(!j + 1)) = xs.(idx.(!i)) do incr j done;
    let avg = float_of_int (!i + !j + 2) /. 2. in
    for k = !i to !j do r.(idx.(k)) <- avg done;
    i := !j + 1
  done;
  r

let pearson xs ys =
  let n = Array.length xs in
  if n < 2 || n <> Array.length ys then None
  else
    let mean a = Array.fold_left ( +. ) 0. a /. float_of_int n in
    let mx = mean xs and my = mean ys in
    let sxy = ref 0. and sxx = ref 0. and syy = ref 0. in
    for i = 0 to n - 1 do
      let dx = xs.(i) -. mx and dy = ys.(i) -. my in
      sxy := !sxy +. (dx *. dy);
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy)
    done;
    if !sxx = 0. || !syy = 0. then None
    else Some (!sxy /. sqrt (!sxx *. !syy))

let spearman xs ys =
  if Array.length xs <> Array.length ys then None
  else pearson (ranks xs) (ranks ys)

(* {1 Open loop} *)

(* One request of an open-loop schedule, all times in seconds on one
   clock. [completed] is [infinity] for a request that failed or was
   refused, so it misses every latency limit. *)
type request = { due : float; submitted : float; completed : float }

let due_times ~start ~rate n =
  Array.init n (fun i -> start +. (float_of_int i /. rate))

(* Latency counts from when the request was due, so a stalled generator
   charges its stall to every request it delayed. *)
let latency r = r.completed -. r.due

let lateness r = r.submitted -. r.due

(* Least-squares slope of (time, outstanding requests) samples. *)
let slope pts =
  let n = Array.length pts in
  if n < 2 then None
  else
    let xs = Array.map fst pts and ys = Array.map snd pts in
    let mean a = Array.fold_left ( +. ) 0. a /. float_of_int n in
    let mx = mean xs and my = mean ys in
    let sxy = ref 0. and sxx = ref 0. in
    Array.iteri
      (fun i x ->
        sxy := !sxy +. ((x -. mx) *. (ys.(i) -. my));
        sxx := !sxx +. ((x -. mx) *. (x -. mx)))
      xs;
    if !sxx = 0. then None else Some (!sxy /. !sxx)

(* The backlog grows when outstanding work rises faster than
   [growth_share] of the offered rate. *)
let backlog_growing ?(growth_share = 0.05) ~rate pts =
  match slope pts with Some s -> s > growth_share *. rate | None -> false

type rung = { rate : float; tail_ms : float; growing : bool }

let meets ~limit_ms r = r.tail_ms <= limit_ms && not r.growing

(* The highest ladder rate that meets the limit; 0 when none does. *)
let max_rate ~limit_ms rungs =
  List.fold_left
    (fun acc r -> if meets ~limit_ms r && r.rate > acc then r.rate else acc)
    0. rungs

(* {1 The rate ladder}

   A fixed geometric grid of arrival rates, 5% apart. A run climbs it
   from a starting rung: upward while rungs meet the limit, stopping at
   the first that does not; when the starting rung misses, downward until
   one meets. *)

let ladder_base = 50.
let ladder_step = 1.05
let ladder_rate k = ladder_base *. (ladder_step ** float_of_int k)

(* The highest rung whose rate is at most [rate]; 0 below the grid. *)
let ladder_index rate =
  if rate < ladder_base then 0
  else int_of_float (Float.floor ((log (rate /. ladder_base) /. log ladder_step) +. 1e-9))

(* [probe k] runs rung [k]; [more ()] says whether there is time for
   another. Returns the rungs run, last first. *)
let climb ~limit_ms ~start ~probe ~more =
  let rec go k step acc =
    if k < 0 || not (more ()) then acc
    else
      let r = probe k in
      let ok = meets ~limit_ms r in
      if ok = (step > 0) then go (k + step) step (r :: acc) else r :: acc
  in
  let first = probe start in
  if meets ~limit_ms first then go (start + 1) 1 [ first ] else go (start - 1) (-1) [ first ]
