(* Measured-autotuning suite (PR 8): tuning-DB round-trips, atomic
   concurrent persistence, corruption handling (a bad DB must degrade to
   the static model, never fail a compile), the load-time drift guard for
   invalid persisted tiles, the sync tune end-to-end (tune -> persist ->
   reload -> DB hit), the absent-DB static-equality pin, and the serving
   layer's online demotion path. *)

open Gc_tensor
open Gc_workloads
module Machine = Gc_microkernel.Machine
module Heuristic = Gc_lowering.Heuristic
module Params = Gc_lowering.Params
module Tune_db = Gc_tuning.Tune_db
module Autotune = Gc_tuning.Autotune
module Counters = Gc_observe.Counters
module Parallel = Gc_runtime.Parallel
module Serve = Gc_serve

let machine = Machine.test_machine
let seq_pool = Parallel.create 1

let compile_config () =
  { (Core.default_config ~machine ()) with Core.pool = Some seq_pool }

(* Every test drives the process-global policy: force a known-clean state
   on entry and restore the ambient (env-derived, i.e. off) state on
   exit, so test order never matters. *)
let with_policy ?db_path ?(budget_ms = 20) mode f =
  Autotune.drain_background ();
  Autotune.reset ();
  Autotune.set_db_path db_path;
  Autotune.set_budget_ms (Some budget_ms);
  Autotune.set_mode mode;
  Fun.protect f ~finally:(fun () ->
      Autotune.drain_background ();
      Autotune.set_mode Autotune.Off;
      Autotune.set_db_path None;
      Autotune.set_budget_ms None;
      Autotune.reset ())

let tmp_db () =
  let p = Filename.temp_file "gc_tune_test" ".json" in
  Sys.remove p;
  p

let rm p = try Sys.remove p with Sys_error _ -> ()
let rm_db p = rm p; rm (p ^ ".lock")

(* a DB entry whose tile is the static heuristic's own choice for the
   problem — guaranteed [Ukernel_cost.valid] on [machine] *)
let mk_entry ?(key = "scope0#0#matmul#f32#post:#m") ?(e_machine = Machine.descriptor machine)
    ?(m = 32) ?(n = 32) ?(k = 32) ?(measured_at = 0.) ?tile () =
  let p = Heuristic.choose ~machine ~dtype:Dtype.F32 ~m ~n ~k () in
  let mb, nb, kb, bs =
    match tile with Some t -> t | None -> (p.Params.mb, p.Params.nb, p.Params.kb, p.Params.bs)
  in
  {
    Tune_db.e_key = key;
    e_op = "matmul";
    e_m = m;
    e_n = n;
    e_k = k;
    e_batch = 1;
    e_dtype = "f32";
    e_post_ops = "";
    e_machine;
    e_mpn = p.Params.mpn;
    e_npn = p.Params.npn;
    e_kpn = 1;
    e_mb = mb;
    e_nb = nb;
    e_kb = kb;
    e_bs = bs;
    e_loop_order = p.Params.loop_order;
    e_expected_ms = 0.5;
    e_static_ms = 1.0;
    e_measured_at = measured_at;
  }

let sorted_keys db =
  List.sort compare (List.map (fun e -> e.Tune_db.e_key) (Tune_db.entries db))

(* ------------------------------------------------------------------ *)
(* Round-trip *)

let test_db_roundtrip () =
  let path = tmp_db () in
  Fun.protect ~finally:(fun () -> rm_db path) @@ fun () ->
  let d = Tune_db.create () in
  Tune_db.store d (mk_entry ~key:"sA#0#matmul#f32#post:relu#m" ());
  Tune_db.store d (mk_entry ~key:"sA#1#matmul#f32#post:#m" ~m:8 ~n:64 ~k:128 ());
  (* a foreign machine's entry must survive the round-trip verbatim even
     though it is unreachable here *)
  Tune_db.store d
    (mk_entry ~key:"sB#0#matmul#f32#post:#other" ~e_machine:"elsewhere|c99" ());
  Tune_db.save path d;
  let d' = Tune_db.load ~machine path in
  Alcotest.(check (list string)) "same keys" (sorted_keys d) (sorted_keys d');
  let e = Option.get (Tune_db.lookup d' "sA#1#matmul#f32#post:#m") in
  Alcotest.(check int) "m" 8 e.Tune_db.e_m;
  Alcotest.(check int) "k" 128 e.Tune_db.e_k;
  Alcotest.(check (float 1e-9)) "expected_ms" 0.5 e.Tune_db.e_expected_ms;
  Alcotest.(check string) "machine" "elsewhere|c99"
    (Option.get (Tune_db.lookup d' "sB#0#matmul#f32#post:#other")).Tune_db.e_machine

(* ------------------------------------------------------------------ *)
(* Concurrent writers: two REAL processes hammer the same DB file. The
   advisory lockf + merge-on-save contract makes them additive — the
   final file holds the union of both writers' entries (whole and
   parseable; the rename keeps readers torn-free), and a key both
   contend on resolves to the newest measurement. *)

let test_db_concurrent_writers () =
  let path = tmp_db () in
  Fun.protect ~finally:(fun () -> rm_db path) @@ fun () ->
  let rounds = 12 and entries_per = 5 in
  let db_of w =
    let d = Tune_db.create () in
    for i = 0 to entries_per - 1 do
      Tune_db.store d
        (mk_entry ~key:(Printf.sprintf "w%d#%d#matmul#f32#post:#m" w i) ())
    done;
    (* both writers store the same shared key with different timestamps:
       the merge must keep the newer one no matter the save order *)
    Tune_db.store d
      (mk_entry ~key:"shared#0#matmul#f32#post:#m"
         ~measured_at:(float_of_int (100 + w)) ());
    d
  in
  let spawn w =
    (* build the entries pre-fork; the child does pure file work and
       [_exit]s so it cannot double-run at_exit hooks or flush inherited
       buffers *)
    let d = db_of w in
    match Unix.fork () with
    | 0 ->
        (try
           for _ = 1 to rounds do
             Tune_db.save path d
           done
         with _ -> Unix._exit 1);
        Unix._exit 0
    | pid -> pid
  in
  let pids = [ spawn 0; spawn 1 ] in
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "writer process failed")
    pids;
  let d' = Tune_db.load ~machine path in
  let keys = sorted_keys d' in
  Alcotest.(check int) "union of both writers" ((2 * entries_per) + 1)
    (List.length keys);
  List.iter
    (fun w ->
      for i = 0 to entries_per - 1 do
        let k = Printf.sprintf "w%d#%d#matmul#f32#post:#m" w i in
        Alcotest.(check bool) (k ^ " survived") true (Tune_db.lookup d' k <> None)
      done)
    [ 0; 1 ];
  let shared = Option.get (Tune_db.lookup d' "shared#0#matmul#f32#post:#m") in
  Alcotest.(check (float 1e-9)) "newest measurement wins the merge" 101.
    shared.Tune_db.e_measured_at;
  (* no temp droppings left behind (the .lock sidecar is expected) *)
  let dir = Filename.dirname path and base = Filename.basename path in
  let leftovers =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f ->
           String.length f > String.length base
           && String.sub f 0 (String.length base) = base
           && f <> base ^ ".lock")
  in
  Alcotest.(check (list string)) "no temp files" [] leftovers

(* Merge must not resurrect a demoted scope: [drop_disk] (what
   [Autotune]'s demotion tombstones pass) vetoes the disk copy, while
   rows measured after the demotion would pass through. *)

let test_db_merge_demote_tombstone () =
  let path = tmp_db () in
  Fun.protect ~finally:(fun () -> rm_db path) @@ fun () ->
  let a = Tune_db.create () in
  Tune_db.store a (mk_entry ~key:"sA#0#matmul#f32#post:#m" ~measured_at:10. ());
  Tune_db.store a (mk_entry ~key:"sB#0#matmul#f32#post:#m" ~measured_at:10. ());
  Tune_db.save path a;
  (* a second writer that never held sA demoted it at t=20: its save must
     drop sA's stale disk row but still merge sB in *)
  let b = Tune_db.create () in
  Tune_db.store b (mk_entry ~key:"sC#0#matmul#f32#post:#m" ~measured_at:15. ());
  let drop_disk e =
    Tune_db.scope_of_key e.Tune_db.e_key = "sA"
    && e.Tune_db.e_measured_at <= 20.
  in
  Tune_db.save ~drop_disk path b;
  let d' = Tune_db.load ~machine path in
  Alcotest.(check (list string))
    "sA dropped, sB merged, sC kept"
    [ "sB#0#matmul#f32#post:#m"; "sC#0#matmul#f32#post:#m" ]
    (sorted_keys d');
  (* a post-demotion re-measurement of sA is newer than the tombstone and
     must survive the next merge *)
  let c = Tune_db.create () in
  Tune_db.store c (mk_entry ~key:"sA#0#matmul#f32#post:#m" ~measured_at:30. ());
  let drop_disk e =
    Tune_db.scope_of_key e.Tune_db.e_key = "sA"
    && e.Tune_db.e_measured_at <= 20.
  in
  Tune_db.save ~drop_disk path c;
  let d'' = Tune_db.load ~machine path in
  Alcotest.(check bool) "re-measured sA readmitted" true
    (Tune_db.lookup d'' "sA#0#matmul#f32#post:#m" <> None)

(* ------------------------------------------------------------------ *)
(* Corruption: load never raises, and a compile pointed at a corrupt DB
   must succeed with exactly the static model's parameters *)

let test_db_corruption_safe () =
  let path = tmp_db () in
  Fun.protect ~finally:(fun () -> rm_db path) @@ fun () ->
  let write s =
    let oc = open_out path in
    output_string oc s;
    close_out oc
  in
  let load_len () = List.length (Tune_db.entries (Tune_db.load ~machine path)) in
  Alcotest.(check int) "missing file -> empty" 0 (load_len ());
  write "this is not json {{{";
  Alcotest.(check int) "garbage -> empty" 0 (load_len ());
  write "{\"schema\": \"gc-tune-db/1\", \"entries\": [";
  Alcotest.(check int) "truncated -> empty" 0 (load_len ());
  write "{\"schema\": \"something-else/9\", \"entries\": []}";
  Alcotest.(check int) "wrong schema -> empty" 0 (load_len ());
  (* end to end: consult mode over the corrupt file — the compile must
     succeed, count a miss, and produce a working partition *)
  write "again { not , json";
  with_policy ~db_path:path ~budget_ms:5 Autotune.Consult @@ fun () ->
  let b = Mlp.build_f32 ~seed:3 ~batch:4 ~hidden:[ 6; 5 ] () in
  let s0 = Counters.snapshot () in
  let compiled = Core.compile ~config:(compile_config ()) b.Mlp.graph in
  let s1 = Counters.snapshot () in
  Alcotest.(check bool) "counted a miss" true
    (s1.Counters.tune_db_misses > s0.Counters.tune_db_misses);
  ignore (Core.execute compiled b.Mlp.data)

(* ------------------------------------------------------------------ *)
(* Drift guard at load: a persisted tile for THIS machine that fails
   [Ukernel_cost.valid] is rejected (with a counter bump), not applied *)

let test_db_load_drift_guard () =
  let path = tmp_db () in
  Fun.protect ~finally:(fun () -> rm_db path) @@ fun () ->
  let d = Tune_db.create () in
  Tune_db.store d (mk_entry ~key:"ok#0#matmul#f32#post:#m" ());
  (* a tile that cannot fit any L1: invalid here, but the same tile under
     a foreign machine descriptor must be kept (not ours to judge) *)
  Tune_db.store d
    (mk_entry ~key:"bad#0#matmul#f32#post:#m" ~tile:(4096, 4096, 4096, 1) ());
  Tune_db.store d
    (mk_entry ~key:"foreign#0#matmul#f32#post:#m" ~e_machine:"elsewhere|c99"
       ~tile:(4096, 4096, 4096, 1) ());
  Tune_db.save path d;
  let s0 = Counters.snapshot () in
  let d' = Tune_db.load ~machine path in
  let s1 = Counters.snapshot () in
  Alcotest.(check (list string))
    "invalid local tile dropped"
    [ "foreign#0#matmul#f32#post:#m"; "ok#0#matmul#f32#post:#m" ]
    (sorted_keys d');
  Alcotest.(check bool) "tune_rejects bumped" true
    (s1.Counters.tune_rejects > s0.Counters.tune_rejects)

(* params_for re-validation at lookup time: the stored winner is re-aimed
   at the actual problem and grid-clamped; impossible tiles return None *)

let test_params_for_revalidation () =
  let e = mk_entry ~m:64 ~n:64 ~k:64 () in
  (match
     Tune_db.params_for ~machine e ~m:64 ~n:64 ~k:64 ~batch:1 ~dtype:Dtype.F32
   with
  | None -> Alcotest.fail "valid entry rejected"
  | Some p ->
      Alcotest.(check int) "m" 64 p.Params.m;
      Alcotest.(check bool) "grid clamped" true
        (p.Params.mpn <= Params.mblocks p && p.Params.npn <= Params.nblocks p));
  let s0 = Counters.snapshot () in
  (match
     Tune_db.params_for ~machine
       (mk_entry ~tile:(4096, 4096, 4096, 1) ())
       ~m:64 ~n:64 ~k:64 ~batch:1 ~dtype:Dtype.F32
   with
  | None -> ()
  | Some _ -> Alcotest.fail "impossible tile accepted");
  let s1 = Counters.snapshot () in
  Alcotest.(check bool) "tune_rejects bumped" true
    (s1.Counters.tune_rejects > s0.Counters.tune_rejects)

(* ------------------------------------------------------------------ *)
(* Sync tune end to end: compile tunes, persists; a fresh policy state
   recompiling an isomorphic graph is served from the reloaded DB *)

let test_sync_tune_end_to_end () =
  let path = tmp_db () in
  Fun.protect ~finally:(fun () -> rm_db path) @@ fun () ->
  with_policy ~db_path:path ~budget_ms:20 Autotune.Sync @@ fun () ->
  let build () = Mlp.build_f32 ~seed:5 ~batch:4 ~hidden:[ 6; 5 ] () in
  let b = build () in
  let s0 = Counters.snapshot () in
  let compiled = Core.compile ~config:(compile_config ()) b.Mlp.graph in
  let s1 = Counters.snapshot () in
  Alcotest.(check bool) "tune ran" true
    (s1.Counters.tunes_run > s0.Counters.tunes_run);
  Alcotest.(check bool) "compile carries a tune scope" true
    (Core.tune_scope compiled <> None);
  let es = Autotune.entries () in
  Alcotest.(check bool) "entries recorded" true (es <> []);
  List.iter
    (fun e ->
      Alcotest.(check bool) "winner never worse than static" true
        (e.Tune_db.e_expected_ms <= e.Tune_db.e_static_ms +. 1e-9))
    es;
  (* outputs of the tuned schedule must still be correct *)
  let expect = Core.reference b.Mlp.graph b.Mlp.data in
  let got = Core.execute compiled b.Mlp.data in
  List.iter2
    (fun g e ->
      Alcotest.(check bool) "tuned output matches reference" true
        (Core.Tensor.allclose ~atol:1e-5 g e))
    got expect;
  (* fresh policy state: the on-disk DB must serve the recompile *)
  Autotune.reset ();
  Autotune.set_mode Autotune.Consult;
  let b' = build () in
  let s2 = Counters.snapshot () in
  ignore (Core.compile ~config:(compile_config ()) b'.Mlp.graph);
  let s3 = Counters.snapshot () in
  Alcotest.(check bool) "reloaded DB hit" true
    (s3.Counters.tune_db_hits > s2.Counters.tune_db_hits)

(* ------------------------------------------------------------------ *)
(* The absent-DB pin: tuning enabled over an empty database must choose
   EXACTLY what the static model chooses — pre-PR behavior, bit for bit *)

let test_absent_db_static_equality () =
  let path = tmp_db () in
  Fun.protect ~finally:(fun () -> rm_db path) @@ fun () ->
  with_policy ~db_path:path ~budget_ms:5 Autotune.Consult @@ fun () ->
  List.iter
    (fun (m, n, k) ->
      let static = Heuristic.choose ~machine ~dtype:Dtype.F32 ~m ~n ~k () in
      let key = Printf.sprintf "absent#0#matmul#f32#post:#%d_%d_%d" m n k in
      let consulted =
        Heuristic.choose ~machine ~dtype:Dtype.F32 ~tune_key:key ~m ~n ~k ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "params equal for %dx%dx%d" m n k)
        true (consulted = static))
    [ (33, 47, 29); (64, 64, 64); (6, 64, 256) ]

(* ------------------------------------------------------------------ *)
(* Online demotion: a handle whose latency EWMA loses 2x to its own best
   drops its scope's entries and queues background re-tunes *)

let test_serve_demotion () =
  let path = tmp_db () in
  Fun.protect ~finally:(fun () -> rm_db path) @@ fun () ->
  with_policy ~db_path:path ~budget_ms:20 Autotune.Sync @@ fun () ->
  let b = Mlp.build_f32 ~seed:9 ~batch:4 ~hidden:[ 6; 5 ] () in
  let compiled = Core.compile ~config:(compile_config ()) b.Mlp.graph in
  let scope = Option.get (Core.tune_scope compiled) in
  let in_scope () =
    List.filter
      (fun e -> Tune_db.scope_of_key e.Tune_db.e_key = scope)
      (Autotune.entries ())
  in
  Alcotest.(check bool) "tuned entries under the scope" true (in_scope () <> []);
  let cfg =
    {
      (Serve.default_config ()) with
      Serve.queue_depth = 4;
      workers = 1;
      retune_min_samples = 3;
    }
  in
  let server = Serve.create ~config:cfg () in
  Fun.protect ~finally:(fun () -> Serve.shutdown server) @@ fun () ->
  let h = Serve.register server compiled in
  let s0 = Counters.snapshot () in
  (* demonstrate a 1 ms expectation, then collapse to 10 ms *)
  for _ = 1 to 3 do
    Serve.observe_latency server h 1.0
  done;
  for _ = 1 to 6 do
    Serve.observe_latency server h 10.0
  done;
  let s1 = Counters.snapshot () in
  Alcotest.(check bool) "retune triggered" true
    (s1.Counters.retunes_triggered > s0.Counters.retunes_triggered);
  (* the demoted problems were re-queued: once the background worker
     drains, fresh measurements are back under the scope *)
  Autotune.drain_background ();
  Alcotest.(check bool) "re-tuned after demotion" true (in_scope () <> []);
  Alcotest.(check bool) "re-tune measured" true
    ((Counters.snapshot ()).Counters.tunes_run > s1.Counters.tunes_run)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "tuning"
    [
      ( "db",
        [
          Alcotest.test_case "round-trip" `Quick test_db_roundtrip;
          Alcotest.test_case "concurrent processes merge additively" `Quick
            test_db_concurrent_writers;
          Alcotest.test_case "merge honors demotion tombstones" `Quick
            test_db_merge_demote_tombstone;
          Alcotest.test_case "corruption degrades to static" `Quick
            test_db_corruption_safe;
          Alcotest.test_case "load rejects invalid persisted tiles" `Quick
            test_db_load_drift_guard;
          Alcotest.test_case "params_for revalidates" `Quick
            test_params_for_revalidation;
        ] );
      ( "policy",
        [
          Alcotest.test_case "sync tune end to end" `Quick
            test_sync_tune_end_to_end;
          Alcotest.test_case "absent DB equals static model" `Quick
            test_absent_db_static_equality;
        ] );
      ( "serve",
        [ Alcotest.test_case "online demotion" `Quick test_serve_demotion ] );
    ]
