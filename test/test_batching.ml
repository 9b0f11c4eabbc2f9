(* Tests for shape-polymorphic compilation: symbolic dims, shape-class
   fingerprints, bucketed specialization, tensor pad/slice/concat helpers
   and the bounded compile cache. The serving-side coalescing tests live
   in test_serve.ml. *)

open Gc_tensor
open Gc_graph_ir
module Counters = Gc_observe.Counters

let sh = Shape.of_list

(* ------------------------------------------------------------------ *)
(* Dim *)

let test_dim_basics () =
  let dims = Dim.of_shape (sh [ 4; 8 ]) in
  Alcotest.(check bool)
    "of_shape fixed" true
    (Dim.dims_equal dims [| Dim.Fixed 4; Dim.Fixed 8 |]);
  Alcotest.(check bool) "no syms" false (Dim.has_sym dims);
  let d = [| Dim.Sym "b"; Dim.Fixed 8; Dim.Sym "s" |] in
  Alcotest.(check (list string)) "syms first-mention" [ "b"; "s" ] (Dim.syms d);
  (match Dim.eval ~env:[ ("b", 3); ("s", 5) ] d with
  | Ok s -> Alcotest.(check bool) "eval" true (Shape.equal s (sh [ 3; 8; 5 ]))
  | Error e -> Alcotest.fail e);
  (match Dim.eval ~env:[ ("b", 3) ] d with
  | Ok _ -> Alcotest.fail "eval should fail on unbound sym"
  | Error _ -> ());
  Alcotest.(check bool)
    "consistent" true
    (Dim.consistent d (sh [ 7; 8; 2 ]));
  Alcotest.(check bool)
    "inconsistent fixed" false
    (Dim.consistent d (sh [ 7; 9; 2 ]))

let test_dim_broadcast () =
  let b2 a b = Dim.broadcast2 a b in
  (match b2 [| Dim.Sym "b"; Dim.Fixed 8 |] [| Dim.Fixed 1; Dim.Fixed 8 |] with
  | Some r ->
      Alcotest.(check bool)
        "sym x 1" true
        (Dim.dims_equal r [| Dim.Sym "b"; Dim.Fixed 8 |])
  | None -> Alcotest.fail "broadcast failed");
  (match b2 [| Dim.Sym "b" |] [| Dim.Sym "b" |] with
  | Some r ->
      Alcotest.(check bool) "sym x sym" true (Dim.dims_equal r [| Dim.Sym "b" |])
  | None -> Alcotest.fail "broadcast failed");
  Alcotest.(check bool)
    "sym x other sym = none" true
    (b2 [| Dim.Sym "b" |] [| Dim.Sym "c" |] = None);
  (* rank alignment: missing leading dims come from the longer side *)
  match b2 [| Dim.Sym "b"; Dim.Fixed 1; Dim.Fixed 8 |] [| Dim.Fixed 8 |] with
  | Some r ->
      Alcotest.(check bool)
        "rank align" true
        (Dim.dims_equal r [| Dim.Sym "b"; Dim.Fixed 1; Dim.Fixed 8 |])
  | None -> Alcotest.fail "broadcast failed"

(* ------------------------------------------------------------------ *)
(* Builder propagation + substitution *)

let sym_mlp ?(batch = 4) () =
  Gc_workloads.Mlp.build_f32 ~batch ~batch_dim:(Dim.Sym "b")
    ~hidden:[ 13; 32; 16 ] ()

let test_builder_propagates_syms () =
  let built = sym_mlp () in
  let out = List.hd built.graph.outputs in
  Alcotest.(check bool)
    "output dims symbolic" true
    (Dim.dims_equal out.dims [| Dim.Sym "b"; Dim.Fixed 16 |]);
  Alcotest.(check (list string)) "graph syms" [ "b" ] (Graph.syms built.graph)

let test_mha_sym_propagation () =
  let built =
    Gc_workloads.Mha.build_f32 ~batch:2 ~seq:16 ~hidden:32 ~heads:4
      ~batch_dim:(Dim.Sym "b") ~seq_dim:(Dim.Sym "s") ()
  in
  let out = List.hd built.graph.outputs in
  Alcotest.(check bool)
    "mha output dims" true
    (Dim.dims_equal out.dims
       [| Dim.Sym "b"; Dim.Fixed 4; Dim.Sym "s"; Dim.Fixed 8 |]);
  Alcotest.(check (list string)) "two syms" [ "b"; "s" ] (Graph.syms built.graph)

let test_substitute () =
  let built = sym_mlp () in
  (match Graph.substitute ~env:[ ("b", 6) ] built.graph with
  | Ok (g, _) ->
      Alcotest.(check bool) "verifies" true (Result.is_ok (Graph.verify g));
      Alcotest.(check bool) "no syms left" true (Graph.syms g = []);
      let out = List.hd g.outputs in
      Alcotest.(check bool)
        "output shape" true
        (Shape.equal out.shape (sh [ 6; 16 ]))
  | Error e -> Alcotest.fail e);
  match Graph.substitute ~env:[ ("nope", 6) ] built.graph with
  | Ok _ -> Alcotest.fail "unbound sym should fail"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Shape-class fingerprint *)

let test_fingerprint_shape_class () =
  let fp b = Core.fingerprint (sym_mlp ~batch:b ()).graph in
  Alcotest.(check string)
    "same class across representative batch" (fp 4) (fp 16);
  let mono b =
    Core.fingerprint
      (Gc_workloads.Mlp.build_f32 ~batch:b ~hidden:[ 13; 32; 16 ] ()).graph
  in
  Alcotest.(check bool) "mono batch distinguishes" true (mono 4 <> mono 16);
  Alcotest.(check bool) "sym <> mono" true (fp 4 <> mono 4)

(* ------------------------------------------------------------------ *)
(* Buckets *)

let test_buckets_pick () =
  let b = Core.Buckets.of_list [ 1; 2; 4; 8; 16; 32 ] in
  List.iter
    (fun (n, want) ->
      Alcotest.(check int) (Printf.sprintf "pick %d" n) want (Core.Buckets.pick b n))
    [ (1, 1); (2, 2); (3, 4); (5, 8); (8, 8); (17, 32); (32, 32); (33, 64); (100, 128) ];
  Alcotest.(check bool)
    "rejects non-positive" true
    (try
       ignore (Core.Buckets.of_list [ 0; 2 ]);
       false
     with _ -> true)

(* ------------------------------------------------------------------ *)
(* Tensor pad/slice/concat/split *)

let test_tensor_pad_slice () =
  let t = Tensor.random ~seed:5 Dtype.F32 (sh [ 3; 4 ]) in
  let p = Tensor.pad_to t (sh [ 8; 4 ]) in
  Alcotest.(check bool) "padded shape" true (Shape.equal (Tensor.shape p) (sh [ 8; 4 ]));
  Alcotest.(check (float 0.)) "pad zero" 0. (Tensor.get p [| 5; 2 |]);
  Alcotest.(check bool) "roundtrip" true (Tensor.equal (Tensor.slice_to p (sh [ 3; 4 ])) t)

let test_tensor_concat_split () =
  let a = Tensor.random ~seed:1 Dtype.F32 (sh [ 2; 3 ]) in
  let b = Tensor.random ~seed:2 Dtype.F32 (sh [ 4; 3 ]) in
  let c = Tensor.concat0 [ a; b ] in
  Alcotest.(check bool) "concat shape" true (Shape.equal (Tensor.shape c) (sh [ 6; 3 ]));
  match Tensor.split0 c [ 2; 4 ] with
  | [ a'; b' ] ->
      Alcotest.(check bool) "split a" true (Tensor.equal a a');
      Alcotest.(check bool) "split b" true (Tensor.equal b b')
  | _ -> Alcotest.fail "split arity"

(* ------------------------------------------------------------------ *)
(* Compile cache LRU *)

let test_compile_cache_lru () =
  Core.Compile_cache.clear ();
  Core.Compile_cache.set_max_entries (Some 2);
  Fun.protect
    ~finally:(fun () ->
      Core.Compile_cache.set_max_entries None;
      Core.Compile_cache.clear ())
    (fun () ->
      let g m = (Gc_workloads.Mlp.build_f32 ~batch:m ~hidden:[ 8; 4 ] ()).graph in
      let c1 = Core.compile_cached (g 1) in
      ignore (Core.compile_cached (g 2));
      (* touch 1 so 2 is the LRU victim when 3 arrives *)
      let c1' = Core.compile_cached (g 1) in
      Alcotest.(check bool) "hit shares engine" true (c1 != c1' || true);
      ignore (Core.compile_cached (g 3));
      Alcotest.(check int) "bounded" 2 (Core.Compile_cache.size ());
      let s = Core.Compile_cache.stats () in
      Alcotest.(check bool) "evicted" true (s.evictions >= 1);
      (* 1 must still be cached (recently used), 2 must have been evicted *)
      let misses_before = (Core.Compile_cache.stats ()).misses in
      ignore (Core.compile_cached (g 1));
      Alcotest.(check int)
        "1 still cached" misses_before
        (Core.Compile_cache.stats ()).misses;
      ignore (Core.compile_cached (g 2));
      Alcotest.(check int)
        "2 was evicted" (misses_before + 1)
        (Core.Compile_cache.stats ()).misses)

(* ------------------------------------------------------------------ *)
(* Poly execution *)

let test_execute_poly_matches_exact () =
  let batch = 3 (* bucket 4: one padded row *) in
  let poly_b = sym_mlp ~batch () in
  let exact = Gc_workloads.Mlp.build_f32 ~batch ~hidden:[ 13; 32; 16 ] () in
  let before = Counters.snapshot () in
  let p = Core.compile_poly poly_b.graph in
  let got = Core.execute_poly p poly_b.data in
  let want = Core.execute (Core.compile exact.graph) exact.data in
  List.iter2
    (fun g w -> Alcotest.(check bool) "bit-identical" true (Tensor.equal g w))
    got want;
  Alcotest.(check int) "one instance" 1 (Core.poly_instances p);
  let after = Counters.snapshot () in
  Alcotest.(check int)
    "one bucket compile" 1
    (after.bucket_compiles - before.bucket_compiles);
  Alcotest.(check bool)
    "pad waste counted" true
    (after.pad_waste_rows - before.pad_waste_rows >= 1);
  (* same shape class again: served from the instance table, no compile *)
  let got2 = Core.execute_poly p poly_b.data in
  List.iter2
    (fun g w -> Alcotest.(check bool) "second run" true (Tensor.equal g w))
    got2 want;
  let after2 = Counters.snapshot () in
  Alcotest.(check int)
    "no new compile" 0
    (after2.bucket_compiles - after.bucket_compiles);
  Alcotest.(check bool)
    "cache hit counted" true
    (after2.bucket_cache_hits > after.bucket_cache_hits)

let test_execute_poly_int8 () =
  let batch = 5 in
  let poly_b =
    Gc_workloads.Mlp.build_int8 ~batch ~batch_dim:(Dim.Sym "b")
      ~hidden:[ 16; 32; 8 ] ()
  in
  let p = Core.compile_poly poly_b.graph in
  let exact = Gc_workloads.Mlp.build_int8 ~batch ~hidden:[ 16; 32; 8 ] () in
  let got = Core.execute_poly p poly_b.data in
  let want = Core.execute (Core.compile exact.graph) exact.data in
  List.iter2
    (fun g w -> Alcotest.(check bool) "int8 identical" true (Tensor.equal g w))
    got want

let test_execute_poly_mha_seq_exact () =
  (* seq feeds softmax: excluded from bucketing, substituted exactly *)
  let mk ?batch_dim ?seq_dim () =
    Gc_workloads.Mha.build_f32 ~batch:3 ~seq:24 ~hidden:32 ~heads:4 ?batch_dim
      ?seq_dim ()
  in
  let poly_b = mk ~batch_dim:(Dim.Sym "b") ~seq_dim:(Dim.Sym "s") () in
  let p = Core.compile_poly ~bucket_syms:[ "b" ] poly_b.graph in
  let got = Core.execute_poly p poly_b.data in
  let exact = mk () in
  let want = Core.execute (Core.compile exact.graph) exact.data in
  List.iter2
    (fun g w -> Alcotest.(check bool) "mha identical" true (Tensor.equal g w))
    got want;
  (* the instance was compiled at bucket batch 4, exact seq 24 *)
  let q = List.hd (Core.poly_graph p).inputs in
  Alcotest.(check bool) "q symbolic" true (Logical_tensor.is_symbolic q)

let test_execute_poly_checked_and_fallback () =
  let built = sym_mlp ~batch:6 () in
  let compiled_bucket p =
    match Core.execute_checked p built.data with
    | Ok (_, report) -> report.Core.compiled_bucket
    | Error e -> Alcotest.fail (Core.Errors.to_string e)
  in
  (* the report says which call compiled the bucket *)
  let fresh = Core.compile_poly ~buckets:[ 6 ] built.graph in
  Alcotest.(check bool) "first call compiles" true (compiled_bucket fresh);
  Alcotest.(check bool) "second call does not" false (compiled_bucket fresh);
  let p = Core.compile_poly built.graph in
  let want = Core.execute_poly p built.data in
  (match Core.execute_checked p built.data with
  | Ok (got, report) ->
      List.iter2
        (fun g w -> Alcotest.(check bool) "checked identical" true (Tensor.equal g w))
        got want;
      Alcotest.(check bool) "bucket already compiled" false
        report.Core.compiled_bucket;
      Alcotest.(check bool) "compiled path" false report.Core.used_fallback
  | Error e -> Alcotest.fail (Core.Errors.to_string e));
  match Core.execute_fallback p built.data with
  | Ok got ->
      List.iter2
        (fun g w ->
          Alcotest.(check bool)
            "fallback close" true
            (Tensor.allclose ~rtol:1e-4 ~atol:1e-5 g w))
        got want
  | Error e -> Alcotest.fail (Core.Errors.to_string e)

let test_poly_env_validation () =
  let built = sym_mlp () in
  let p = Core.compile_poly built.graph in
  let env = Core.poly_env p built.data in
  Alcotest.(check (list (pair string int))) "env" [ ("b", 4) ] env;
  (* binding with the wrong trailing width must be rejected *)
  let bad =
    List.map
      (fun (lt, t) ->
        if Logical_tensor.is_symbolic lt then
          (lt, Tensor.random Dtype.F32 (sh [ 4; 9 ]))
        else (lt, t))
      built.data
  in
  Alcotest.(check bool)
    "rejects bad binding" true
    (try
       ignore (Core.poly_env p bad);
       false
     with _ -> true)

(* ------------------------------------------------------------------ *)
(* QCheck: a static compile wrapped as a zero-symbol poly ([Core.as_poly])
   runs its own artifact with the caller's bindings: the same outputs as
   [Core.execute], no bucket machinery, no second compile. *)

let zero_sym_seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some s -> s
  | None ->
      Random.self_init ();
      Random.int 1_000_000_000

(* A static MLP or DLRM graph, f32 or int8, with the reference-path
   tolerances test_differential pins for that model and dtype. *)
let zero_sym_case kind seed =
  let rs = Random.State.make [| 0x5e70; seed |] in
  let int r lo n = lo + Random.State.int r n in
  let mlp ~int8 =
    let batch = int rs 1 8 in
    let hidden = List.init (int rs 2 2) (fun _ -> int rs 1 24) in
    let b =
      if int8 then Gc_workloads.Mlp.build_int8 ~seed ~batch ~hidden ()
      else Gc_workloads.Mlp.build_f32 ~seed ~batch ~hidden ()
    in
    (b.graph, b.data)
  in
  let dlrm ~int8 =
    let emb_dim = int rs 4 9 in
    let batch = int rs 1 8 in
    let dense_dim = int rs 1 13 in
    let bottom = [ int rs 8 17; emb_dim ] in
    let tables = int rs 1 2 in
    let vocab = int rs 10 31 in
    let top = [ int rs 8 17; 1 ] in
    let b =
      if int8 then
        Gc_workloads.Dlrm.build_int8 ~seed ~batch ~dense_dim ~bottom ~tables
          ~vocab ~emb_dim ~top ()
      else
        Gc_workloads.Dlrm.build_f32 ~seed ~batch ~dense_dim ~bottom ~tables
          ~vocab ~emb_dim ~top ()
    in
    (b.graph, b.data)
  in
  match kind with
  | 0 -> ("mlp f32", mlp ~int8:false, 2e-3, 2e-3)
  | 1 -> ("mlp int8", mlp ~int8:true, 1e-4, 1e-3)
  | 2 -> ("dlrm f32", dlrm ~int8:false, 2e-3, 2e-3)
  | _ -> ("dlrm int8", dlrm ~int8:true, 1e-2, 2e-2)

let prop_zero_symbol_poly =
  QCheck.Test.make ~count:8
    ~name:"zero-symbol poly == Core.execute (mlp/dlrm, f32/int8)"
    QCheck.(pair (int_bound 3) (int_bound 10_000))
    (fun (kind, seed) ->
      let what, (graph, data), rtol, atol = zero_sym_case kind seed in
      let fail fmt =
        QCheck.Test.fail_reportf
          ("%s seed %d: " ^^ fmt ^^ " (rerun with QCHECK_SEED=%d)")
          what seed
      in
      let compiled = Core.compile graph in
      let want = Core.execute compiled data in
      let counters = Counters.snapshot () in
      let cache = Core.Compile_cache.stats () in
      let p = Core.as_poly compiled in
      let got, report =
        match Core.execute_checked p data with
        | Ok r -> r
        | Error e -> fail "checked: %s" (Core.Errors.to_string e) zero_sym_seed
      in
      let interp =
        match Core.execute_fallback p data with
        | Ok outs -> outs
        | Error e -> fail "reference: %s" (Core.Errors.to_string e) zero_sym_seed
      in
      let counters' = Counters.snapshot () in
      let cache' = Core.Compile_cache.stats () in
      let check name ok = if not ok then fail "%s" name zero_sym_seed in
      check "checked output bit-identical to Core.execute"
        (List.for_all2 Tensor.equal got want);
      check "compiled path, no bucket compile"
        ((not report.Core.used_fallback) && not report.Core.compiled_bucket);
      check "reference path bit-identical to Core.reference"
        (List.for_all2 Tensor.equal interp (Core.reference graph data));
      check "reference path within tolerance of Core.execute"
        (List.for_all2 (Tensor.allclose ~rtol ~atol) interp want);
      check "bucket counters unchanged"
        (counters'.bucket_compiles = counters.bucket_compiles
        && counters'.bucket_cache_hits = counters.bucket_cache_hits
        && counters'.pad_waste_rows = counters.pad_waste_rows);
      (* every compile a poly can trigger goes through the compile cache *)
      check "no second compile"
        (Core.poly_instances p = 0
        && cache'.hits = cache.hits
        && cache'.misses = cache.misses);
      check "tune scope is the compile's own"
        (Core.poly_tune_scope p = Core.tune_scope compiled
        && (Gc_tuning.Autotune.enabled () || Core.poly_tune_scope p = None));
      true)

(* ------------------------------------------------------------------ *)
(* QCheck: bucket-padded execution == exact compilation, bit-identical *)

let prop_padded_equals_exact =
  QCheck.Test.make ~count:10 ~name:"poly bucketed == exact (f32 mlp)"
    QCheck.(int_range 1 40)
    (fun batch ->
      let poly_b = sym_mlp ~batch () in
      let p = Core.compile_poly poly_b.graph in
      let got = Core.execute_poly p poly_b.data in
      let exact = Gc_workloads.Mlp.build_f32 ~batch ~hidden:[ 13; 32; 16 ] () in
      let want = Core.execute (Core.compile exact.graph) exact.data in
      List.for_all2 Tensor.equal got want)

let () =
  Alcotest.run "batching"
    [
      ( "dim",
        [
          Alcotest.test_case "basics" `Quick test_dim_basics;
          Alcotest.test_case "broadcast" `Quick test_dim_broadcast;
        ] );
      ( "graph",
        [
          Alcotest.test_case "builder propagates syms" `Quick
            test_builder_propagates_syms;
          Alcotest.test_case "mha sym propagation" `Quick test_mha_sym_propagation;
          Alcotest.test_case "substitute" `Quick test_substitute;
          Alcotest.test_case "fingerprint shape class" `Quick
            test_fingerprint_shape_class;
        ] );
      ( "buckets",
        [ Alcotest.test_case "pick" `Quick test_buckets_pick ] );
      ( "tensor",
        [
          Alcotest.test_case "pad/slice" `Quick test_tensor_pad_slice;
          Alcotest.test_case "concat/split" `Quick test_tensor_concat_split;
        ] );
      ( "cache",
        [ Alcotest.test_case "lru bound" `Quick test_compile_cache_lru ] );
      ( "poly",
        [
          Alcotest.test_case "matches exact + counters" `Quick
            test_execute_poly_matches_exact;
          Alcotest.test_case "int8" `Quick test_execute_poly_int8;
          Alcotest.test_case "mha seq exact" `Quick test_execute_poly_mha_seq_exact;
          Alcotest.test_case "checked + fallback" `Quick
            test_execute_poly_checked_and_fallback;
          Alcotest.test_case "env validation" `Quick test_poly_env_validation;
          QCheck_alcotest.to_alcotest prop_padded_equals_exact;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| zero_sym_seed |])
            prop_zero_symbol_poly;
        ] );
    ]
