(* perfbench: the repository benchmark.

     perfbench.exe --workload mlp1_f32|bert_int8|serve_mixed --seed N
                   --seconds S --trace 0|1 [--trace-out FILE] [--meta K=V]

   With --trace 0 it measures the end-to-end metrics; with --trace 1 it
   measures the per-layer metrics instead, by timing calls into each
   layer's public functions from the outside, and writes the spans it
   kept in memory as a gc-trace/1 document at exit. Every run checks
   outputs against the reference interpreter. The last line of standard
   output is one JSON object {"correct", "attempted", "failed",
   "metrics"}; the exit code is 1 when an output was wrong. README.md
   beside this file lists the metrics and what each should move. *)

open Gc_workloads
module Json = Gc_observe.Json
module Counters = Gc_observe.Counters
module Trace = Gc_observe.Trace
module Ostats = Gc_observe.Stats
module Parallel = Gc_runtime.Parallel
module Engine = Gc_runtime.Engine
module Ir = Gc_tensor_ir.Ir
module Intrinsic = Gc_tensor_ir.Intrinsic
module Buffer = Gc_tensor.Buffer
module Brgemm = Gc_microkernel.Brgemm
module Sim = Gc_perfsim.Sim
module Lt = Core.Logical_tensor
module Dim = Gc_graph_ir.Dim
module Tensor = Core.Tensor
module Serve = Gc_serve
module Registry = Gc_registry
module S = Perfbench_stats.Pb_stats

let now = Unix.gettimeofday

(* {1 Command line} *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let traced = ref false
let trace_out = ref ""
let meta = ref []

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME mlp1_f32 | bert_int8 | serve_mixed");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Int (fun i -> traced := i <> 0), "0|1 per-layer run");
      ("--trace-out", Arg.Set_string trace_out, "FILE where the traced run writes spans");
      ( "--meta",
        Arg.String
          (fun kv ->
            match String.index_opt kv '=' with
            | Some i ->
                meta :=
                  (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
                  :: !meta
            | None -> raise (Arg.Bad ("--meta wants KEY=VALUE: " ^ kv))),
        "KEY=VALUE run metadata to record" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1"

let nproc = max 1 (Domain.recommended_domain_count ())

(* {1 Measurement helpers} *)

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median_of l = S.median (Array.of_list l)

(* One-line JSON (the serializer of Gc_observe indents). *)
let rec compact (j : Json.t) =
  match j with
  | List l -> "[" ^ String.concat "," (List.map compact l) ^ "]"
  | Obj kvs ->
      "{"
      ^ String.concat "," (List.map (fun (k, v) -> compact (Json.String k) ^ ":" ^ compact v) kvs)
      ^ "}"
  | scalar -> Json.to_string ~indent:0 scalar

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f" (fun kb ->
                kb /. 1024.)
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* Domains alive at once, the main one included. *)
let domains_live = ref 1
let domains_peak = ref 1

let domains_started n =
  domains_live := !domains_live + n;
  domains_peak := max !domains_peak !domains_live

let make_pool threads =
  domains_started (threads - 1);
  Parallel.create threads

let drop_pool p =
  Parallel.shutdown p;
  domains_live := !domains_live - (Parallel.size p - 1)

let config pool = { (Core.default_config ()) with Core.pool = Some pool }

(* {1 Spans}

   Kept in memory, written at exit. A span names the layer call it
   times; [parent] is the span that was open around it, [req] the
   request it served (-1: none). *)
module Spans = struct
  type span = { id : int; name : string; t0 : float; t1 : float; parent : int; req : int }

  let on = ref false
  let all = ref []
  let next = ref 0
  let stack = ref []
  let fresh () = let id = !next in incr next; id

  let add ?(parent = -1) ?(req = -1) name t0 t1 =
    if not !on then -1
    else begin
      let id = fresh () in
      let parent = if parent >= 0 then parent else match !stack with p :: _ -> p | [] -> -1 in
      all := { id; name; t0; t1; parent; req } :: !all;
      id
    end

  let with_ ?(req = -1) name f =
    if not !on then f ()
    else begin
      let id = fresh () in
      let parent = match !stack with p :: _ -> p | [] -> -1 in
      stack := id :: !stack;
      let t0 = now () in
      Fun.protect
        ~finally:(fun () ->
          stack := List.tl !stack;
          all := { id; name; t0; t1 = now (); parent; req } :: !all)
        f
    end

  let to_json epoch =
    Json.List
      (List.rev_map
         (fun s ->
           Json.Obj
             [
               ("id", Json.Int s.id);
               ("name", Json.String s.name);
               ("start_ms", Json.Float ((s.t0 -. epoch) *. 1e3));
               ("end_ms", Json.Float ((s.t1 -. epoch) *. 1e3));
               ("parent", Json.Int s.parent);
               ("request", Json.Int s.req);
             ])
         !all)
end

(* Seconds [f ()] takes, recorded as span [name]. *)
let span_time name f = snd (timed (fun () -> ignore (Spans.with_ name f)))

(* {1 Correctness} *)

let checks = ref 0
let mismatches = ref 0

let check ~what ~tol got want =
  incr checks;
  let ok =
    List.length got = List.length want
    && List.for_all2
         (fun g w ->
           Core.Shape.equal (Tensor.shape g) (Tensor.shape w)
           && Tensor.max_abs_diff g w <= tol)
         got want
  in
  if not ok then begin
    incr mismatches;
    let diff =
      try
        List.fold_left2 (fun m g w -> Float.max m (Tensor.max_abs_diff g w)) 0. got want
      with _ -> nan
    in
    Printf.printf "MISMATCH %s: max |diff| %g > %g\n%!" what diff tol
  end;
  ok

(* {1 Inputs} *)

(* Useful matmul FLOPs of one execution of [g] at its declared shapes. *)
let matmul_flops (g : Core.Graph.t) =
  List.fold_left
    (fun acc (op : Core.Op.t) ->
      match op.kind with
      | Core.Op_kind.Matmul ->
          let a = (List.hd op.inputs : Lt.t).shape in
          let k = Core.Shape.dim a (Core.Shape.rank a - 1) in
          acc +. (2. *. float_of_int (Core.Shape.numel (Core.Op.output op).shape) *. float_of_int k)
      | _ -> acc)
    0. g.ops

(* Request bindings: the compiled graph's own constant weights, the
   activations of another seeded build of the same model. *)
let with_activations ~(base : (Lt.t * Tensor.t) list) ~(from : (Lt.t * Tensor.t) list) =
  List.map2
    (fun ((lt : Lt.t), w) (_, a) -> if Lt.is_constant lt then (lt, w) else (lt, a))
    base from

let tol_f32 = 2e-3 (* EXPERIMENTS.md: model f32, accumulation-order noise *)
(* Int8: EXPERIMENTS.md names the mechanism, the f32 engine and the f64
   reference rounding a value near a quantization boundary to adjacent
   integers. Its 1e-2 pin holds at the golden seed only: over seeds 1..24
   half the BERT outputs differ by up to 0.113, about 1.4 steps of the
   activation scale (0.08). The bound is two such steps. *)
let tol_int8 = 2. *. 0.08

(* {1 Re-driving a compiled partition from outside}

   The same stages Core.compile runs, each called and timed on its own,
   then the entry function's calls replayed one by one with
   Engine.run_func over buffers allocated here. *)

type partition_call = {
  fname : string;
  args : Buffer.t array;
  mutable times : float list;
}

type redrive = {
  fused : Core.Fused_op.graph;
  lowered : Gc_lowering.Lower_graph.t;
  module_ : Ir.module_;
  tir_stats : Core.Tir_pipeline.stats;
  engine : Engine.t;
  entry_bufs : Buffer.t array;
  out_bufs : Buffer.t list;  (** graph outputs, declaration order *)
  calls : partition_call list;
  unattributed : int;  (** entry statements that are neither Alloc nor a call *)
  stage_ms : (string * float) list;
}

let redrive ~(cfg : Core.config) ~pool (graph : Core.Graph.t) bindings =
  let g, clone_map = Core.Graph.clone graph in
  let fused, t_gp =
    timed (fun () -> Spans.with_ "graph_passes" (fun () -> Core.Pipeline.run cfg.graph g))
  in
  let lowered, t_low =
    timed (fun () ->
        Spans.with_ "lowering" (fun () -> Gc_lowering.Lower_graph.lower fused))
  in
  let (module_, tir_stats), t_tir =
    timed (fun () ->
        Spans.with_ "tir_passes" (fun () ->
            Core.Tir_pipeline.run ~config:cfg.tir lowered.module_))
  in
  let engine, t_ec =
    timed (fun () ->
        Spans.with_ "runtime.engine_create" (fun () ->
            Engine.create ~pool ~fastpath:cfg.fastpath module_))
  in
  (* bindings by compiled-clone id *)
  let by_id = Hashtbl.create 16 in
  List.iter
    (fun ((lt : Lt.t), v) ->
      let id = match Hashtbl.find_opt clone_map lt.id with Some c -> c.Lt.id | None -> lt.id in
      Hashtbl.replace by_id id v)
    bindings;
  let (), t_init =
    timed (fun () ->
        Spans.with_ "runtime.init" (fun () ->
            let init_env =
              match fused.init with
              | None -> []
              | Some init ->
                  Core.Reference.eval_tensors init
                    (List.filter_map
                       (fun (lt : Lt.t) ->
                         Option.map (fun v -> (lt, v)) (Hashtbl.find_opt by_id lt.id))
                       init.inputs)
            in
            List.iter
              (fun ((lt : Lt.t), gt) ->
                let v =
                  match lt.property with
                  | Compile_const v -> v
                  | _ -> (
                      match List.assoc_opt lt.id init_env with
                      | Some v -> v
                      | None -> Hashtbl.find by_id lt.id)
                in
                Buffer.blit ~src:(Tensor.buffer v) ~dst:(Engine.global_buffer engine gt))
              lowered.globals;
            Engine.run_init engine [||]))
  in
  let entry_bufs =
    Array.of_list
      (List.map
         (fun ((lt : Lt.t), (t : Ir.tensor)) ->
           match Hashtbl.find_opt by_id lt.id with
           | Some v when not (List.exists (Lt.equal lt) fused.g_outputs) -> Tensor.buffer v
           | _ -> Buffer.create t.tdtype (Ir.tensor_numel t))
         lowered.entry_params)
  in
  let slot_of lt =
    let rec go i = function
      | [] -> None
      | ((l : Lt.t), _) :: rest -> if Lt.equal l lt then Some i else go (i + 1) rest
    in
    go 0 lowered.entry_params
  in
  let out_bufs =
    List.map
      (fun lt ->
        match slot_of lt with
        | Some i -> entry_bufs.(i)
        | None -> failwith "re-drive: graph output is not an entry parameter")
      fused.g_outputs
  in
  (* replay plan: one buffer per tensor the entry function names *)
  let entry = Ir.func_exn module_ module_.entry in
  let bufs = Hashtbl.create 16 in
  List.iteri
    (fun i p ->
      match p with Ir.Ptensor t -> Hashtbl.replace bufs t.Ir.tid entry_bufs.(i) | Ir.Pvar _ -> ())
    entry.params;
  let buf_of (t : Ir.tensor) =
    match t.storage with
    | Global -> Engine.global_buffer engine t
    | Param | Local -> (
        match Hashtbl.find_opt bufs t.tid with
        | Some b -> b
        | None ->
            let b = Buffer.create t.tdtype (Ir.tensor_numel t) in
            Hashtbl.replace bufs t.tid b;
            b)
  in
  let unattributed = ref 0 in
  let calls =
    List.filter_map
      (fun (s : Ir.stmt) ->
        match s with
        | Alloc t ->
            ignore (buf_of t);
            None
        | Call (name, args) when Intrinsic.lookup name = None ->
            if List.exists (function Ir.Addr _ -> false | _ -> true) args then begin
              incr unattributed;
              None
            end
            else
              let args =
                Array.of_list
                  (List.map (function Ir.Addr (t, _) -> buf_of t | _ -> assert false) args)
              in
              Some { fname = name; args; times = [] }
        | _ ->
            incr unattributed;
            None)
      entry.body
  in
  {
    fused;
    lowered;
    module_;
    tir_stats;
    engine;
    entry_bufs;
    out_bufs;
    calls;
    unattributed = !unattributed;
    stage_ms =
      [
        ("graph_passes", t_gp *. 1e3);
        ("lowering", t_low *. 1e3);
        ("tir_passes", t_tir *. 1e3);
        ("runtime.engine_create", t_ec *. 1e3);
        ("runtime.init", t_init *. 1e3);
      ];
  }

let replay_partitions rd =
  List.iter
    (fun c ->
      let (), dt =
        timed (fun () ->
            Spans.with_ ("runtime.partition:" ^ c.fname) (fun () ->
                Engine.run_func rd.engine c.fname c.args))
      in
      c.times <- dt :: c.times)
    rd.calls

(* {1 Microkernel shapes}

   Every brgemm the partitions execute per request, found by walking the
   called functions with loop variables bound to each iteration. *)

type bshape = { dt : Core.Dtype.t; batch : int; mb : int; nb : int; kb : int }

let brgemm_histogram (m : Ir.module_) (fnames : string list) =
  let hist = Hashtbl.create 16 in
  let env = Hashtbl.create 16 in
  let rec ev (e : Ir.expr) =
    match e with
    | Int i -> i
    | Var v -> Hashtbl.find env v.vid
    | Binop (op, a, b) -> (
        let a = ev a and b = ev b in
        match op with
        | Add -> a + b
        | Sub -> a - b
        | Mul -> a * b
        | Div -> a / b
        | Mod -> a mod b
        | Min -> min a b
        | Max -> max a b
        | Lt -> Bool.to_int (a < b)
        | Le -> Bool.to_int (a <= b)
        | Gt -> Bool.to_int (a > b)
        | Ge -> Bool.to_int (a >= b)
        | Eq -> Bool.to_int (a = b)
        | Ne -> Bool.to_int (a <> b)
        | And -> Bool.to_int (a <> 0 && b <> 0)
        | Or -> Bool.to_int (a <> 0 || b <> 0))
    | Select (c, a, b) -> if ev c <> 0 then ev a else ev b
    | _ -> raise Not_found
  in
  let rec walk (body : Ir.stmt list) =
    List.iter
      (fun (s : Ir.stmt) ->
        match s with
        | Assign (v, e) when v.vty = Ir.Index -> (
            match ev e with
            | x -> Hashtbl.replace env v.vid x
            | exception (Not_found | Division_by_zero) -> Hashtbl.remove env v.vid)
        | For l -> (
            match (ev l.lo, ev l.hi, ev l.step) with
            | lo, hi, step when step > 0 ->
                let i = ref lo in
                while !i < hi do
                  Hashtbl.replace env l.v.vid !i;
                  walk l.body;
                  i := !i + step
                done;
                Hashtbl.remove env l.v.vid
            | _ -> walk l.body
            | exception (Not_found | Division_by_zero) -> walk l.body)
        | If (c, a, b) -> (
            match ev c with
            | x -> walk (if x <> 0 then a else b)
            | exception (Not_found | Division_by_zero) -> walk a)
        | Call ("brgemm", [ batch; mb; nb; kb; Addr (a, _); _; _; _; _ ]) -> (
            match (ev batch, ev mb, ev nb, ev kb) with
            | batch, mb, nb, kb ->
                let k = { dt = a.tdtype; batch; mb; nb; kb } in
                Hashtbl.replace hist k (1 + Option.value ~default:0 (Hashtbl.find_opt hist k))
            | exception (Not_found | Division_by_zero) -> ())
        | _ -> ())
      body
  in
  List.iter (fun f -> walk (Ir.func_exn m f).body) fnames;
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) hist []

(* Seconds per call of the microkernel alone at one shape, operands hot
   in cache. *)
let time_brgemm (s : bshape) =
  let a_n = s.batch * s.mb * s.kb and b_n = s.batch * s.nb * s.kb in
  let a_offs = Array.init s.batch (fun i -> i * s.mb * s.kb) in
  let b_offs = Array.init s.batch (fun i -> i * s.nb * s.kb) in
  let run =
    match s.dt with
    | Core.Dtype.U8 ->
        let a = Buffer.as_u8 (Buffer.create Core.Dtype.U8 a_n) in
        let b = Buffer.as_s8 (Buffer.create Core.Dtype.S8 b_n) in
        let c = Buffer.as_s32 (Buffer.create Core.Dtype.S32 (s.mb * s.nb)) in
        fun () ->
          Brgemm.u8s8s32 ~batch:s.batch ~mb:s.mb ~nb:s.nb ~kb:s.kb ~a ~a_offs ~b ~b_offs ~c
            ~c_off:0
    | Core.Dtype.S8 ->
        let a = Buffer.as_s8 (Buffer.create Core.Dtype.S8 a_n) in
        let b = Buffer.as_s8 (Buffer.create Core.Dtype.S8 b_n) in
        let c = Buffer.as_s32 (Buffer.create Core.Dtype.S32 (s.mb * s.nb)) in
        fun () ->
          Brgemm.s8s8s32 ~batch:s.batch ~mb:s.mb ~nb:s.nb ~kb:s.kb ~a ~a_offs ~b ~b_offs ~c
            ~c_off:0
    | _ ->
        let a = Buffer.as_f32 (Buffer.create Core.Dtype.F32 a_n) in
        let b = Buffer.as_f32 (Buffer.create Core.Dtype.F32 b_n) in
        let c = Buffer.as_f32 (Buffer.create Core.Dtype.F32 (s.mb * s.nb)) in
        fun () ->
          Brgemm.f32 ~batch:s.batch ~mb:s.mb ~nb:s.nb ~kb:s.kb ~a ~a_offs ~b ~b_offs ~c ~c_off:0
  in
  run ();
  (* double the batch of calls until one takes about 2 ms, then the
     median per-call time of nine such batches *)
  let per_batch = ref 1 in
  let t0 = now () in
  while now () -. t0 < 0.002 do
    for _ = 1 to !per_batch do run () done;
    per_batch := !per_batch * 2
  done;
  let samples =
    List.init 9 (fun _ ->
        let (), dt = timed (fun () -> for _ = 1 to !per_batch do run () done) in
        dt /. float_of_int !per_batch)
  in
  median_of samples

(* {1 Per-layer probes on one compiled graph} *)

(* The traced run's document: the re-driven compile stages as pass
   events, spans and the attribution table as a bench section. *)
let trace = Trace.create ()

let layer_metrics = ref []
let put name unit v = layer_metrics := (name, (v, unit)) :: !layer_metrics

type probe = {
  pr_name : string;
  pr_graph : Core.Graph.t;
  pr_bindings : (Lt.t * Tensor.t) list;
  pr_core : Core.t;  (** compiled under the workload's own pool *)
  pr_pool : Parallel.t;
  pr_tol : float;
}

let attribution_rows = ref []

let layer_probe pb =
  let cfg = Core.config_of pb.pr_core in
  (* compile stages, repeated when they are quick *)
  let compile_stage () =
    let rd = redrive ~cfg ~pool:pb.pr_pool pb.pr_graph pb.pr_bindings in
    let t_core = span_time "core.compile" (fun () -> Core.compile ~config:cfg pb.pr_graph) in
    (rd, ("core.compile", t_core *. 1e3) :: rd.stage_ms)
  in
  let rd, first = compile_stage () in
  let ms name = List.assoc name first in
  let graph_s = Ostats.of_graph pb.pr_graph and fused_s = Ostats.of_fused rd.fused in
  let lowered_s = Ostats.of_module rd.lowered.module_ and tir_s = Ostats.of_module rd.module_ in
  List.iter
    (fun (stage, name, before, after) ->
      Trace.record_pass trace ~stage ~name:(pb.pr_name ^ "/" ^ name) ~elapsed_ms:(ms name)
        ~before ~after)
    [
      ("graph", "graph_passes", graph_s, fused_s);
      ("lowering", "lowering", fused_s, lowered_s);
      ("tir", "tir_passes", lowered_s, tir_s);
      ("runtime", "runtime.engine_create", tir_s, tir_s);
      ("runtime", "runtime.init", tir_s, tir_s);
    ];
  let total = List.fold_left (fun a (_, ms) -> a +. ms) 0. first in
  let reps = if total < 200. then 5 else 1 in
  let stage_runs = first :: List.init (reps - 1) (fun _ -> snd (compile_stage ())) in
  let stage name = median_of (List.map (List.assoc name) stage_runs) in
  put "graph_passes.ms" "ms" (stage "graph_passes");
  put "lowering.ms" "ms" (stage "lowering");
  put "tir_passes.ms" "ms" (stage "tir_passes");
  put "runtime.engine_create_ms" "ms" (stage "runtime.engine_create");
  put "runtime.init_ms" "ms" (stage "runtime.init");
  put "core.compile_ms" "ms" (stage "core.compile");
  put "graph_passes.fused_ops" "count" (float_of_int fused_s.ops);
  put "lowering.tir_stmts" "count" (float_of_int lowered_s.ops);
  put "tir_passes.loops_merged" "count" (float_of_int rd.tir_stats.loops_merged);
  put "tir_passes.arena_bytes" "bytes" (float_of_int rd.tir_stats.buffers.planned_bytes);
  (* executes: Core.execute, Engine.run_entry and the per-partition
     replay interleaved, so machine noise hits all three alike *)
  let core_out = Core.execute pb.pr_core pb.pr_bindings in
  Engine.run_entry rd.engine rd.entry_bufs;
  let _, t1 = timed (fun () -> Core.execute pb.pr_core pb.pr_bindings) in
  let reps = max 5 (min 200 (int_of_float (1.5 /. Float.max t1 1e-4))) in
  let core_t = ref [] and entry_t = ref [] in
  for _ = 1 to reps do
    core_t := span_time "core.execute" (fun () -> Core.execute pb.pr_core pb.pr_bindings) :: !core_t;
    entry_t := span_time "runtime.entry" (fun () -> Engine.run_entry rd.engine rd.entry_bufs) :: !entry_t;
    Spans.with_ "runtime.partitions" (fun () -> replay_partitions rd)
  done;
  (* the replayed partitions must reproduce Core.execute bit for bit *)
  incr checks;
  if
    not
      (List.length core_out = List.length rd.out_bufs
      && List.for_all2 (fun t b -> Buffer.equal (Tensor.buffer t) b) core_out rd.out_bufs)
  then begin
    incr mismatches;
    Printf.printf "MISMATCH %s: replayed partitions differ from Core.execute\n%!" pb.pr_name
  end;
  (* tracing overhead: requests with counters and spans on, interleaved
     with requests with both off *)
  let on_t = ref [] and off_t = ref [] in
  let counting = Counters.enabled () in
  for i = 1 to reps do
    let run tracing =
      Spans.on := tracing;
      if tracing then Counters.enable () else Counters.disable ();
      let dt = span_time "core.execute" (fun () -> Core.execute pb.pr_core pb.pr_bindings) in
      if tracing then on_t := dt :: !on_t else off_t := dt :: !off_t
    in
    run (i mod 2 = 0);
    run (i mod 2 = 1)
  done;
  Spans.on := true;
  if not counting then Counters.disable ();
  put "tracing.overhead_pct" "%" (100. *. ((median_of !on_t /. median_of !off_t) -. 1.));
  let core_ms = median_of !core_t *. 1e3 and entry_ms = median_of !entry_t *. 1e3 in
  let part_ms = List.map (fun c -> (c.fname, median_of c.times *. 1e3)) rd.calls in
  let partitions_ms = List.fold_left (fun a (_, ms) -> a +. ms) 0. part_ms in
  put "runtime.entry_ms_p50" "ms" entry_ms;
  put "runtime.partitions_ms" "ms" partitions_ms;
  put "runtime.attributed_share" "ratio" (partitions_ms /. entry_ms);
  put "core.exec_overhead_ms" "ms" (core_ms -. entry_ms);
  (* counters of one request *)
  let _, snap = Counters.with_counters (fun () -> Core.execute pb.pr_core pb.pr_bindings) in
  put "microkernel.calls" "count" (float_of_int snap.kernel_invocations);
  put "runtime.parallel_sections" "count" (float_of_int snap.parallel_sections);
  put "runtime.barriers" "count" (float_of_int snap.barriers);
  put "runtime.bytes_allocated" "bytes" (float_of_int snap.bytes_allocated);
  (* microkernel alone at this workload's shapes, per partition *)
  let threads = float_of_int (Parallel.size pb.pr_pool) in
  let per_call = Hashtbl.create 16 in
  let brgemm_ms_of fname =
    let hist = brgemm_histogram rd.module_ [ fname ] in
    List.fold_left
      (fun (ms, flops, calls) (s, n) ->
        let t =
          match Hashtbl.find_opt per_call s with
          | Some t -> t
          | None ->
              let t = time_brgemm s in
              Hashtbl.replace per_call s t;
              t
        in
        let n = float_of_int n in
        ( ms +. (n *. t *. 1e3 /. threads),
          flops +. (n *. 2. *. float_of_int (s.batch * s.mb * s.nb * s.kb)),
          calls +. n ))
      (0., 0., 0.) hist
  in
  let machine = cfg.graph.machine in
  let rows =
    List.map
      (fun (fname, ms) ->
        let bms, flops, calls = brgemm_ms_of fname in
        let sim = Sim.cost_func ~machine rd.module_ (Ir.func_exn rd.module_ fname) in
        (fname, ms, sim.time_ms, sim.cycles, bms, flops, calls))
      part_ms
  in
  let brgemm_ms = List.fold_left (fun a (_, _, _, _, b, _, _) -> a +. b) 0. rows in
  let flops = List.fold_left (fun a (_, _, _, _, _, f, _) -> a +. f) 0. rows in
  let kernel_s = brgemm_ms *. threads /. 1e3 in
  put "microkernel.gflops_isolated" "GFLOP/s" (if kernel_s > 0. then flops /. kernel_s /. 1e9 else 0.);
  put "microkernel.brgemm_ms_est" "ms" brgemm_ms;
  put "microkernel.brgemm_share" "ratio" (brgemm_ms /. partitions_ms);
  put "runtime.scalar_ms_est" "ms" (partitions_ms -. brgemm_ms);
  let rank_corr =
    S.spearman
      (Array.of_list (List.map (fun (_, _, _, c, _, _, _) -> c) rows))
      (Array.of_list (List.map (fun (_, ms, _, _, _, _, _) -> ms) rows))
  in
  put "perfsim.rank_corr" "rho" (Option.value rank_corr ~default:0.);
  Printf.printf "attribution (%s, %d partitions, %d entry statements unattributed):\n"
    pb.pr_name (List.length rows) rd.unattributed;
  Printf.printf "  %-28s %10s %12s %12s %8s %8s\n" "partition" "run_func" "perfsim" "brgemm_est"
    "share" "calls";
  List.iter
    (fun (f, ms, sim_ms, _, bms, _, calls) ->
      Printf.printf "  %-28s %8.3fms %10.4fms %10.3fms %7.1f%% %8.0f\n" f ms sim_ms bms
        (100. *. bms /. ms) calls)
    rows;
  Printf.printf "  entry %.3f ms, partitions %.3f ms, Core.execute %.3f ms\n%!" entry_ms
    partitions_ms core_ms;
  attribution_rows :=
    List.map
      (fun (f, ms, sim_ms, cycles, bms, _, calls) ->
        Json.Obj
          [
            ("workload", Json.String pb.pr_name);
            ("partition", Json.String f);
            ("run_func_ms", Json.Float ms);
            ("perfsim_ms", Json.Float sim_ms);
            ("perfsim_cycles", Json.Float cycles);
            ("brgemm_ms_est", Json.Float bms);
            ("brgemm_share", Json.Float (bms /. ms));
            ("brgemm_calls", Json.Float calls);
          ])
      rows

(* The Figure 8 baseline: the same graph under the oneDNN-primitives
   pass configuration, timed interleaved with the compiled partition. *)
let baseline_probe pb =
  let cfg = Core.config_of pb.pr_core in
  let bcfg = { cfg with Core.graph = Core.Pipeline.onednn_primitives ~machine:cfg.graph.machine () } in
  let base = Core.compile ~config:bcfg pb.pr_graph in
  let want = Core.execute pb.pr_core pb.pr_bindings in
  let got = Core.execute base pb.pr_bindings in
  ignore (check ~what:(pb.pr_name ^ " baseline") ~tol:pb.pr_tol got want);
  let _, t1 = timed (fun () -> Core.execute base pb.pr_bindings) in
  let reps = max 5 (min 200 (int_of_float (1.0 /. Float.max t1 1e-4))) in
  let tb = ref [] and tc = ref [] in
  for _ = 1 to reps do
    tb := span_time "baseline.execute" (fun () -> Core.execute base pb.pr_bindings) :: !tb;
    tc := snd (timed (fun () -> Core.execute pb.pr_core pb.pr_bindings)) :: !tc
  done;
  let b = median_of !tb and c = median_of !tc in
  put "baseline.entry_ms_p50" "ms" (b *. 1e3);
  put "baseline.speedup" "x" (b /. c)

(* Median microseconds of a compile-cache hit on [graph]. *)
let cache_hit_probe cfg graph =
  ignore (Core.compile_cached ~config:cfg graph);
  let t =
    List.init 21 (fun _ ->
        span_time "core.compile_cached" (fun () -> Core.compile_cached ~config:cfg graph))
  in
  put "core.cache_hit_us" "us" (median_of t *. 1e6)

(* The coalescing and bucket counters of [tickets] served requests that
   asked for [rows] rows in all. A coalesced batch is one execution for
   all its tickets. *)
let put_serve_counters ~tickets ~rows (c : Counters.snapshot) =
  put "serve.tickets_per_batch" "count"
    (float_of_int tickets
    /. float_of_int (max 1 (tickets - c.coalesced_tickets + c.coalesced_batches)));
  put "serve.bucket_hit_rate" "ratio"
    (float_of_int c.bucket_cache_hits /. float_of_int (max 1 (c.bucket_cache_hits + c.bucket_compiles)));
  put "serve.pad_waste_ratio" "ratio"
    (float_of_int c.pad_waste_rows /. float_of_int (max 1 (rows + c.pad_waste_rows)));
  put "serve.window_deadline_violations" "count" (float_of_int c.window_deadline_violations)

(* {1 Closed-loop workloads} *)

type closed = {
  build : int -> Core.Graph.t * (Lt.t * Tensor.t) list;  (** seed → graph, data *)
  tol : float;
  setup_reps : int;
  variants : int;
}

let closed_spec = function
  | "mlp1_f32" ->
      {
        build =
          (fun seed ->
            let b = Mlp.build_f32 ~seed ~batch:32 ~hidden:[ 13; 512; 256; 128 ] () in
            (b.graph, b.data));
        tol = tol_f32;
        setup_reps = 15;
        variants = 4;
      }
  | "bert_int8" ->
      {
        build =
          (fun seed ->
            let b = Bert.build_int8 ~seed ~layers:2 ~batch:2 ~seq:32 ~hidden:64 ~heads:4 () in
            (b.graph, b.data));
        tol = tol_int8;
        setup_reps = 3;
        variants = 2;
      }
  | w -> failwith ("unknown workload " ^ w)

type run_result = {
  attempted : int;
  failed : int;
  metrics : (string * (float * string)) list;
}

(* [lat]: (time, ms) of every successful request. Each percentile is
   taken in [windows] equal time windows of the measured span and the
   median over windows is reported, so a host slowdown over part of a
   run moves it less. A window reports the highest percentile up to the
   requested one that has ten samples beyond it. *)
let windows = 5

let e2e ~setup ~lat ~t0 ~t1 ~rps ~gflops ~good_rps ~max_rate ~attempted ~failed =
  let windowed q =
    let v = S.windowed_tail ~windows ~t0 ~t1 ~target:q lat in
    let qs =
      Array.to_list (S.split ~windows ~t0 ~t1 lat)
      |> List.filter_map (fun xs -> Option.map (fun (t : S.tail) -> t.q) (S.tail ~target:q xs))
    in
    Printf.printf "  latency p%g: %.3f ms (median of %d windows, lowest percentile used p%.4g, n=%d)\n"
      (q *. 100.) v windows
      (100. *. List.fold_left Float.min q qs)
      (Array.length lat);
    v
  in
  let p50 = windowed 0.5 and p90 = windowed 0.9 and p99 = windowed 0.99 in
  [
    ("setup_s", (setup, "s"));
    ("latency_p50_ms", (p50, "ms"));
    ("latency_p90_ms", (p90, "ms"));
    ("latency_p99_ms", (p99, "ms"));
    ("throughput_rps", (rps, "1/s"));
    ("gflops", (gflops, "GFLOP/s"));
    ("goodput_rps", (good_rps, "1/s"));
    ("max_rate_rps", (max_rate, "1/s"));
    ("ok_ratio", (float_of_int (attempted - failed) /. float_of_int (max 1 attempted), "ratio"));
    ("peak_rss_mb", (peak_rss_mb (), "MiB"));
  ]

let run_closed name =
  let spec = closed_spec name in
  (* The engine runs on the main domain alone. With a pool of both cores
     of a 2-core host, every parallel section waits for the slower core,
     and a neighbour busy on one core raised BERT's median latency by
     58%; on one thread the same neighbour raised it by 5%. *)
  let pool = make_pool 1 in
  let cfg = config pool in
  (* set-up: build, compile, first execute — repeated, each from a
     collected heap so one repetition's garbage does not slow the next;
     the median is reported *)
  let reference = ref None and last = ref None in
  let times =
    List.init spec.setup_reps (fun _ ->
        (* the previous repetition's partition is dropped first, so
           peak_rss_mb counts one compiled partition *)
        last := None;
        Gc.full_major ();
        let (graph, data, core, out), dt =
          timed (fun () ->
              Spans.with_ "setup" (fun () ->
                  let graph, data = Spans.with_ "graph_build" (fun () -> spec.build !seed) in
                  let core = Spans.with_ "core.compile" (fun () -> Core.compile ~config:cfg graph) in
                  let out = Spans.with_ "core.execute" (fun () -> Core.execute core data) in
                  (graph, data, core, out)))
        in
        let want =
          match !reference with
          | Some r -> r
          | None ->
              let r = Core.reference graph data in
              reference := Some r;
              r
        in
        ignore (check ~what:(name ^ " warm-up") ~tol:spec.tol out want);
        last := Some (graph, data, core);
        dt)
  in
  let setup_s = median_of times in
  let graph, data, core = Option.get !last in
  Printf.printf "setup: median %.4f s over %d\n%!" setup_s spec.setup_reps;
  (* requests: the compiled weights, activations of other seeded builds *)
  let requests =
    Array.init spec.variants (fun k ->
        if k = 0 then data
        else with_activations ~base:data ~from:(snd (spec.build ((!seed * 7919) + k))))
  in
  let wants = Array.map (Core.reference graph) requests in
  let flops = matmul_flops graph in
  let rs = Random.State.make [| !seed; 0xc105ed |] in
  let lat = ref [] and done_at = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let t_start = now () in
  let t_end = t_start +. !seconds in
  let sample_every = max 1 (spec.variants * 4) in
  if !traced then Counters.enable ();
  while now () < t_end do
    let k = Random.State.int rs spec.variants in
    incr attempted;
    let t0 = now () in
    match Spans.with_ ~req:!attempted "core.execute" (fun () -> Core.execute core requests.(k)) with
    | out ->
        let t1 = now () in
        if
          (!attempted = 1 || Random.State.int rs sample_every = 0)
          && not
               (check ~what:(Printf.sprintf "%s request %d" name !attempted) ~tol:spec.tol out
                  wants.(k))
        then incr failed
        else begin
          lat := (t0, (t1 -. t0) *. 1e3) :: !lat;
          done_at := t1 :: !done_at
        end
    | exception e ->
        incr failed;
        Printf.printf "request %d failed: %s\n%!" !attempted (Printexc.to_string e)
  done;
  Counters.disable ();
  let t_stop = now () in
  Printf.printf "closed loop: %d requests in %.2f s\n%!" !attempted (t_stop -. t_start);
  if not !traced then begin
    drop_pool pool;
    (* one client and no deadline: every completion is good, and the
       client's completed rate is the highest it sustains *)
    let rps = S.windowed_rate ~windows ~t0:t_start ~t1:t_stop (Array.of_list !done_at) in
    {
      attempted = !attempted;
      failed = !failed;
      metrics =
        e2e ~setup:setup_s ~lat:(Array.of_list (List.rev !lat)) ~t0:t_start ~t1:t_stop ~rps
          ~gflops:(rps *. flops /. 1e9) ~good_rps:rps ~max_rate:rps ~attempted:!attempted
          ~failed:!failed;
    }
  end
  else begin
    let pb =
      {
        pr_name = name;
        pr_graph = graph;
        pr_bindings = data;
        pr_core = core;
        pr_pool = pool;
        pr_tol = spec.tol;
      }
    in
    layer_probe pb;
    baseline_probe pb;
    (* the serve and registry layers, with the engine pool stood down
       so the serve worker takes its domain *)
    drop_pool pool;
    let pool1 = make_pool 1 in
    let cfg1 = config pool1 in
    let scfg =
      { (Serve.default_config ()) with Serve.workers = max 1 (nproc - 1); default_deadline_ms = None }
    in
    domains_started scfg.workers;
    let reg = Registry.create ~config:scfg () in
    (match Registry.load ~config:cfg1 reg ~name graph with
    | Ok () -> ()
    | Error e -> failwith (Core.Errors.to_string e));
    let submit_us = ref [] and await_ms = ref [] and wait_est = ref [] in
    Counters.reset ();
    Counters.enable ();
    let t_probe = now () +. Float.min 3. (!seconds /. 2.) in
    let served = ref 0 in
    while now () < t_probe || !served < 5 do
      incr served;
      let k = !served mod spec.variants in
      let t0 = now () in
      match Registry.submit reg name requests.(k) with
      | Error e -> failwith (Core.Errors.to_string e)
      | Ok ticket -> (
          let t1 = now () in
          let outcome = Serve.await ticket in
          let t2 = now () in
          ignore (Spans.add ~req:!served "serve.submit" t0 t1);
          ignore (Spans.add ~req:!served "serve.await" t1 t2);
          submit_us := (t1 -. t0) *. 1e6 :: !submit_us;
          await_ms := (t2 -. t1) *. 1e3 :: !await_ms;
          (match Registry.model_info reg name with
          | Some { mi_serve = { hs_ewma_ms = Some e; _ }; _ } ->
              wait_est := ((t2 -. t1) *. 1e3) -. e :: !wait_est
          | _ -> ());
          match outcome with
          | Ok out -> ignore (check ~what:(name ^ " served") ~tol:spec.tol out wants.(k))
          | Error e -> failwith (Core.Errors.to_string e))
    done;
    let st = Serve.stats (Registry.server reg) in
    put "serve.submit_us_p50" "us" (median_of !submit_us);
    put "serve.await_ms_p50" "ms" (median_of !await_ms);
    put "serve.queue_wait_ms_est" "ms" (median_of !wait_est);
    put "serve.shed_ratio" "ratio" (float_of_int st.overloaded /. float_of_int (max 1 st.submitted));
    Counters.disable ();
    let rows = Core.Shape.dim (List.hd graph.outputs : Lt.t).shape 0 in
    put_serve_counters ~tickets:!served ~rows:(!served * rows) (Counters.snapshot ());
    let swaps =
      List.init 5 (fun v ->
          let g, _ = spec.build ((!seed * 104729) + v + 1) in
          snd
            (timed (fun () ->
                 Spans.with_ "registry.hot_swap" (fun () ->
                     match Registry.hot_swap reg ~name g with
                     | Ok () -> ()
                     | Error e -> failwith (Core.Errors.to_string e)))))
    in
    put "registry.hot_swap_ms" "ms" (median_of swaps *. 1e3);
    cache_hit_probe cfg1 graph;
    Registry.shutdown reg;
    domains_live := !domains_live - scfg.workers;
    drop_pool pool1;
    { attempted = !attempted; failed = !failed; metrics = [] }
  end

(* {1 serve_mixed: an open loop into one registry over one serve tier}

   A run has three phases, in this order, with these shares of the
   measured seconds:

   - reference (55%): an open loop at [ref_rate]. The latency
     percentiles are taken here, and the DLRM tenant is hot-swapped to
     new weights every [swap_every_s].
   - saturation (20%): a closed window that keeps [window] requests
     outstanding, so the worker always has a request queued. Throughput, goodput and
     GFLOP/s are its completed rates: the tier's capacity.
   - ladder (25%): open-loop rungs of [rung_s] on the fixed rate grid of
     Pb_stats, climbed from the rung below 90% of that capacity.
     max_rate_rps is the rate served at the highest rung whose p99 meets
     [limit_ms] with no growing backlog; a rung stops sending, and
     misses, once more than [abort_outstanding] requests are
     outstanding.

   Every request carries a deadline of [deadline_ms], longer than the
   latency limit, so that admission does not shed what the saturation
   window or a ladder rung still serves: a shed is a failed request.

   The reference rate leaves 10 ms between requests, about as long as
   the slowest poly request takes on a 2-core host, so a request seldom
   queues behind the one before it and each tenant and bucket forms a
   narrow latency mode. *)
let ref_rate = 100.
let ref_share = 0.55
let sat_share = 0.2
let window = 4
let rung_s = 1.
let abort_outstanding = 48
let limit_ms = 200.
let deadline_ms = 5000
let swap_every_s = 4.
let poly_hidden = [ 13; 512; 256; 128 ]

(* Rows of the pre-built poly requests: one each of 1..4, four each of
   5..8. Dealt with three DLRM requests to every poly one, the latency
   modes on a 2-core host are DLRM ~1 ms (75% of requests), poly
   buckets 1–4 at 4–6 ms (5%) and poly bucket 8 at ~9 ms (20%). The
   median then falls two thirds into the DLRM mode and p90 in the
   middle of the bucket-8 mode, each with at least 5% of requests
   between it and the mode's edge. *)
let poly_rows = [| 1; 2; 3; 4; 5; 5; 5; 5; 6; 6; 6; 6; 7; 7; 7; 7; 8; 8; 8; 8 |]
let tenant_deck = [| 1; 1; 1; 0 |]

(* Busy loops at the lowest priority, one per core, while serve_mixed
   measures. Its generator and serve worker sleep between requests, and
   on a shared host a sleeping core waits for the host to run it again
   when it is woken: over one half hour of host contention the DLRM
   median latency swung from 1.2 to 6 ms between runs, while the closed
   loops, whose core never sleeps, moved by a few percent. With every
   core busy, a wake-up preempts a busy loop instead. Each loop ends by
   itself once this process is gone; the returned function stops them
   and waits for them. *)
let keep_cores_busy () =
  let loop = Printf.sprintf "while kill -0 %d 2>/dev/null; do :; done" (Unix.getpid ()) in
  let pids =
    List.init nproc (fun _ ->
        Unix.create_process "nice" [| "nice"; "-n"; "19"; "sh"; "-c"; loop |] Unix.stdin
          Unix.stdout Unix.stderr)
  in
  fun () ->
    List.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid))
      pids

let dlrm_build seed =
  let d =
    Dlrm.build_f32 ~seed ~batch:16 ~dense_dim:13 ~bottom:[ 64; 32 ] ~tables:4 ~vocab:100
      ~emb_dim:32 ~top:[ 64; 1 ] ()
  in
  (d.graph, d.data)

type sreq = {
  id : int;
  tenant : int;  (** 0: poly MLP, 1: DLRM *)
  variant : int;
  version : int;
  phase : int;  (** 0: reference, 1: saturation, 2 + i: the i-th ladder rung run *)
  due : float;
  sub : float;
  submit_s : float;
  ticket : (Serve.ticket, Core.Errors.error) result;  (** Error: refused by the registry *)
}

type sdone = { r : sreq; fin : float; ok : bool; wait_est : float option }

let run_serve () =
  let pool = make_pool 1 in
  let cfg = config pool in
  let workers = max 1 (nproc - 1) in
  let scfg =
    {
      (Serve.default_config ()) with
      Serve.workers;
      queue_depth = 128;
      default_deadline_ms = None;
      coalesce_window_ms = 2.;
      max_coalesce = 8;
    }
  in
  let ref_s = ref_share *. !seconds and sat_s = sat_share *. !seconds in
  let ladder_s = !seconds -. ref_s -. sat_s in
  let poly_b = Mlp.build_f32 ~seed:!seed ~batch:8 ~batch_dim:(Dim.Sym "b") ~hidden:poly_hidden () in
  let poly_rows_flops = matmul_flops poly_b.graph /. 8. in
  (* poly bindings of [n] rows: fresh activations, the built graph's own
     weights (coalescing needs them physically shared) *)
  let poly_bindings ~seed n =
    List.map
      (fun ((lt : Lt.t), v) ->
        if Dim.has_sym lt.dims then
          (lt, Tensor.random ~seed Core.Dtype.F32 (Core.Shape.of_list [ n; Core.Shape.dim lt.shape 1 ]))
        else (lt, v))
      poly_b.data
  in
  let poly_reqs = Array.mapi (fun k n -> (n, poly_bindings ~seed:((!seed * 131) + k) n)) poly_rows in
  let poly_want =
    Array.map
      (fun (n, b) ->
        match Core.Graph.substitute ~env:[ ("b", n) ] poly_b.graph with
        | Ok (g, map) ->
            Core.reference g (List.map (fun ((lt : Lt.t), v) -> (Hashtbl.find map lt.id, v)) b)
        | Error e -> failwith e)
      poly_reqs
  in
  (* DLRM: one graph per weight version, 8 activation variants each *)
  let versions = 1 + int_of_float (ref_s /. swap_every_s) in
  let dlrm_acts = Array.init 8 (fun k -> snd (dlrm_build ((!seed * 7919) + 100 + k))) in
  let dlrm =
    Array.init versions (fun v ->
        let g, data = dlrm_build ((!seed * 1000) + v) in
        let reqs = Array.map (fun from -> with_activations ~base:data ~from) dlrm_acts in
        (g, reqs, Array.map (Core.reference g) reqs))
  in
  let dlrm_flops = matmul_flops (let g, _, _ = dlrm.(0) in g) in
  (* set-up: registry + serve tier, both tenants compiled and served
     once — repeated from a cold compile cache, median *)
  let setup () =
    Core.Compile_cache.clear ();
    Gc.full_major ();
    let (reg, h), dt =
      timed (fun () ->
          domains_started workers;
          let reg = Registry.create ~config:scfg () in
          let poly = Core.compile_poly ~config:cfg poly_b.graph in
          (* compile every bucket a coalesced batch can reach before the
             handle serves: a bucket compiled inside a served request
             seeds the handle's latency EWMA with compile time *)
          List.iter
            (fun n -> ignore (Core.execute_poly poly (poly_bindings ~seed:n n)))
            [ 1; 2; 4; 8; 16; 32; 64 ];
          let h = Serve.register_poly ~name:"mlp_poly" (Registry.server reg) poly in
          let g0, reqs0, _ = dlrm.(0) in
          (match Registry.load ~config:cfg reg ~name:"dlrm" g0 with
          | Ok () -> ()
          | Error e -> failwith (Core.Errors.to_string e));
          let out_p = Serve.call (Registry.server reg) h (snd poly_reqs.(0)) in
          let out_d = Registry.call reg "dlrm" reqs0.(0) in
          let ok what o want =
            match o with
            | Ok out -> ignore (check ~what ~tol:tol_f32 out want)
            | Error e -> failwith (Core.Errors.to_string e)
          in
          let (_, _, wd) = dlrm.(0) in
          ok "mlp_poly warm-up" out_p poly_want.(0);
          ok "dlrm warm-up" out_d wd.(0);
          (reg, h))
    in
    ((reg, h), dt)
  in
  let teardown reg =
    Registry.shutdown reg;
    domains_live := !domains_live - workers
  in
  let reps = if !traced then 1 else 3 in
  let rec setups i acc =
    let (st, dt) = setup () in
    if i = reps then (st, List.rev (dt :: acc))
    else begin
      let reg, _ = st in
      teardown reg;
      setups (i + 1) (dt :: acc)
    end
  in
  let (reg, h), setup_times = setups 1 [] in
  let setup_s = median_of setup_times in
  Printf.printf "setup: median %.4f s over %d\n%!" setup_s reps;
  let server = Registry.server reg in
  for k = 0 to 7 do
    let _, reqs, _ = dlrm.(0) in
    ignore (Registry.call reg "dlrm" reqs.(k))
  done;
  (* Requests are dealt from seeded decks (see [poly_rows]): the order
     changes with the seed, the mix does not. *)
  let rs = Random.State.make [| !seed; 0x0be7 |] in
  let deck cards =
    let d = Array.copy cards and i = ref (Array.length cards) in
    fun () ->
      if !i = Array.length d then begin
        for k = Array.length d - 1 downto 1 do
          let j = Random.State.int rs (k + 1) in
          let t = d.(k) in
          d.(k) <- d.(j);
          d.(j) <- t
        done;
        i := 0
      end;
      incr i;
      d.(!i - 1)
  in
  let tenants = deck tenant_deck in
  let poly_variants = deck (Array.init (Array.length poly_reqs) Fun.id) in
  let dlrm_variants = deck (Array.init 8 Fun.id) in
  let card () =
    let tenant = tenants () in
    (tenant, if tenant = 0 then poly_variants () else dlrm_variants ())
  in
  let rs_check = Random.State.make [| !seed; 0xc4ec |] in
  let fail_kinds = Hashtbl.create 8 in
  let fail what =
    let what = List.hd (String.split_on_char '[' what) in
    Hashtbl.replace fail_kinds what (1 + Option.value ~default:0 (Hashtbl.find_opt fail_kinds what))
  in
  let outstanding = ref [] and finished = ref [] in
  (* (time, outstanding) at every send, by phase *)
  let backlog = Hashtbl.create 16 in
  let version = ref 0 in
  let swaps = ref [] in
  let ewma_of tenant =
    if tenant = 0 then Serve.ewma_ms h
    else match Registry.model_info reg "dlrm" with Some mi -> mi.mi_serve.hs_ewma_ms | None -> None
  in
  (* [None]: still unresolved when the run ended *)
  let resolve r t outcome =
    let ok =
      match outcome with
      | None ->
          fail "unresolved at exit";
          false
      | Some (Error e) ->
          fail (Printf.sprintf "tenant %d: %s" r.tenant (Core.Errors.to_string e));
          false
      | Some (Ok out) ->
          (* a seeded sample of served outputs against the reference *)
          r.id <= 4 || Random.State.int rs_check 5 <> 0
          ||
          let want =
            if r.tenant = 0 then poly_want.(r.variant)
            else let _, _, w = dlrm.(r.version) in w.(r.variant)
          in
          check ~what:(Printf.sprintf "serve_mixed request %d" r.id) ~tol:tol_f32 out want
    in
    if !traced then begin
      let root = Spans.add ~req:r.id "request" r.due t in
      ignore (Spans.add ~parent:root ~req:r.id "serve.submit" r.sub (r.sub +. r.submit_s));
      ignore (Spans.add ~parent:root ~req:r.id "serve.await" (r.sub +. r.submit_s) t)
    end;
    let wait_est = Option.map (fun e -> ((t -. r.sub) *. 1e3) -. e) (ewma_of r.tenant) in
    finished := { r; fin = (if ok then t else infinity); ok; wait_est } :: !finished
  in
  let poll () =
    let t = now () in
    outstanding :=
      List.filter
        (fun r ->
          match r.ticket with
          | Ok tk -> (
              match Serve.peek tk with
              | None -> true
              | outcome ->
                  resolve r t outcome;
                  false)
          | Error e ->
              resolve r t (Some (Error e));
              false)
        !outstanding
  in
  let ids = ref 0 in
  let submit ~phase ~due ~tenant ~variant =
    incr ids;
    let sub = now () in
    let ticket =
      if tenant = 0 then Ok (Serve.submit ~deadline_ms server h (snd poly_reqs.(variant)))
      else
        let _, reqs, _ = dlrm.(!version) in
        Registry.submit ~deadline_ms reg "dlrm" reqs.(variant)
    in
    let submit_s = now () -. sub in
    outstanding :=
      { id = !ids; tenant; variant; version = !version; phase; due; sub; submit_s; ticket }
      :: !outstanding;
    Hashtbl.replace backlog phase
      ((sub, float_of_int (List.length !outstanding))
      :: Option.value ~default:[] (Hashtbl.find_opt backlog phase))
  in
  (* Weight swaps of the DLRM tenant, in the reference phase, drain it
     first: requests for it that fall due meanwhile are held (their
     latency still counts from when they were due), the swap runs once
     none of its requests is queued or executing, then the held ones go
     out. A weights-path swap with an older-version request still queued
     re-runs constant init with the old weights, and the new version
     serves them silently. *)
  let swapping = ref true in
  let next_swap = ref (now () +. swap_every_s) in
  let held = ref [] in
  let swap_pending () = !swapping && now () >= !next_swap && !version + 1 < versions in
  let try_swap () =
    if swap_pending () && not (List.exists (fun r -> r.tenant = 1) !outstanding) then begin
      let g, _, _ = dlrm.(!version + 1) in
      let t = now () in
      (match Registry.hot_swap reg ~name:"dlrm" g with
      | Ok () -> ()
      | Error e -> failwith (Core.Errors.to_string e));
      let dt = now () -. t in
      incr version;
      swaps := dt :: !swaps;
      ignore (Spans.add "registry.hot_swap" t (t +. dt));
      next_swap := !next_swap +. swap_every_s;
      List.iter (fun (phase, due, variant) -> submit ~phase ~due ~tenant:1 ~variant) (List.rev !held);
      held := []
    end
  in
  (* Sends the requests due at [rate] over [dur] seconds from [start] as
     [phase]. With [abort], stops sending once more than that many are
     outstanding, and says so. *)
  let open_loop ?abort ~phase ~rate ~start ~dur () =
    let dues = S.due_times ~start ~rate (int_of_float (rate *. dur)) in
    let stopped = ref false in
    Array.iter
      (fun due ->
        let rec wait () =
          poll ();
          try_swap ();
          let t = now () in
          if t < due then begin
            Unix.sleepf (Float.min (due -. t) 0.0002);
            wait ()
          end
        in
        if not !stopped then begin
          wait ();
          match abort with
          | Some cap when List.length !outstanding > cap -> stopped := true
          | _ ->
              let tenant, variant = card () in
              if tenant = 1 && swap_pending () then held := (phase, due, variant) :: !held
              else submit ~phase ~due ~tenant ~variant
        end)
      dues;
    !stopped
  in
  (* Waits until every request sent so far has resolved; every one
     carries a deadline. *)
  let settle () =
    let t_end = now () +. (float_of_int deadline_ms /. 1e3) +. 1. in
    while (!outstanding <> [] || !held <> []) && now () < t_end do
      poll ();
      try_swap ();
      Unix.sleepf 0.0002
    done
  in
  let phase_of p = List.filter (fun d -> d.r.phase = p) !finished in
  let latency_ms d = S.latency { S.due = d.r.due; submitted = d.r.sub; completed = d.fin } *. 1e3 in
  let flops_of d =
    if d.r.tenant = 0 then poly_rows_flops *. float_of_int (fst poly_reqs.(d.r.variant)) else dlrm_flops
  in
  Counters.reset ();
  if !traced then Counters.enable ();
  let stats0 = Serve.stats server in
  let stop_busy_loops = keep_cores_busy () in
  (* reference *)
  let ref_t0 = now () +. 0.01 in
  next_swap := ref_t0 +. swap_every_s;
  ignore (open_loop ~phase:0 ~rate:ref_rate ~start:ref_t0 ~dur:ref_s ());
  settle ();
  swapping := false;
  (* saturation *)
  let sat_t0 = now () in
  let sat_t1 = sat_t0 +. sat_s in
  while now () < sat_t1 do
    poll ();
    while List.length !outstanding < window do
      let tenant, variant = card () in
      submit ~phase:1 ~due:(now ()) ~tenant ~variant
    done;
    Unix.sleepf 0.0002
  done;
  settle ();
  let sat = List.filter (fun d -> d.ok && d.fin <= sat_t1) (phase_of 1) in
  let sat_rate ds =
    S.windowed_rate ~windows ~t0:sat_t0 ~t1:sat_t1 (Array.of_list (List.map (fun d -> d.fin) ds))
  in
  let capacity = sat_rate sat in
  let good_rps = sat_rate (List.filter (fun d -> latency_ms d <= limit_ms) sat) in
  let gflops = List.fold_left (fun a d -> a +. flops_of d) 0. sat /. sat_s /. 1e9 in
  Printf.printf "saturation (%d outstanding, %.1f s): %d ok, %.2f/s (median of %d windows)\n%!"
    window sat_s (List.length sat) capacity windows;
  (* ladder: the rate served at a rung is its ok completions over the span
     from its first due time to its last ok completion *)
  let served_at = Hashtbl.create 8 in
  let runs = ref 0 in
  let probe k =
    let phase = 2 + !runs in
    incr runs;
    let rate = S.ladder_rate k in
    let aborted =
      open_loop ~abort:abort_outstanding ~phase ~rate ~start:(now () +. 0.005) ~dur:rung_s ()
    in
    settle ();
    let ds = phase_of phase in
    let ok = List.filter (fun d -> d.ok) ds in
    let first = List.fold_left (fun a d -> Float.min a d.r.due) infinity ds in
    let last = List.fold_left (fun a d -> Float.max a d.fin) neg_infinity ok in
    let served = if ok = [] then 0. else float_of_int (List.length ok) /. (last -. first) in
    Hashtbl.replace served_at rate served;
    let lat = Array.of_list (List.map latency_ms ds) in
    let tail_ms = match S.tail ~target:0.99 lat with Some t -> t.value | None -> infinity in
    let growing =
      aborted
      || S.backlog_growing ~rate
           (Array.of_list (List.rev (Option.value ~default:[] (Hashtbl.find_opt backlog phase))))
    in
    Printf.printf "  rung %.1f/s: %d sent, %d ok, served %.2f/s, tail %.2f ms%s\n%!" rate
      (List.length ds) (List.length ok) served tail_ms
      (if aborted then ", stopped: backlog" else if growing then ", backlog growing" else "");
    { S.rate; tail_ms; growing }
  in
  let ladder_end = now () +. ladder_s in
  let rungs =
    S.climb ~limit_ms ~start:(S.ladder_index (0.9 *. capacity)) ~probe
      ~more:(fun () -> now () +. rung_s <= ladder_end)
  in
  let best = S.max_rate ~limit_ms rungs in
  let max_rate = Option.value ~default:0. (Hashtbl.find_opt served_at best) in
  settle ();
  List.iter (fun r -> resolve r infinity None) !outstanding;
  Counters.disable ();
  let csnap = Counters.snapshot () in
  let stats1 = Serve.stats server in
  let finished = List.rev !finished in
  Hashtbl.iter (fun k n -> Printf.printf "failed: %d x %s\n" n k) fail_kinds;
  (* the reference phase *)
  let ref_ds = List.filter (fun d -> d.r.phase = 0) finished in
  let ok_ds = List.filter (fun d -> d.ok) ref_ds in
  let lateness =
    Array.of_list
      (List.map (fun d -> S.lateness { S.due = d.r.due; submitted = d.r.sub; completed = d.fin }) ref_ds)
  in
  Printf.printf "reference %.0f/s (%.1f s): %d sent, %d ok; generator lateness p50 %.3f ms, max %.3f ms\n"
    ref_rate ref_s (List.length ref_ds) (List.length ok_ds) (S.median lateness *. 1e3)
    (Array.fold_left Float.max 0. lateness *. 1e3);
  let class_of d =
    if d.r.tenant = 1 then "dlrm"
    else
      let rows = fst poly_reqs.(d.r.variant) in
      let rec bucket b = if b >= rows then b else bucket (2 * b) in
      Printf.sprintf "poly-b%d" (bucket 1)
  in
  List.iter
    (fun c ->
      let xs =
        Array.of_list
          (List.filter_map (fun d -> if class_of d = c then Some (latency_ms d) else None) ok_ds)
      in
      if Array.length xs > 0 then
        Printf.printf "  %-8s n=%4d p10 %.3f p50 %.3f p90 %.3f ms\n" c (Array.length xs)
          (S.quantile xs 0.1) (S.median xs) (S.quantile xs 0.9))
    [ "dlrm"; "poly-b1"; "poly-b2"; "poly-b4"; "poly-b8" ];
  let lat = Array.of_list (List.map (fun d -> (d.r.due, latency_ms d)) ok_ds) in
  let attempted = List.length finished in
  let failed = List.length (List.filter (fun d -> not d.ok) finished) in
  let result =
    if not !traced then
      {
        attempted;
        failed;
        metrics =
          e2e ~setup:setup_s ~lat ~t0:ref_t0 ~t1:(ref_t0 +. ref_s) ~rps:capacity ~gflops ~good_rps
            ~max_rate ~attempted ~failed;
      }
    else begin
      let med f = S.median (Array.of_list (List.filter_map f finished)) in
      put "serve.submit_us_p50" "us" (med (fun d -> Some (d.r.submit_s *. 1e6)));
      put "serve.await_ms_p50" "ms"
        (med (fun d -> if d.ok then Some ((d.fin -. d.r.sub -. d.r.submit_s) *. 1e3) else None));
      put "serve.queue_wait_ms_est" "ms" (med (fun d -> if d.ok then d.wait_est else None));
      let submitted = stats1.submitted - stats0.submitted in
      put "serve.shed_ratio" "ratio"
        (float_of_int (stats1.overloaded - stats0.overloaded) /. float_of_int (max 1 submitted));
      (* coalescing and buckets apply to the poly tenant only *)
      let poly = List.filter (fun d -> d.r.tenant = 0) finished in
      put_serve_counters ~tickets:(List.length poly)
        ~rows:(List.fold_left (fun a d -> a + fst poly_reqs.(d.r.variant)) 0 poly)
        csnap;
      put "registry.hot_swap_ms" "ms" (median_of !swaps *. 1e3);
      { attempted; failed; metrics = [] }
    end
  in
  let final_version = !version in
  stop_busy_loops ();
  teardown reg;
  if !traced then begin
    (* the layer probes run on the DLRM tenant, mono and compiled under
       the same one-thread pool the serve worker executes on *)
    let g, reqs, _ = dlrm.(final_version) in
    let core = Core.compile ~config:cfg g in
    let pb =
      {
        pr_name = "serve_mixed/dlrm";
        pr_graph = g;
        pr_bindings = reqs.(0);
        pr_core = core;
        pr_pool = pool;
        pr_tol = tol_f32;
      }
    in
    layer_probe pb;
    baseline_probe pb;
    cache_hit_probe cfg g
  end;
  drop_pool pool;
  result

(* {1 Main} *)

let metric_json v u = Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]

let () =
  if not (List.mem !workload [ "mlp1_f32"; "bert_int8"; "serve_mixed" ]) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  let epoch = now () in
  Spans.on := !traced;
  let res = if !workload = "serve_mixed" then run_serve () else run_closed !workload in
  let metrics =
    if !traced then List.rev !layer_metrics else res.metrics
  in
  let metadata =
    [
      ("workload", Json.String !workload);
      ("seed", Json.Int !seed);
      ("seconds", Json.Float !seconds);
      ("traced", Json.Bool !traced);
      ("machine_model", Json.String (Core.Machine.descriptor Core.Machine.xeon_8358));
      ("nproc", Json.Int nproc);
      ("domains_peak", Json.Int !domains_peak);
      ("ocaml", Json.String Sys.ocaml_version);
      ("checks", Json.Int !checks);
      ("mismatches", Json.Int !mismatches);
    ]
    @ List.rev_map (fun (k, v) -> (k, Json.String v)) !meta
  in
  print_endline ("meta: " ^ compact (Json.Obj metadata));
  List.iter (fun (name, (v, unit)) -> Printf.printf "  %-36s %14.6g %s\n" name v unit) metrics;
  if !traced && !trace_out <> "" then begin
    List.iter (fun (k, v) -> Trace.set_meta trace k v) metadata;
    Trace.add_section trace "bench:perfbench"
      (Json.Obj
         [
           ("spans", Spans.to_json epoch);
           ("attribution", Json.List !attribution_rows);
           ( "metrics",
             Json.Obj (List.map (fun (n, (v, u)) -> (n, metric_json v u)) metrics) );
         ]);
    Trace.write_file trace !trace_out;
    Printf.printf "trace: %d spans written to %s\n" (List.length !Spans.all) !trace_out
  end;
  let correct = !mismatches = 0 in
  let finite v = if Float.is_finite v then v else 0. in
  let line =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Int res.attempted);
        ("failed", Json.Int res.failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun (n, (v, u)) -> (n, metric_json (finite v) u))
               metrics) );
      ]
  in
  print_endline (compact line);
  exit (if correct then 0 else 1)
