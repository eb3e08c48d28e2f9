(* The selection workloads.

   select_exact: the s5378 preset with the 5-level spatial model, 400
   target paths, eps 0.05. The pool stays under
   [Core.Select.sketch_threshold], so the default engine is the exact
   Golub-Reinsch SVD, which does almost all of the work.

   select_stream: a synthetic streamed sparse pool (5000 paths, 2000
   variables, adaptive sketch rank 128 as in E19) through
   [Core.Select.sketch_representatives]: sparse operator calls plus
   dense sketch work and pivoted QR.

   Both inputs come from a small recorded family: the workload seed
   picks the family member, and the member's selection is checked
   against the indices recorded for it in reference.json. *)

open Measure

type size = Full | Tiny

let size_name = function Full -> "full" | Tiny -> "tiny"

(* Input families. Each member is one seed of the input generator. *)
let exact_members = [| 42; 7; 1234 |]
let stream_members = [| 1; 2; 3 |]

let member members seed =
  let n = Array.length members in
  members.(((seed mod n) + n) mod n)

let reference ~file ~workload ~key =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text ->
    (match Serve.Wire.parse text with
     | Error msg -> Error (file ^ ": " ^ msg)
     | Ok json ->
       (match Option.bind (Serve.Wire.member workload json) (Serve.Wire.member key) with
        | Some (Serve.Wire.List l) -> Ok (Array.of_list (List.filter_map Checks.int_of l))
        | _ -> Error (Printf.sprintf "%s: no reference for %s %s" file workload key)))

let eps = 0.05

(* Set-ups per run; the reported set-up time is their median. *)
let setups = 9

let span_median spans name = median (List.map Trace.duration (Trace.named spans name))

(* One measured selection: whether it was traced, its wall time, its
   result, and its check. *)
type 'a op = { traced : bool; dt : float; result : 'a; check : (unit, string) result }

(* Run [f] for [seconds], alternating untraced and traced calls in a
   traced run (at least one of each), so the run measures its own
   tracing overhead under the same load. *)
let measure_ops ~trace ~seconds f =
  repeat ~seconds ~min_ops:(if trace then 2 else 1) (fun i ->
      let traced = trace && i mod 2 = 1 in
      let (result, check), dt = timed (fun () -> f traced) in
      { traced; dt; result; check })

let overhead_pct ops =
  let pick t = median (List.filter_map (fun o -> if o.traced = t then Some o.dt else None) ops) in
  100.0 *. (pick true -. pick false) /. pick false

let ints a = Serve.Wire.List (Array.to_list (Array.map (fun i -> Serve.Wire.Int i) a))
let floats l = Serve.Wire.List (List.map (fun x -> Serve.Wire.Float x) l)

let outcome ~tr ~setup_times ~ops ~n_paths ~key ~selected ~layers ~notes =
  let op_times = List.map (fun o -> o.dt) ops in
  let total = List.fold_left ( +. ) 0.0 op_times in
  {
    attempted = List.length ops;
    failures = List.filter_map (fun o -> Result.fold ~ok:(fun () -> None) ~error:Option.some o.check) ops;
    e2e =
      [
        m "setup_s" "s" (median setup_times);
        m "op_p50_ms" "ms" (1000.0 *. median op_times);
        m "throughput_per_s" "1/s" (float_of_int (n_paths * List.length ops) /. total);
        m "peak_rss_mb" "MB" (peak_rss_mb 0);
      ];
    layers = (if Trace.enabled tr then ("trace.overhead_pct", overhead_pct ops) :: layers () else []);
    notes =
      [ ("input", Serve.Wire.String key); ("n_paths", Serve.Wire.Int n_paths); ("selected", ints selected) ]
      @ notes
      @ [ ("select_s", floats op_times); ("setup_s", floats setup_times) ];
    spans = Trace.spans tr;
  }

let check_selection ~reference_file ~workload ~key ~indices =
  Result.bind (reference ~file:reference_file ~workload ~key) (fun reference ->
      Checks.selection ~reference ~indices)

(* ------------------------------------------------------------------ *)

type exact_input = { preset : string; scale : float; levels : int; max_paths : int }

let exact_input = function
  | Full -> { preset = "s5378"; scale = 1.0; levels = 5; max_paths = 400 }
  | Tiny -> { preset = "s1196"; scale = 0.5; levels = 3; max_paths = 150 }

let select_exact ~size ~seed ~seconds ~trace ~reference_file ~tmp =
  let tr = if trace then Trace.create () else Trace.off in
  let inp = exact_input size in
  let prep_seed = member exact_members seed in
  let key = Printf.sprintf "%s/%d" (size_name size) prep_seed in
  let preset =
    match Circuit.Benchmarks.find inp.preset with Some p -> p | None -> failwith ("unknown preset " ^ inp.preset)
  in
  let prepare () =
    Trace.span tr "bench.setup" (fun parent ->
        let netlist =
          Trace.span tr ~parent "circuit.netlist" (fun _ -> Circuit.Benchmarks.netlist ~scale:inp.scale preset)
        in
        let model = Timing.Variation.make_model ~levels:inp.levels () in
        Trace.span tr ~parent "core.prepare" (fun _ ->
            Core.Pipeline.prepare ~max_paths:inp.max_paths ~seed:prep_seed ~netlist ~model ()))
  in
  let setup_runs = List.init setups (fun _ -> timed prepare) in
  let setup = fst (List.hd setup_runs) in
  let pool = setup.Core.Pipeline.pool in
  let a = Timing.Paths.a_mat pool and mu = Timing.Paths.mu_paths pool in
  let artifact = Filename.concat tmp "select_exact.psa" in
  let ops =
    measure_ops ~trace ~seconds (fun traced ->
        let tr = if traced then tr else Trace.off in
        let sel =
          Trace.span tr "bench.select_op" (fun parent ->
              let sel =
                Trace.span tr ~parent "core.select" (fun _ -> Core.Pipeline.approximate_selection setup ~eps)
              in
              let art =
                Trace.span tr ~parent "store.of_selection" (fun _ ->
                    Store.of_selection ~fingerprint:("perfbench select_exact " ^ key)
                      ~t_cons:setup.Core.Pipeline.t_cons ~eps ~n_segments:(Timing.Paths.num_segments pool)
                      ~a ~mu sel)
              in
              Trace.span tr ~parent "store.save" (fun _ ->
                  match Store.save artifact art with Ok () -> sel | Error e -> Core.Errors.raise_error e))
        in
        ( sel,
          Result.bind
            (check_selection ~reference_file ~workload:"select_exact" ~key ~indices:sel.Core.Select.indices)
            (fun () -> Checks.tolerance ~eps_r:sel.Core.Select.eps_r ~eps) ))
  in
  let sel = (List.hd ops).result in
  let layers () =
    let spans = Trace.spans tr in
    let _, svd_s = timed (fun () -> ignore (Linalg.Svd.factor a)) in
    let _, gram_s = timed (fun () -> ignore (Linalg.Mat.gram a)) in
    [
      ("circuit.netlist_s", span_median spans "circuit.netlist");
      ("core.prepare_s", span_median spans "core.prepare");
      ("core.select_s", span_median spans "core.select");
      ("core.evaluations", float_of_int sel.Core.Select.evaluations);
      ("core.rank", float_of_int sel.Core.Select.rank);
      ("core.effective_rank", float_of_int sel.Core.Select.effective_rank);
      ("core.selected", float_of_int (Array.length sel.Core.Select.indices));
      ("store.of_selection_s", span_median spans "store.of_selection");
      ("store.save_s", span_median spans "store.save");
      ("store.artifact_bytes", float_of_int (Unix.stat artifact).Unix.st_size);
      ("bench.select_op_self_s", median (List.map (Trace.self_time spans) (Trace.named spans "bench.select_op")));
      ("linalg.svd_probe_s", svd_s);
      ("linalg.gram_probe_s", gram_s);
    ]
  in
  outcome ~tr ~setup_times:(List.map snd setup_runs) ~ops ~n_paths:(Timing.Paths.num_paths pool) ~key
    ~selected:sel.Core.Select.indices ~layers
    ~notes:
      [
        ("n_vars", Serve.Wire.Int (Timing.Paths.num_vars pool));
        ("eps_r", Serve.Wire.Float sel.Core.Select.eps_r);
      ]

(* ------------------------------------------------------------------ *)

type stream_input = { paths : int; segments : int; vars : int }

let stream_input = function
  | Full -> { paths = 5_000; segments = 2_500; vars = 2_000 }
  | Tiny -> { paths = 3_000; segments = 300; vars = 200 }

(* a pool build takes milliseconds: more of them keep the median steady *)
let stream_setups = 25

let select_stream ~size ~seed ~seconds ~trace ~reference_file =
  let tr = if trace then Trace.create () else Trace.off in
  let inp = stream_input size in
  let pool_seed = member stream_members seed in
  let key = Printf.sprintf "%s/%d" (size_name size) pool_seed in
  let build () =
    Trace.span tr "timing.pool_build" (fun _ ->
        Timing.Pool_stream.synthetic ~seed:pool_seed ~paths:inp.paths ~segments:inp.segments ~vars:inp.vars
          ~segs_per_path:8 ~vars_per_seg:3 ())
  in
  let setup_runs = List.init stream_setups (fun _ -> timed build) in
  let pool = fst (List.hd setup_runs) in
  let base = Timing.Pool_stream.op pool in
  let ops =
    measure_ops ~trace ~seconds (fun traced ->
        let tr = if traced then tr else Trace.off in
        let res =
          Trace.span tr "core.sketch" (fun parent ->
              (* count and time the operator calls the sketch makes *)
              let wrap name f x = Trace.span tr ~parent name (fun _ -> f x) in
              let ops =
                if traced then
                  { base with
                    Linalg.Rsvd.mul = wrap "linalg.op.mul" base.Linalg.Rsvd.mul;
                    tmul = wrap "linalg.op.tmul" base.Linalg.Rsvd.tmul }
                else base
              in
              Core.Select.sketch_representatives ~ops ())
        in
        (* the sketch reports no eps_r: the selection is the whole answer *)
        (res, check_selection ~reference_file ~workload:"select_stream" ~key ~indices:res.Core.Select.stream_indices))
  in
  let res = (List.hd ops).result in
  let layers () =
    let spans = Trace.spans tr in
    let sketches = Trace.named spans "core.sketch" in
    let op_spans = Trace.named spans "linalg.op.mul" @ Trace.named spans "linalg.op.tmul" in
    let per_sketch x = x /. float_of_int (List.length sketches) in
    [
      ("timing.pool_build_s", span_median spans "timing.pool_build");
      ("timing.pool_nnz", float_of_int (Timing.Pool_stream.nnz pool));
      ("core.sketch_s", median (List.map Trace.duration sketches));
      ("core.selected", float_of_int (Array.length res.Core.Select.stream_indices));
      ("linalg.op_calls", per_sketch (float_of_int (List.length op_spans)));
      ("linalg.op_s", per_sketch (List.fold_left (fun acc s -> acc +. Trace.duration s) 0.0 op_spans));
      ("linalg.sketch_dense_s", median (List.map (Trace.self_time spans) sketches));
      ("linalg.sketch_rank", float_of_int res.Core.Select.sketch_rank_used);
    ]
  in
  outcome ~tr ~setup_times:(List.map snd setup_runs) ~ops ~n_paths:inp.paths ~key
    ~selected:res.Core.Select.stream_indices ~layers
    ~notes:
      [
        ("nnz", Serve.Wire.Int (Timing.Pool_stream.nnz pool));
        ("sketch_rank", Serve.Wire.Int res.Core.Select.sketch_rank_used);
      ]
