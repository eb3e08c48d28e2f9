type kernel_row = {
  kname : string;
  dims : string;
  times_ms : (int * float) list;
  identical : bool;
}

type result = {
  cores : int;
  counts : int list;
  kernels : kernel_row list;
  mc_yield_identical : bool;
  mc_delays_identical : bool;
  pipeline_times_s : (int * float) list;
  pipeline_identical : bool;
  matmul_speedup : float;
  pipeline_speedup : float;
  equivalence_ok : bool;
  speedup_gate_active : bool;
  ok : bool;
}

let eps = 0.05

(* one warmup, then best of [reps]: the minimum is the least noisy
   estimator for a single-process kernel benchmark *)
let best_of reps f =
  ignore (f ());
  let best = ref infinity in
  let last = ref None in
  for _ = 1 to reps do
    let v, dt = Harness.time f in
    last := Some v;
    if dt < !best then best := dt
  done;
  (Option.get !last, !best)

let speedup_at times d =
  match (List.assoc_opt 1 times, List.assoc_opt d times) with
  | Some t1, Some td when td > 0.0 -> t1 /. td
  | _ -> 1.0

let gaussian_mat rng r c = Linalg.Mat.init r c (fun _ _ -> Rng.gaussian rng)

let run ?(oc = stdout) ?out ?(smoke = false) profile =
  let cores = Par.Pool.available_cores () in
  let counts =
    List.sort_uniq compare (1 :: 2 :: 4 :: (if cores > 4 then [ cores ] else []))
  in
  let saved_domains = Par.Pool.size () in
  Fun.protect ~finally:(fun () -> Par.Pool.set_size saved_domains) @@ fun () ->
  let full = profile.Profile.name = "full" in
  let dim = if smoke then 288 else if full then 768 else 448 in
  let mc_gates = if smoke then 160 else if full then 600 else 300 in
  let mc_samples = if smoke then 120 else if full then 1000 else 400 in
  let pipe_gates = if smoke then 220 else if full then 800 else 420 in
  let reps = if smoke then 2 else 3 in
  Printf.fprintf oc
    "E15: domain-pool scaling (%d core%s available; domains = %s)\n"
    cores (if cores = 1 then "" else "s")
    (String.concat "/" (List.map string_of_int counts));
  if cores = 1 then
    Printf.fprintf oc
      "NOTE: single-core host -- scaling rows measure pool overhead only;\n\
      \      the speedup gate is skipped (equivalence is still enforced).\n";
  (* deterministic kernel inputs, drawn once *)
  let rng = Rng.create 0xe15 in
  let ka = gaussian_mat rng dim (dim - 32) in
  let kb = gaussian_mat rng (dim - 32) dim in
  let kc = gaussian_mat rng dim (dim - 32) in
  (* force the parallel path even in the smoke profile's smaller sizes *)
  let saved_threshold = Linalg.Mat.par_threshold_value () in
  Linalg.Mat.set_par_threshold 10_000;
  Fun.protect ~finally:(fun () -> Linalg.Mat.set_par_threshold saved_threshold)
  @@ fun () ->
  let kernel kname dims f =
    let reference = ref None in
    let identical = ref true in
    let times_ms =
      List.map
        (fun d ->
          Par.Pool.set_size d;
          let v, dt = best_of reps f in
          (match !reference with
           | None -> reference := Some v
           | Some r -> if not (Harness.bits_equal r v) then identical := false);
          (d, dt *. 1000.0))
        counts
    in
    { kname; dims; times_ms; identical = !identical }
  in
  let kernels =
    [
      kernel "mul"
        (Printf.sprintf "%dx%d * %dx%d" dim (dim - 32) (dim - 32) dim)
        (fun () -> Linalg.Mat.mul ka kb);
      kernel "mul_nt"
        (Printf.sprintf "%dx%d * (%dx%d)^T" dim (dim - 32) dim (dim - 32))
        (fun () -> Linalg.Mat.mul_nt ka kc);
      kernel "mul_tn"
        (Printf.sprintf "(%dx%d)^T * %dx%d" dim (dim - 32) dim (dim - 32))
        (fun () -> Linalg.Mat.mul_tn ka kc);
      kernel "gram"
        (Printf.sprintf "%dx%d" dim (dim - 32))
        (fun () -> Linalg.Mat.gram ka);
      (* the SVD's column sweeps and rotation blocks: u, s and v flattened
         into one row, so [identical] covers every bit of the factors *)
      kernel "svd"
        (Printf.sprintf "%dx%d" dim (dim - 32))
        (fun () ->
          let f = Linalg.Svd.factor ka in
          Linalg.Mat.of_rows
            [ Array.concat [ f.Linalg.Svd.u.Linalg.Mat.data; f.Linalg.Svd.s; f.Linalg.Svd.v.Linalg.Mat.data ] ]);
    ]
  in
  let header =
    String.concat "" (List.map (fun d -> Printf.sprintf " %7dd" d) counts)
  in
  Printf.fprintf oc "%-8s %-24s%s  speedup@4  identical\n" "kernel" "dims" header;
  List.iter
    (fun k ->
      Printf.fprintf oc "%-8s %-24s%s %9.2fx  %s\n" k.kname k.dims
        (String.concat ""
           (List.map (fun (_, ms) -> Printf.sprintf " %7.1fms" ms) k.times_ms))
        (speedup_at k.times_ms 4)
        (if k.identical then "yes" else "NO"))
    kernels;
  (* Monte Carlo: yield estimate and virtual-die delays must not depend
     on the pool size at all *)
  let nl =
    Circuit.Generator.generate
      { Circuit.Generator.default with num_gates = mc_gates; seed = 15 }
  in
  let model = Timing.Variation.make_model ~levels:3 () in
  let dm = Timing.Delay_model.build nl model in
  let t_cons = Timing.Delay_model.nominal_critical_delay dm in
  let yields =
    List.map
      (fun d ->
        Par.Pool.set_size d;
        let y, dt =
          Harness.time (fun () ->
              Timing.Monte_carlo.circuit_yield dm ~t_cons ~rng:(Rng.create 99)
                ~samples:mc_samples)
        in
        (d, y, dt))
      counts
  in
  let _, y1, _ = List.hd yields in
  let mc_yield_identical = List.for_all (fun (_, y, _) -> y = y1) yields in
  Printf.fprintf oc "mc yield (%d samples):%s  identical %s\n" mc_samples
    (String.concat ""
       (List.map (fun (_, _, dt) -> Printf.sprintf " %7.1fms" (dt *. 1000.0)) yields))
    (if mc_yield_identical then "yes" else "NO");
  let mc_delays_identical =
    match
      Core.Pipeline.prepare_result ~max_paths:400 ~yield_samples:60 ~netlist:nl
        ~model ()
    with
    | Error _ -> true
    | Ok setup ->
      let delays_at d =
        Par.Pool.set_size d;
        let mc = Timing.Monte_carlo.sample (Rng.create 7) setup.Core.Pipeline.pool ~n:200 in
        Timing.Monte_carlo.path_delays mc
      in
      let reference = delays_at 1 in
      List.for_all (fun d -> Harness.bits_equal reference (delays_at d)) (List.tl counts)
  in
  (* end to end: netlist -> SSTA/yield -> extraction -> SVD -> Algorithm 1
     -> Monte Carlo evaluation, the whole [pathsel select] hot path *)
  let pipe_nl =
    Circuit.Generator.generate
      { Circuit.Generator.default with num_gates = pipe_gates; seed = 3 }
  in
  let pipeline_once () =
    let setup =
      Core.Pipeline.prepare ~max_paths:profile.Profile.max_paths
        ~yield_samples:(if smoke then 150 else profile.Profile.yield_samples)
        ~netlist:pipe_nl ~model ()
    in
    let sel = Core.Pipeline.approximate_selection setup ~eps in
    let m =
      Core.Pipeline.evaluate_selection
        ~mc_samples:(if smoke then 400 else profile.Profile.mc_samples)
        setup sel
    in
    (sel.Core.Select.indices, m.Core.Evaluate.e1, m.Core.Evaluate.e2)
  in
  let pipe_runs =
    List.map
      (fun d ->
        Par.Pool.set_size d;
        let v, dt = best_of (if smoke then 1 else 2) pipeline_once in
        (d, v, dt))
      counts
  in
  let _, ref_run, _ = List.hd pipe_runs in
  let pipeline_identical =
    List.for_all
      (fun (_, (idx, e1, e2), _) ->
        let ridx, re1, re2 = ref_run in
        idx = ridx
        && Int64.bits_of_float e1 = Int64.bits_of_float re1
        && Int64.bits_of_float e2 = Int64.bits_of_float re2)
      pipe_runs
  in
  let pipeline_times_s = List.map (fun (d, _, dt) -> (d, dt)) pipe_runs in
  Printf.fprintf oc "pipeline (%d gates):%s  speedup@4 %.2fx  identical %s\n"
    pipe_gates
    (String.concat ""
       (List.map (fun (_, dt) -> Printf.sprintf " %7.2fs" dt) pipeline_times_s))
    (speedup_at pipeline_times_s 4)
    (if pipeline_identical then "yes" else "NO");
  let matmul_speedup =
    speedup_at (List.map (fun (d, ms) -> (d, ms)) (List.hd kernels).times_ms) 4
  in
  let pipeline_speedup = speedup_at pipeline_times_s 4 in
  let equivalence_ok =
    List.for_all (fun k -> k.identical) kernels
    && mc_yield_identical && mc_delays_identical && pipeline_identical
  in
  let speedup_gate_active = cores >= 2 in
  let ok =
    equivalence_ok && ((not speedup_gate_active) || matmul_speedup >= 2.0)
  in
  Printf.fprintf oc "equivalence: %s | speedup gate: %s\n"
    (if equivalence_ok then "all outputs bit-identical across domain counts"
     else "BROKEN -- parallel kernels changed an answer")
    (if not speedup_gate_active then "skipped (single core)"
     else if ok then Printf.sprintf "pass (matmul %.2fx >= 2x at 4 domains)" matmul_speedup
     else Printf.sprintf "FAIL (matmul %.2fx < 2x at 4 domains)" matmul_speedup);
  flush oc;
  let result =
    {
      cores; counts; kernels; mc_yield_identical; mc_delays_identical;
      pipeline_times_s; pipeline_identical; matmul_speedup; pipeline_speedup;
      equivalence_ok; speedup_gate_active; ok;
    }
  in
  (match out with
   | None -> ()
   | Some path ->
     let open Core.Report in
     let times_json times scale =
       List (List.map (fun (d, t) ->
           Obj [ ("domains", Int d); ("time", Float (t *. scale)) ]) times)
     in
     write_file path
       (Obj
          ([ ("experiment", String "E15") ]
          @ Host.fields ()
          @ [
            ("profile", String profile.Profile.name);
            ("domain_counts", List (List.map (fun d -> Int d) result.counts));
            ( "kernels",
              List
                (List.map
                   (fun k ->
                     Obj
                       [
                         ("kernel", String k.kname);
                         ("dims", String k.dims);
                         ("times_ms", times_json k.times_ms 1.0);
                         ("speedup_at_4_domains", Float (speedup_at k.times_ms 4));
                         ("bit_identical", Bool k.identical);
                       ])
                   result.kernels) );
            ( "monte_carlo",
              Obj
                [
                  ("yield_identical_across_domains", Bool result.mc_yield_identical);
                  ("die_delays_bit_identical", Bool result.mc_delays_identical);
                ] );
            ( "pipeline",
              Obj
                [
                  ("gates", Int pipe_gates);
                  ("times_s", times_json result.pipeline_times_s 1.0);
                  ("speedup_at_4_domains", Float result.pipeline_speedup);
                  ("outputs_identical", Bool result.pipeline_identical);
                ] );
            ("matmul_speedup_at_4_domains", Float result.matmul_speedup);
            ("equivalence_ok", Bool result.equivalence_ok);
            ("speedup_gate_active", Bool result.speedup_gate_active);
            ("ok", Bool result.ok);
          ]));
     Printf.fprintf oc "wrote %s\n" path;
     flush oc);
  result
