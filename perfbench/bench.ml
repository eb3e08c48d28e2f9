(* The repository benchmark.

     bench.exe --workload W --seed N --seconds S --trace 0|1
               [--tiny] [--pathsel EXE] [--reference FILE] [--out DIR]

   Runs one workload for about S seconds on inputs made from seed N,
   checks every output, and prints as its last line one JSON object
   with the keys correct, attempted, failed and metrics: the
   end-to-end metrics untraced, the per-layer metrics traced. A full
   report (provenance, every metric, notes, spans) goes to
   DIR/<workload>-seed<N>-trace<0|1>.json. Exit code 0 only when every
   check passed. *)

open Perfbench

let workloads = [ "select_exact"; "select_stream"; "serve_mixed" ]

(* Every per-layer metric, in report order. A traced run prints all of
   them; a layer the workload does not exercise reads 0. *)
let layer_units =
  [
    ("circuit.netlist_s", "s");
    ("core.prepare_s", "s");
    ("core.select_s", "s");
    ("core.evaluations", "count");
    ("core.rank", "count");
    ("core.effective_rank", "count");
    ("core.selected", "count");
    ("store.of_selection_s", "s");
    ("store.save_s", "s");
    ("store.artifact_bytes", "bytes");
    ("bench.select_op_self_s", "s");
    ("linalg.svd_probe_s", "s");
    ("linalg.gram_probe_s", "s");
    ("timing.pool_build_s", "s");
    ("timing.pool_nnz", "count");
    ("core.sketch_s", "s");
    ("linalg.op_calls", "count");
    ("linalg.op_s", "s");
    ("linalg.sketch_dense_s", "s");
    ("linalg.sketch_rank", "count");
    ("client.rt_ms.predict", "ms");
    ("client.rt_ms.observe", "ms");
    ("client.rt_ms.tune", "ms");
    ("client.tail_ms.predict", "ms");
    ("client.tail_ms.observe", "ms");
    ("client.encode_ms.predict", "ms");
    ("client.encode_ms.observe", "ms");
    ("client.encode_ms.tune", "ms");
    ("client.decode_ms.predict", "ms");
    ("client.decode_ms.observe", "ms");
    ("client.decode_ms.tune", "ms");
    ("serve.dies_per_s", "dies/s");
    ("serve.decode_ms.predict", "ms");
    ("serve.decode_ms.observe", "ms");
    ("serve.decode_ms.tune", "ms");
    ("serve.encode_ms.predict", "ms");
    ("serve.compute_ms.predict", "ms");
    ("serve.compute_ms.tune", "ms");
    ("serve.handle_ms.predict", "ms");
    ("serve.handle_ms.observe", "ms");
    ("serve.handle_ms.tune", "ms");
    ("serve.socket_ms.predict", "ms");
    ("serve.socket_ms.observe", "ms");
    ("serve.socket_ms.tune", "ms");
    ("serve.request_bytes.predict", "bytes");
    ("serve.request_bytes.observe", "bytes");
    ("serve.request_bytes.tune", "bytes");
    ("serve.response_bytes.predict", "bytes");
    ("serve.response_bytes.observe", "bytes");
    ("serve.response_bytes.tune", "bytes");
    ("serve.errors", "count");
    ("serve.shed", "count");
    ("serve.timeouts", "count");
    ("monitor.observed", "count");
    ("monitor.skipped", "count");
    ("monitor.reselects", "count");
    ("store.wal_append_ms", "ms");
    ("store.wal_bytes_per_die", "bytes");
    ("store.load_s", "s");
    ("durability.journaled", "count");
    ("durability.checkpoint_seq", "count");
    ("durability.replayed", "count");
    ("durability.recover_s", "s");
    ("trace.overhead_pct", "%");
  ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload (select_exact|select_stream|serve_mixed) --seed N \
     --seconds S --trace 0|1 [--tiny] [--pathsel EXE] [--reference FILE] [--out DIR]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;
  pathsel : string;
  reference : string;
  out : string;
}

let parse_args () =
  let a =
    ref
      {
        workload = "";
        seed = 0;
        seconds = 10.0;
        trace = false;
        tiny = false;
        pathsel = ".bench_build/default/bin/pathsel.exe";
        reference = "perfbench/reference.json";
        out = ".bench_build/perfbench-out";
      }
  in
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> a := { !a with workload = w }; go rest
    | "--seed" :: n :: rest -> a := { !a with seed = int_arg n }; go rest
    | "--seconds" :: n :: rest ->
      (match float_of_string_opt n with
       | Some s when s > 0.0 -> a := { !a with seconds = s }
       | _ -> usage ());
      go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> a := { !a with trace = t = "1" }; go rest
    | "--tiny" :: rest -> a := { !a with tiny = true }; go rest
    | "--pathsel" :: p :: rest -> a := { !a with pathsel = p }; go rest
    | "--reference" :: p :: rest -> a := { !a with reference = p }; go rest
    | "--out" :: p :: rest -> a := { !a with out = p }; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if not (List.mem !a.workload workloads) then usage ();
  !a

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Sys.rmdir path with Sys_error _ -> ())
  | false -> (try Sys.remove path with Sys_error _ -> ())

(* Wall-clock watchdog: a run that outlives its budget prints what it
   was doing (and, while a server is up, the server's own stats), stops
   its children, and exits 3 without a result line. It never hangs. *)
let watchdog ~budget ~on_expiry =
  ignore
    (Thread.create
       (fun () ->
         Thread.delay budget;
         Printf.eprintf "perfbench: watchdog expired after %.0f s\n%!" budget;
         (try on_expiry () with e -> Printf.eprintf "perfbench: watchdog dump failed: %s\n%!" (Printexc.to_string e));
         Unix._exit 3)
       ())

let () =
  let args = parse_args () in
  (* a killed server's socket must surface as EPIPE, not end this run *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let size = if args.tiny then Select_wl.Tiny else Select_wl.Full in
  let tmp = Filename.concat args.out (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  mkdir_p tmp;
  let budget = Float.min 170.0 (Float.max 120.0 (args.seconds *. 4.0)) in
  watchdog ~budget ~on_expiry:(fun () ->
      Serve_wl.dump_in_flight ();
      rm_rf tmp);
  let run () =
    match args.workload with
    | "select_exact" ->
      Select_wl.select_exact ~size ~seed:args.seed ~seconds:args.seconds ~trace:args.trace
        ~reference_file:args.reference ~tmp
    | "select_stream" ->
      Select_wl.select_stream ~size ~seed:args.seed ~seconds:args.seconds ~trace:args.trace
        ~reference_file:args.reference
    | _ ->
      Serve_wl.serve_mixed ~size ~seed:args.seed ~seconds:args.seconds ~trace:args.trace
        ~pathsel:args.pathsel ~tmp
  in
  (* a run that cannot finish prints no result line *)
  let o =
    match run () with
    | o -> o
    | exception e ->
      Printf.eprintf "perfbench: %s failed: %s\n%!" args.workload (Printexc.to_string e);
      Serve_wl.dump_in_flight ();
      rm_rf tmp;
      exit 1
  in
  rm_rf tmp;
  let failed = List.length o.Measure.failures in
  let correct = failed = 0 in
  let fail_frac = float_of_int failed /. float_of_int (max 1 o.Measure.attempted) in
  let metrics =
    if not args.trace then o.Measure.e2e
    else
      List.map
        (fun (name, unit_) -> Measure.m name unit_ (Option.value ~default:0.0 (List.assoc_opt name o.Measure.layers)))
        layer_units
  in
  let open Serve.Wire in
  let provenance = Provenance.fields ~workload:args.workload ~seed:args.seed ~trace:args.trace in
  let report =
    Obj
      [
        ("provenance", Obj provenance);
        ("seconds", Float args.seconds);
        ("size", String (Select_wl.size_name size));
        ("correct", Bool correct);
        ("attempted", Int o.Measure.attempted);
        ("failed", Int failed);
        ("fail_frac", Float fail_frac);
        ("failures", List (List.map (fun s -> String s) o.Measure.failures));
        ("metrics", Measure.metrics_json metrics);
        ("notes", Obj o.Measure.notes);
        ("spans", Trace.to_json o.Measure.spans);
      ]
  in
  mkdir_p args.out;
  let file =
    Filename.concat args.out
      (Printf.sprintf "%s-seed%d-trace%d.json" args.workload args.seed (if args.trace then 1 else 0))
  in
  Out_channel.with_open_text file (fun oc -> output_string oc (print report));
  (* human-readable summary, then provenance, then the result line *)
  List.iter (fun mt -> Printf.printf "%-32s %14.4f %s\n" mt.Measure.name mt.Measure.value mt.Measure.unit_) metrics;
  Printf.printf "fail_frac %.4f (%d of %d)\n" fail_frac failed o.Measure.attempted;
  List.iter (fun s -> Printf.printf "FAILED: %s\n" s) o.Measure.failures;
  Printf.printf "report: %s\n" file;
  let brief = List.filter (fun (k, _) -> k <> "selected") o.Measure.notes in
  print_endline (print (Obj [ ("provenance", Obj (provenance @ brief)) ]));
  print_endline (Measure.result_line ~correct ~attempted:o.Measure.attempted ~failed metrics);
  exit (if correct then 0 else 1)
