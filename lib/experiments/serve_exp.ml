type batch_row = {
  batch : int;
  inproc_dies_per_s : float;
  socket_dies_per_s : float;
  socket_round_trip_ms : float;
}

type result = {
  bench : string;
  n_paths : int;
  n_rep : int;
  cold_per_die_s : float;
  cold_256_s : float;
  warm_256_socket_s : float;
  speedup_256 : float;
  bit_identical : bool;
  rows : batch_row list;
}

let eps = 0.05

let batches = [ 1; 16; 64; 256 ]

let n_dies = 256

let json_of_result r =
  let open Core.Report in
  Obj
    ([ ("experiment", String "E14") ]
    @ Host.fields ()
    @ [
      ("bench", String r.bench);
      ("n_paths", Int r.n_paths);
      ("n_rep", Int r.n_rep);
      ("cold_per_die_s", Float r.cold_per_die_s);
      ("cold_256_s", Float r.cold_256_s);
      ("warm_256_socket_s", Float r.warm_256_socket_s);
      ("speedup_256", Float r.speedup_256);
      ("bit_identical", Bool r.bit_identical);
      ( "rows",
        List
          (List.map
             (fun b ->
               Obj
                 [
                   ("batch", Int b.batch);
                   ("inproc_dies_per_s", Float b.inproc_dies_per_s);
                   ("socket_dies_per_s", Float b.socket_dies_per_s);
                   ("socket_round_trip_ms", Float b.socket_round_trip_ms);
                 ])
             r.rows) );
    ])

let run ?(oc = stdout) ?out profile =
  let bench_name = "s1423" in
  Printf.fprintf oc
    "E14: serving throughput (%s, %d MC dies; cold pipeline vs warm server)\n"
    bench_name n_dies;
  let build () =
    let setup = Table1.setup_named profile bench_name in
    (setup, Core.Pipeline.approximate_selection setup ~eps)
  in
  let setup, sel = build () in
  let pool = setup.Core.Pipeline.pool in
  let artifact = Harness.artifact ~fingerprint:"bench:e14 s1423" ~eps setup sel in
  let p = sel.Core.Select.predictor in
  let rep = Core.Predictor.rep_indices p in
  let n_rep = Array.length rep in
  let n_paths = Timing.Paths.num_paths pool in
  let mc = Timing.Monte_carlo.sample (Rng.create 14) pool ~n:n_dies in
  let d = Timing.Monte_carlo.path_delays mc in
  let clean = Linalg.Mat.select_cols d rep in
  (* cold: what [pathsel select] pays per invocation — netlist, SSTA,
     extraction, SVD, bisection selection, then the one-die predict *)
  let n_cold = if profile.Profile.name = "full" then 6 else 3 in
  let cold_once () =
    let (_, sel'), dt1 = Harness.time build in
    let p' = sel'.Core.Select.predictor in
    let rep' = Core.Predictor.rep_indices p' in
    let one = Linalg.Mat.select_cols (Harness.rows_of d 0 1) rep' in
    let _, dt2 = Harness.time (fun () -> ignore (Core.Predictor.predict_all p' ~measured:one)) in
    dt1 +. dt2
  in
  let cold_per_die_s =
    let ts = List.init n_cold (fun _ -> cold_once ()) in
    List.fold_left ( +. ) 0.0 ts /. float_of_int n_cold
  in
  let cold_256_s = cold_per_die_s *. float_of_int n_dies in
  Printf.fprintf oc
    "selection |Pr| = %d of %d; cold pipeline %.3f s/die (x%d = %.1f s)\n" n_rep
    n_paths cold_per_die_s n_dies cold_256_s;
  (* warm, in-process: the request handler on the loaded artifact *)
  let server = Serve.create artifact in
  let inproc b =
    let line =
      Serve.Wire.print
        (Serve.Wire.Obj
           [
             ("op", Serve.Wire.String "predict");
             ("dies", Serve.Wire.mat_to_json (Harness.rows_of clean 0 b));
           ])
    in
    let reps = max 1 (n_dies / b) in
    let _, dt =
      Harness.time (fun () ->
          for _ = 1 to reps do
            ignore (Serve.handle server line)
          done)
    in
    float_of_int (b * reps) /. dt
  in
  let inproc_rates = List.map (fun b -> (b, inproc b)) batches in
  (* warm, socket: spawn the real server, measure full round trips *)
  let artifact_path = Harness.artifact_file "pathsel-e14" artifact in
  let addr = Harness.temp_socket "pathsel-e14" in
  let server_error msg =
    Core.Errors.raise_error (Core.Errors.Bad_data ("Serve_exp: server error: " ^ msg))
  in
  let (socket_rates, warm_256_socket_s, bit_identical), alive =
    Harness.session ~oc ~budget:(Harness.budget profile) "E14 socket sweep"
    @@ fun h ->
    ignore (Harness.start h ~artifact:artifact_path addr);
    let conn = Serve.Client.connect addr in
    let socket_row b =
      let sub = Harness.rows_of clean 0 b in
      let reps = max 1 (n_dies / b) in
      let _, dt =
        Harness.time (fun () ->
            for _ = 1 to reps do
              match Serve.Client.predict conn sub with
              | Ok _ -> ()
              | Error msg -> server_error msg
            done)
      in
      (float_of_int (b * reps) /. dt, dt /. float_of_int reps *. 1000.0)
    in
    let socket_rates = List.map (fun b -> (b, socket_row b)) batches in
    (* the acceptance measurement: one full 256-die batch *)
    let served, warm_256_socket_s =
      Harness.time (fun () ->
          match Serve.Client.predict conn clean with
          | Ok (m, _) -> m
          | Error msg -> server_error msg)
    in
    Serve.Client.close conn;
    ignore (Harness.stop h);
    (* the served predictions travel through %.17g JSON, which
       round-trips doubles exactly, so anything short of identical bits
       is a wire or dispatch bug *)
    let expected = Core.Predictor.predict_all p ~measured:clean in
    (socket_rates, warm_256_socket_s, Harness.bits_equal served expected)
  in
  Sys.remove artifact_path;
  if not alive then server_error "watchdog expired";
  let rows =
    List.map
      (fun b ->
        let inproc_dies_per_s = List.assoc b inproc_rates in
        let socket_dies_per_s, socket_round_trip_ms = List.assoc b socket_rates in
        { batch = b; inproc_dies_per_s; socket_dies_per_s; socket_round_trip_ms })
      batches
  in
  let speedup_256 = cold_256_s /. warm_256_socket_s in
  Printf.fprintf oc "%6s %16s %16s %15s\n" "batch" "inproc dies/s" "socket dies/s"
    "round-trip ms";
  List.iter
    (fun r ->
      Printf.fprintf oc "%6d %16.0f %16.0f %15.3f\n" r.batch r.inproc_dies_per_s
        r.socket_dies_per_s r.socket_round_trip_ms)
    rows;
  Printf.fprintf oc
    "warm 256-die batch over the socket: %.4f s -> %.0fx over 256 cold runs\n"
    warm_256_socket_s speedup_256;
  Printf.fprintf oc "served predictions bit-identical to in-process: %s\n"
    (if bit_identical then "yes" else "NO (wire bug)");
  flush oc;
  let result =
    {
      bench = bench_name;
      n_paths;
      n_rep;
      cold_per_die_s;
      cold_256_s;
      warm_256_socket_s;
      speedup_256;
      bit_identical;
      rows;
    }
  in
  Harness.write_json ~oc out (json_of_result result);
  result
