(* child process roles come before the suites: a test that needs a
   separate process re-runs this executable (see crash.ml and
   Experiments.Harness) *)
let () =
  match Array.to_list Sys.argv with
  | _ :: flag :: _ when flag = Experiments.Harness.child_flag ->
    exit (Experiments.Harness.serve_child ())
  | _ :: flag :: role :: args when flag = Crash.flag ->
    (match role with
     | "store" -> Test_store.crash_child args
     | "wal" -> Test_wal.crash_child args
     | "monitor" -> Test_monitor.crash_child args
     | _ -> exit 2);
    exit 0
  | _ -> ()

let () =
  Alcotest.run "repro"
    (Test_linalg.suites @ Test_stats.suites @ Test_circuit.suites
     @ Test_timing.suites @ Test_convexopt.suites @ Test_core.suites
     @ Test_extensions.suites @ Test_edge_cases.suites @ Test_sparse_rsvd.suites @ Test_liberty.suites @ Test_measurement.suites @ Test_verilog.suites @ Test_report.suites @ Test_nested.suites @ Test_experiments.suites @ Test_sdf_corners.suites @ Test_placement.suites @ Test_baselines.suites @ Test_golden.suites @ Test_criticality.suites @ Test_properties.suites
     @ Test_par.suites
     @ Test_robust.suites @ Test_store.suites @ Test_wal.suites
     @ Test_refit.suites
     @ Test_drift.suites @ Test_serve.suites @ Test_monitor.suites
     @ Test_harness.suites
     @ Test_chaos.suites @ Test_lint.suites @ Test_analysis.suites
     @ Test_yield.suites
     @ Test_tune.suites)
