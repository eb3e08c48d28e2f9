(* Tests for the self-healing loop's state machine (Serve.Monitor),
   driven deterministically: [step ~now] takes the caller's clock, so
   calibration, drift-triggered re-selection, cooldown, exponential
   backoff on failure, and artifact-swap recalibration are all checked
   without threads or wall-clock sleeps. *)

module Monitor = Serve.Monitor

let n_paths = 5
let r = 2
let m = 3

let mon_cfg =
  {
    Monitor.default_config with
    Monitor.calibrate = 4;
    min_dies = 4;
    buffer = 8;
    refit_min = 2;
    cooldown = 1.0;
    max_backoff = 4.0;
    drift =
      { Stats.Drift.default_config with Stats.Drift.slack = 0.0; warn = 1.0;
        drift = 2.0 };
  }

(* a fully measured die whose residual is [resid]; delay values are
   arbitrary finite numbers keyed off [i] so the refit sees variation *)
let obs ?(resid = 0.0) i =
  let f k = 10.0 +. float_of_int (((i * 7) + k) mod 5) in
  let measured = Array.init r f in
  let truth = Array.init m (fun k -> f (r + k)) in
  let full = Array.append measured truth in
  { Monitor.measured; truth; full; resid; wafer = "" }

let create ?(config = mon_cfg) ?(reselect = fun _ -> Ok (r, m, 1.0)) () =
  Monitor.create ~config ~n_paths ~r ~m ~reselect ()

(* submit [calibrate] healthy dies with +/-0.1 residuals: reference
   mean ~0, sigma ~0.1, so a unit residual is a ~10-sigma step *)
let calibrate t ~now =
  for i = 1 to mon_cfg.Monitor.calibrate do
    Monitor.submit t (obs ~resid:(if i mod 2 = 0 then 0.1 else -0.1) i)
  done;
  Monitor.step t ~now

let test_calibration () =
  let t = create () in
  let r0 = Monitor.read t in
  Alcotest.(check bool) "starts calibrating" true r0.Monitor.calibrating;
  calibrate t ~now:0.0;
  let r1 = Monitor.read t in
  Alcotest.(check bool) "calibrated" false r1.Monitor.calibrating;
  Alcotest.(check int) "dies observed" 4 r1.Monitor.observed;
  Alcotest.(check string) "healthy" "healthy"
    (Stats.Drift.state_to_string r1.Monitor.state);
  (* refit_min = 2 < 4: a coefficient snapshot is published *)
  match Monitor.coefficients t with
  | Some (b, n) ->
    Alcotest.(check (pair int int)) "coeff dims" (r + 1, m) (Linalg.Mat.dims b);
    Alcotest.(check int) "dies behind the snapshot" 4 n
  | None -> Alcotest.fail "no coefficients after refit_min dies"

let test_drift_triggers_reselect () =
  let calls = ref [] in
  let reselect recent =
    calls := Linalg.Mat.dims recent :: !calls;
    Ok (r, m, 42.0)
  in
  let t = create ~reselect () in
  calibrate t ~now:0.0;
  (* one 10-sigma residual blows straight past drift = 2 *)
  Monitor.submit t (obs ~resid:1.0 99);
  Monitor.step t ~now:10.0;
  let rep = Monitor.read t in
  Alcotest.(check int) "one reselect" 1 rep.Monitor.reselects;
  Alcotest.(check int) "no failures" 0 rep.Monitor.reselect_failures;
  Alcotest.(check bool) "wall time surfaced" true
    (Float.abs (rep.Monitor.last_reselect_ms -. 42.0) < 1e-9);
  Alcotest.(check bool) "recalibrating against the new artifact" true
    rep.Monitor.calibrating;
  (match !calls with
   | [ (dies, cols) ] ->
     Alcotest.(check int) "full-path columns" n_paths cols;
     Alcotest.(check int) "all ring dies passed" 5 dies
   | l -> Alcotest.failf "expected one reselect call, got %d" (List.length l));
  (* cooldown: drift again immediately after recalibration must wait
     out [now + cooldown] before the next attempt fires *)
  calibrate t ~now:10.2;
  Monitor.submit t (obs ~resid:1.0 100);
  Monitor.step t ~now:10.5;
  Alcotest.(check int) "cooldown holds" 1 (Monitor.read t).Monitor.reselects;
  Monitor.step t ~now:11.0;
  Alcotest.(check int) "cooldown elapsed" 2 (Monitor.read t).Monitor.reselects

let test_failure_backoff () =
  let fail = ref true in
  let attempts = ref 0 in
  let reselect _ =
    incr attempts;
    if !fail then Error "boom" else Ok (r, m, 5.0)
  in
  let t = create ~reselect () in
  calibrate t ~now:0.0;
  Monitor.submit t (obs ~resid:1.0 50);
  Monitor.step t ~now:10.0;
  let rep = Monitor.read t in
  Alcotest.(check int) "first failure" 1 rep.Monitor.reselect_failures;
  Alcotest.(check string) "error surfaced" "boom" rep.Monitor.last_error;
  Alcotest.(check bool) "backoff at cooldown" true
    (Float.abs (rep.Monitor.backoff_s -. 1.0) < 1e-9);
  (* the latch holds the detector at Drifted, but the backoff gates
     retries: nothing fires before now + backoff *)
  Monitor.step t ~now:10.9;
  Alcotest.(check int) "backoff holds" 1 !attempts;
  Monitor.step t ~now:11.0;
  Alcotest.(check int) "retry at the deadline" 2 !attempts;
  Alcotest.(check bool) "backoff doubles" true
    (Float.abs ((Monitor.read t).Monitor.backoff_s -. 2.0) < 1e-9);
  Monitor.step t ~now:13.0;
  Alcotest.(check int) "third attempt" 3 !attempts;
  Monitor.step t ~now:17.0;
  Alcotest.(check int) "fourth attempt" 4 !attempts;
  Alcotest.(check bool) "backoff capped at max_backoff" true
    (Float.abs ((Monitor.read t).Monitor.backoff_s -. 4.0) < 1e-9);
  (* recovery: the next successful attempt clears the backoff and the
     failure trail, and the old-artifact stream was never interrupted *)
  fail := false;
  Monitor.step t ~now:21.0;
  let rep = Monitor.read t in
  Alcotest.(check int) "success after failures" 1 rep.Monitor.reselects;
  Alcotest.(check int) "failures retained for the record" 4
    rep.Monitor.reselect_failures;
  Alcotest.(check bool) "backoff cleared" true
    (Float.abs rep.Monitor.backoff_s < 1e-9);
  Alcotest.(check string) "error cleared" "" rep.Monitor.last_error

let test_swapped_recalibrates () =
  let t = create () in
  calibrate t ~now:0.0;
  Monitor.submit t (obs ~resid:1.0 7);
  (* min_dies not yet in the ring? it is (5 >= 4) — but make the swap
     arrive before the step so no reselect fires *)
  Monitor.swapped t ~r ~m;
  let rep = Monitor.read t in
  Alcotest.(check bool) "recalibrating after swap" true rep.Monitor.calibrating;
  Alcotest.(check int) "refit restarted" 0 rep.Monitor.refit_dies;
  Monitor.step t ~now:1.0;
  Alcotest.(check int) "no reselect during recalibration" 0
    (Monitor.read t).Monitor.reselects;
  (* incompatible split is a programming error, loudly rejected *)
  match Monitor.swapped t ~r:(r + 1) ~m with
  | () -> Alcotest.fail "incompatible split must be rejected"
  | exception Invalid_argument _ -> ()

(* serve's reload path reports every swap back through [swapped] — when
   the swap is the monitor's own re-selection landing, the post-reselect
   cooldown must survive the resync instead of being erased by it *)
let test_self_swap_keeps_cooldown () =
  let t = create () in
  calibrate t ~now:0.0;
  Monitor.submit t (obs ~resid:1.0 99);
  Monitor.step t ~now:10.0;
  Alcotest.(check int) "reselect fired" 1 (Monitor.read t).Monitor.reselects;
  (* the mon_resync round-trip: our own artifact landed *)
  Monitor.swapped t ~r ~m;
  calibrate t ~now:10.1;
  Monitor.submit t (obs ~resid:1.0 100);
  Monitor.step t ~now:10.5;
  Alcotest.(check int) "cooldown survives own swap" 1
    (Monitor.read t).Monitor.reselects;
  Monitor.step t ~now:11.0;
  Alcotest.(check int) "cooldown elapsed" 2 (Monitor.read t).Monitor.reselects

let test_operator_swap_clears_backoff () =
  let fail = ref true in
  let reselect _ = if !fail then Error "boom" else Ok (r, m, 1.0) in
  let t = create ~reselect () in
  calibrate t ~now:0.0;
  Monitor.submit t (obs ~resid:1.0 50);
  Monitor.step t ~now:10.0;
  Alcotest.(check bool) "backoff pending" true
    ((Monitor.read t).Monitor.backoff_s > 0.0);
  (* an operator SIGHUPs a fresh artifact in: pacing resets — the new
     model deserves an ungated first attempt if it still drifts *)
  Monitor.swapped t ~r ~m;
  Alcotest.(check bool) "operator swap clears backoff" true
    (Float.abs (Monitor.read t).Monitor.backoff_s < 1e-9);
  fail := false;
  calibrate t ~now:10.1;
  Monitor.submit t (obs ~resid:1.0 51);
  Monitor.step t ~now:10.2;
  Alcotest.(check int) "retry not gated after operator swap" 1
    (Monitor.read t).Monitor.reselects

let test_pending_cap_drops () =
  let cfg = { mon_cfg with Monitor.pending_cap = 2 } in
  let t = create ~config:cfg () in
  for i = 1 to 5 do Monitor.submit t (obs i) done;
  Monitor.step t ~now:0.0;
  let rep = Monitor.read t in
  Alcotest.(check int) "cap admits two" 2 rep.Monitor.observed;
  Alcotest.(check int) "overflow counted, not blocked" 3 rep.Monitor.dropped;
  (* the drain released exactly the admitted slots: the next batch is
     admitted up to the cap again, not against a stale count *)
  for i = 6 to 10 do Monitor.submit t (obs i) done;
  Monitor.step t ~now:1.0;
  let rep = Monitor.read t in
  Alcotest.(check int) "slots released after drain" 4 rep.Monitor.observed;
  Alcotest.(check int) "second overflow counted" 6 rep.Monitor.dropped

let test_malformed_observations () =
  let t = create () in
  (* wrong measured length: skipped by the shape check *)
  Monitor.submit t
    { Monitor.measured = [| 1.0 |]; truth = Array.make m 1.0;
      full = Array.make n_paths 1.0; resid = 0.0; wafer = "" };
  (* non-finite die: refit refuses it, detector sees the residual *)
  let bad = obs 3 in
  bad.Monitor.measured.(0) <- Float.nan;
  bad.Monitor.full.(0) <- Float.nan;
  Monitor.submit t bad;
  Monitor.step t ~now:0.0;
  let rep = Monitor.read t in
  Alcotest.(check int) "both skipped" 2 rep.Monitor.skipped;
  Alcotest.(check int) "neither observed" 0 rep.Monitor.observed;
  Alcotest.(check int) "fail-safe untripped" 0 rep.Monitor.monitor_errors

let test_create_validation () =
  let rejects name f =
    match f () with
    | (_ : Monitor.t) -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  let reselect _ = Ok (r, m, 0.0) in
  rejects "split does not cover the pool" (fun () ->
      Monitor.create ~config:mon_cfg ~n_paths ~r:3 ~m ~reselect ());
  rejects "buffer below min_dies" (fun () ->
      Monitor.create
        ~config:{ mon_cfg with Monitor.buffer = 2 }
        ~n_paths ~r ~m ~reselect ());
  rejects "nonpositive cooldown" (fun () ->
      Monitor.create
        ~config:{ mon_cfg with Monitor.cooldown = 0.0 }
        ~n_paths ~r ~m ~reselect ());
  (* detector thresholds are validated at startup, not when calibration
     completes mid-stream on the monitor thread *)
  rejects "warn above drift threshold" (fun () ->
      Monitor.create
        ~config:
          { mon_cfg with
            Monitor.drift =
              { mon_cfg.Monitor.drift with Stats.Drift.warn = 9.0; drift = 8.0 } }
        ~n_paths ~r ~m ~reselect ());
  rejects "nonpositive drift threshold" (fun () ->
      Monitor.create
        ~config:
          { mon_cfg with
            Monitor.drift =
              { mon_cfg.Monitor.drift with Stats.Drift.warn = 0.0; drift = 0.0 } }
        ~n_paths ~r ~m ~reselect ())

(* ------------------------------------------------------------------ *)
(* Durability: recovery must land on the state an uninterrupted run
   holds — not approximately, bit-exactly. *)

module Durable = Serve.Durable

(* drift thresholds pushed out of reach: no re-selection fires, so the
   comparison below is pure ingest state (refit moments, detector
   accumulators, ring, counters) with no pacing noise *)
let quiet_cfg =
  {
    mon_cfg with
    Monitor.drift =
      { Stats.Drift.default_config with Stats.Drift.slack = 0.0; warn = 1e6;
        drift = 1e9; var_ratio = 1e9 };
  }

(* die [i] of a deterministic stream with some character: varying
   residuals, an occasional non-finite truth (exercises the skipped
   path) — recovery must reproduce the bookkeeping for those too *)
let stream_die i =
  let o = obs ~resid:(0.05 *. float_of_int ((i mod 9) - 4)) i in
  if i mod 7 = 3 then o.Monitor.truth.(0) <- Float.nan;
  o

let quiet_create () = create ~config:quiet_cfg ()

(* an uninterrupted monitor over journaled dies [1..n] *)
let uninterrupted n =
  let t = quiet_create () in
  for i = 1 to n do
    Monitor.submit ~seq:i t (stream_die i)
  done;
  Monitor.step t ~now:0.0;
  t

let prop_recovery =
  QCheck.Test.make ~count:40
    ~name:"checkpoint + WAL-suffix replay equals the uninterrupted run"
    QCheck.(triple (int_range 1 40) (int_range 0 1000) (int_range 0 3))
    (fun (n, kseed, overlap) ->
      let k = kseed mod (n + 1) in
      let reference = uninterrupted n in
      (* the crashed run: k dies made it into the checkpoint *)
      let before = quiet_create () in
      for i = 1 to k do
        Monitor.submit ~seq:i before (stream_die i)
      done;
      Monitor.step before ~now:0.0;
      (* the snapshot rides the real codec, so this also proves the
         canonical encoding round-trips *)
      let snap =
        match Durable.decode_snapshot (Durable.encode_snapshot
                                         (Monitor.snapshot before)) with
        | Ok s -> s
        | Error msg -> QCheck.Test.fail_reportf "snapshot codec: %s" msg
      in
      let recovered =
        Monitor.restore ~config:quiet_cfg ~n_paths
          ~reselect:(fun _ -> Error "no reselect during the property") snap
      in
      if Monitor.applied_seq recovered <> k then
        QCheck.Test.fail_reportf "restored applied_seq %d, expected %d"
          (Monitor.applied_seq recovered) k;
      (* replay a WAL suffix that overlaps the checkpoint: records at
         or below applied_seq must be skipped (idempotence) *)
      let from = Int.max 1 (k - overlap + 1) in
      Monitor.replay recovered
        (List.init (n - from + 1) (fun j -> (from + j, stream_die (from + j))));
      Monitor.applied_seq recovered = n
      && Durable.snapshot_equal (Monitor.snapshot reference)
           (Monitor.snapshot recovered))

(* a double replay of the same suffix must change nothing *)
let test_replay_idempotent () =
  let n = 12 and k = 5 in
  let recovered =
    Monitor.restore ~config:quiet_cfg ~n_paths
      ~reselect:(fun _ -> Error "no reselect")
      (Monitor.snapshot
         (let t = quiet_create () in
          for i = 1 to k do
            Monitor.submit ~seq:i t (stream_die i)
          done;
          Monitor.step t ~now:0.0;
          t))
  in
  let suffix = List.init (n - k) (fun j -> (k + 1 + j, stream_die (k + 1 + j))) in
  Monitor.replay recovered suffix;
  let once = Monitor.snapshot recovered in
  Monitor.replay recovered suffix;
  Alcotest.(check bool) "second replay is a no-op" true
    (Durable.snapshot_equal once (Monitor.snapshot recovered));
  Alcotest.(check bool) "matches the uninterrupted run" true
    (Durable.snapshot_equal (Monitor.snapshot (uninterrupted n)) once)

(* Durable.save_checkpoint rides Store.write_file_atomic: children are
   SIGKILLed mid-save; the checkpoint path must always load as the old
   or the new (gen, snapshot) pair, never torn — the serve-layer twin
   of test_store's kill-mid-write *)
let snap_after n = Monitor.snapshot (uninterrupted n)

(* the kill-mid-checkpoint victim: rebuild the 14-die state, save it *)
let crash_child = function
  | [ path ] ->
    let s2 = snap_after 14 in
    Crash.ready ();
    ignore (Durable.save_checkpoint path ~gen:2 s2)
  | _ -> exit 2

let test_checkpoint_kill_mid_write () =
  let s1 = snap_after 6 and s2 = snap_after 14 in
  let path = Filename.temp_file "pathsel-ckpt" ".psc" in
  (match Durable.save_checkpoint path ~gen:1 s1 with
   | Ok () -> ()
   | Error e -> Alcotest.failf "seed checkpoint: %s" (Core.Errors.to_string e));
  for i = 0 to 19 do
    Crash.kill_after ~delay:(float_of_int (i mod 7) *. 0.0004) "monitor" [ path ];
    match Durable.load_checkpoint path with
    | Error e ->
      Alcotest.failf "iteration %d: torn checkpoint: %s" i
        (Core.Errors.to_string e)
    | Ok None -> Alcotest.failf "iteration %d: checkpoint vanished" i
    | Ok (Some (gen, s)) ->
      if
        not
          ((gen = 1 && Durable.snapshot_equal s s1)
          || (gen = 2 && Durable.snapshot_equal s s2))
      then Alcotest.failf "iteration %d: checkpoint is neither old nor new" i
  done;
  let dir = Filename.dirname path in
  let prefix = Filename.basename path ^ ".tmp." in
  Array.iter
    (fun f ->
      if String.length f >= String.length prefix
         && String.sub f 0 (String.length prefix) = prefix
      then try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  Sys.remove path

let suites =
  [
    ( "monitor",
      List.map
        (fun (name, f) -> Alcotest.test_case name `Quick f)
        [
          ("calibration publishes a healthy baseline", test_calibration);
          ("drift triggers background reselect", test_drift_triggers_reselect);
          ("failed reselect backs off exponentially", test_failure_backoff);
          ("artifact swap recalibrates", test_swapped_recalibrates);
          ("own swap keeps the reselect cooldown", test_self_swap_keeps_cooldown);
          ("operator swap clears the backoff", test_operator_swap_clears_backoff);
          ("pending cap drops instead of blocking", test_pending_cap_drops);
          ("malformed observations are contained", test_malformed_observations);
          ("create validates config", test_create_validation);
          ("replay is idempotent", test_replay_idempotent);
          ( "kill mid-checkpoint leaves old or new, never torn",
            test_checkpoint_kill_mid_write );
        ]
      @ [ QCheck_alcotest.to_alcotest prop_recovery ] );
  ]
