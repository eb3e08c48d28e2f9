(* The versioned artifact store: round-trip fidelity and fail-closed
   behaviour under every kind of on-disk damage. *)

let make_artifact seed =
  let nl =
    Circuit.Generator.generate
      { Circuit.Generator.default with num_gates = 80 + (seed mod 40); seed;
        depth = 8; num_inputs = 10; num_outputs = 8 }
  in
  let model = Timing.Variation.make_model ~levels:3 () in
  let dm = Timing.Delay_model.build nl model in
  let t_cons = Timing.Delay_model.nominal_critical_delay dm in
  let r =
    Timing.Path_extract.extract ~max_paths:400 dm ~t_cons ~yield_threshold:0.99
  in
  match r.Timing.Path_extract.paths with
  | [] -> None
  | paths ->
    let pool = Timing.Paths.build dm paths in
    let a = Timing.Paths.a_mat pool in
    let mu = Timing.Paths.mu_paths pool in
    let sel = Core.Select.approximate ~a ~mu ~eps:0.05 ~t_cons () in
    Some
      (Store.of_selection
         ~fingerprint:(Printf.sprintf "test seed=%d" seed)
         ~n_segments:(Timing.Paths.num_segments pool)
         ~t_cons ~eps:0.05 ~a ~mu sel)

let fixture = lazy (Option.get (make_artifact 11))

let expect_error label bytes check =
  match Store.of_bytes ~file:"<test>" bytes with
  | Ok _ -> Alcotest.failf "%s: corrupt artifact accepted" label
  | Error e ->
    check e;
    Alcotest.(check int)
      (label ^ ": sysexits data code")
      65 (Core.Errors.exit_code e)

(* ------------------------------------------------------------------ *)

let test_roundtrip_bytes () =
  let t = Lazy.force fixture in
  match Store.of_bytes (Store.to_bytes t) with
  | Error e -> Alcotest.failf "decode failed: %s" (Core.Errors.to_string e)
  | Ok t' ->
    Alcotest.(check bool) "bit-exact round trip" true (Store.equal t t');
    Alcotest.(check string) "fingerprint" "test seed=11" t'.Store.fingerprint

let test_roundtrip_file () =
  let t = Lazy.force fixture in
  let path = Filename.temp_file "pathsel-test" ".psa" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) @@ fun () ->
  (match Store.save path t with
   | Ok () -> ()
   | Error e -> Alcotest.failf "save failed: %s" (Core.Errors.to_string e));
  match Store.load path with
  | Error e -> Alcotest.failf "load failed: %s" (Core.Errors.to_string e)
  | Ok t' -> Alcotest.(check bool) "file round trip" true (Store.equal t t')

let test_predictors_survive () =
  let t = Lazy.force fixture in
  let t' =
    match Store.of_bytes (Store.to_bytes t) with
    | Ok t' -> t'
    | Error e -> Alcotest.failf "decode failed: %s" (Core.Errors.to_string e)
  in
  let p = Store.predictor t and p' = Store.predictor t' in
  let r = Array.length (Core.Predictor.rep_indices p) in
  let measured = Linalg.Mat.init 7 r (fun i j -> 400.0 +. float_of_int ((3 * i) + j)) in
  let d1 = Core.Predictor.predict_all p ~measured in
  let d2 = Core.Predictor.predict_all p' ~measured in
  Alcotest.(check bool) "plain predictions identical" true
    (Linalg.Mat.equal ~tol:0.0 d1 d2);
  let rb = Store.robust t and rb' = Store.robust t' in
  let faulty = Linalg.Mat.copy measured in
  Linalg.Mat.set faulty 2 (r - 1) Float.nan;
  let r1 = Core.Robust.predict_all rb ~measured:faulty in
  let r2 = Core.Robust.predict_all rb' ~measured:faulty in
  Alcotest.(check bool) "robust predictions identical" true
    (Linalg.Mat.equal ~tol:0.0 r1.Core.Robust.predicted r2.Core.Robust.predicted)

let test_bad_magic () =
  let bytes = Bytes.of_string (Store.to_bytes (Lazy.force fixture)) in
  Bytes.set bytes 0 'X';
  expect_error "magic" (Bytes.to_string bytes) (function
    | Core.Errors.Bad_magic _ -> ()
    | e -> Alcotest.failf "expected Bad_magic, got %s" (Core.Errors.to_string e))

let test_future_version () =
  let bytes = Bytes.of_string (Store.to_bytes (Lazy.force fixture)) in
  Bytes.set_int32_le bytes 4 99l;
  expect_error "version" (Bytes.to_string bytes) (function
    | Core.Errors.Version_mismatch { found = 99; expected = 2; _ } -> ()
    | e -> Alcotest.failf "expected Version_mismatch, got %s" (Core.Errors.to_string e))

let test_truncated () =
  let s = Store.to_bytes (Lazy.force fixture) in
  List.iter
    (fun keep ->
      expect_error
        (Printf.sprintf "truncated to %d" keep)
        (String.sub s 0 keep)
        (function
          | Core.Errors.Corrupt_artifact _ -> ()
          | e ->
            Alcotest.failf "expected Corrupt_artifact, got %s"
              (Core.Errors.to_string e)))
    [ 0; 3; 10; Store.header_size; String.length s / 2; String.length s - 1 ]

let test_payload_bit_flip () =
  let s = Store.to_bytes (Lazy.force fixture) in
  let bytes = Bytes.of_string s in
  let pos = Store.header_size + ((Bytes.length bytes - Store.header_size) / 2) in
  Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 0x40));
  expect_error "bit flip" (Bytes.to_string bytes) (function
    | Core.Errors.Corrupt_artifact { msg; _ } ->
      Alcotest.(check bool) "CRC named" true
        (String.length msg > 0)
    | e -> Alcotest.failf "expected Corrupt_artifact, got %s" (Core.Errors.to_string e))

let test_trailing_garbage () =
  let s = Store.to_bytes (Lazy.force fixture) in
  expect_error "trailing bytes" (s ^ "junk") (function
    | Core.Errors.Corrupt_artifact _ -> ()
    | e -> Alcotest.failf "expected Corrupt_artifact, got %s" (Core.Errors.to_string e))

(* ------------------------------------------------------------------ *)
(* Crash safety *)

(* [Store.save] writes a temp file, fsyncs, and renames. Children are
   SIGKILLed at assorted points mid-save; the destination must always
   hold a loadable artifact — the old one or the new one, never a torn
   hybrid. *)
let test_kill_mid_write () =
  let v1 = Lazy.force fixture in
  let v2 = Option.get (make_artifact 12) in
  let path = Filename.temp_file "pathsel-kill" ".psa" in
  let v2_path = Filename.temp_file "pathsel-kill-v2" ".psa" in
  List.iter
    (fun (p, v) ->
      match Store.save p v with
      | Ok () -> ()
      | Error e -> Alcotest.failf "seed save failed: %s" (Core.Errors.to_string e))
    [ (path, v1); (v2_path, v2) ];
  for i = 0 to 19 do
    (* stagger the kill so it lands before, during, and after the
       child's write across iterations *)
    Crash.kill_after ~delay:(float_of_int (i mod 7) *. 0.0004) "store"
      [ path; v2_path ];
    match Store.load path with
    | Error e ->
      Alcotest.failf "iteration %d: torn artifact: %s" i
        (Core.Errors.to_string e)
    | Ok t ->
      if not (Store.equal t v1 || Store.equal t v2) then
        Alcotest.failf "iteration %d: artifact is neither old nor new" i
  done;
  (* reap temp files the killed children left behind *)
  let dir = Filename.dirname path in
  let prefix = Filename.basename path ^ ".tmp." in
  Array.iter
    (fun f ->
      if String.length f >= String.length prefix
         && String.sub f 0 (String.length prefix) = prefix
      then try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  Sys.remove path;
  Sys.remove v2_path

(* the kill-mid-write victim: copy the v2 artifact over [path] *)
let crash_child = function
  | [ path; v2_path ] ->
    (match Store.load v2_path with
     | Error _ -> exit 1
     | Ok v2 ->
       Crash.ready ();
       ignore (Store.save path v2))
  | _ -> exit 2

(* a truncated artifact *file* — e.g. a copy cut short by a full disk
   or an interrupted transfer — must surface as the same typed
   Corrupt_artifact the in-memory decoder reports, not as a parse
   crash or a silent partial load *)
let test_load_truncated_file () =
  let t = Lazy.force fixture in
  let path = Filename.temp_file "pathsel-store-trunc" ".psa" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (match Store.save path t with
   | Ok () -> ()
   | Error e -> Alcotest.failf "save: %s" (Core.Errors.to_string e));
  let full = (Unix.stat path).Unix.st_size in
  List.iter
    (fun keep ->
      Unix.truncate path keep;
      match Store.load path with
      | Ok _ -> Alcotest.failf "truncated to %d bytes: accepted" keep
      | Error (Core.Errors.Corrupt_artifact _ as e) ->
        Alcotest.(check int) "sysexits data code" 65 (Core.Errors.exit_code e)
      | Error e ->
        Alcotest.failf "truncated to %d bytes: expected Corrupt_artifact, got %s"
          keep (Core.Errors.to_string e))
    [ full - 1; full / 2; Store.header_size; 3; 0 ]

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_roundtrip =
  QCheck.Test.make ~count:5 ~name:"save -> load is the identity (bit-exact)"
    QCheck.(int_range 1 500)
    (fun seed ->
      match make_artifact seed with
      | None -> QCheck.assume_fail ()
      | Some t ->
        (match Store.of_bytes (Store.to_bytes t) with
         | Ok t' -> Store.equal t t'
         | Error e -> QCheck.Test.fail_report (Core.Errors.to_string e)))

let prop_any_byte_flip_rejected =
  let s = lazy (Store.to_bytes (Lazy.force fixture)) in
  QCheck.Test.make ~count:60
    ~name:"flipping any single byte yields a typed error with exit code 65"
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 255))
    (fun (pos, mask) ->
      let s = Lazy.force s in
      let pos = pos mod String.length s in
      let bytes = Bytes.of_string s in
      Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor mask));
      match Store.of_bytes (Bytes.to_string bytes) with
      | Ok _ -> QCheck.Test.fail_report "corrupted artifact accepted"
      | Error e -> Core.Errors.exit_code e = 65)

(* A saved demo90 artifact at a fixed seed. Its bytes were recorded
   when predictors still held their error operator and the encoder
   copied it out; now the encoder derives it from the artifact's own
   sensitivity matrix, and the file must not change by a bit. *)
let demo90_digest = "0e2ffb9d158af4566de1060dbb6d1053"

let demo90_artifact dir =
  let netlist = Circuit.Bench_io.parse_file (Filename.concat dir "demo90.bench") in
  let model = Timing.Variation.make_model ~levels:3 () in
  let setup = Core.Pipeline.prepare ~seed:1 ~netlist ~model () in
  let sel = Core.Pipeline.approximate_selection setup ~eps:0.05 in
  let pool = setup.Core.Pipeline.pool in
  Store.of_selection ~fingerprint:"demo90 seed=1"
    ~n_segments:(Timing.Paths.num_segments pool) ~t_cons:setup.Core.Pipeline.t_cons
    ~eps:0.05 ~a:(Timing.Paths.a_mat pool) ~mu:(Timing.Paths.mu_paths pool) sel

(* The error operator section of a PSA1 v2 payload, read field by field
   in file order up to it. *)
let omega_section bytes =
  let r = Store.Codec.R.create ~pos:20 bytes in
  ignore (Store.Codec.R.str r);
  for _ = 1 to 3 do ignore (Store.Codec.R.f64 r) done;
  for _ = 1 to 3 do ignore (Store.Codec.R.u32 r) done;
  ignore (Store.Codec.R.int_array r);
  for _ = 1 to 3 do ignore (Store.Codec.R.u32 r) done;
  ignore (Store.Codec.R.f64 r);
  ignore (Store.Codec.R.float_array r);
  ignore (Store.Codec.R.int_array r);
  ignore (Store.Codec.R.int_array r);
  ignore (Store.Codec.R.mat r);
  ignore (Store.Codec.R.float_array r);
  ignore (Store.Codec.R.float_array r);
  Store.Codec.R.mat r

let test_demo90_artifact_bytes () =
  Test_golden.with_data @@ fun dir ->
  let bytes = Store.to_bytes (demo90_artifact dir) in
  Alcotest.(check string) "artifact digest" demo90_digest
    (Digest.to_hex (Digest.string bytes));
  let t =
    match Store.of_bytes bytes with
    | Ok t -> t
    | Error e -> Alcotest.failf "decode failed: %s" (Core.Errors.to_string e)
  in
  Alcotest.(check bool) "to_bytes (of_bytes s) = s" true (String.equal (Store.to_bytes t) bytes);
  let p = Store.predictor t in
  let a = t.Store.a_mat in
  let a_r = Linalg.Mat.select_rows a (Core.Predictor.rep_indices p) in
  let a_m = Linalg.Mat.select_rows a (Core.Predictor.rem_indices p) in
  let expected = Linalg.Mat.sub (Linalg.Mat.mul (Core.Predictor.weights p) a_r) a_m in
  let omega = omega_section bytes in
  Alcotest.(check (pair int int)) "omega dims" (Linalg.Mat.dims expected) (Linalg.Mat.dims omega);
  Alcotest.(check bool) "omega = W A_r - A_m, bit for bit" true
    (Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       expected.Linalg.Mat.data omega.Linalg.Mat.data)

let suites =
  [
    ( "store",
      [
        Alcotest.test_case "round trip (bytes)" `Quick test_roundtrip_bytes;
        Alcotest.test_case "round trip (file)" `Quick test_roundtrip_file;
        Alcotest.test_case "predictors survive the trip" `Quick
          test_predictors_survive;
        Alcotest.test_case "demo90 artifact: recorded bytes, round trip, derived omega"
          `Quick test_demo90_artifact_bytes;
        Alcotest.test_case "bad magic" `Quick test_bad_magic;
        Alcotest.test_case "future version" `Quick test_future_version;
        Alcotest.test_case "truncation" `Quick test_truncated;
        Alcotest.test_case "payload bit flip" `Quick test_payload_bit_flip;
        Alcotest.test_case "trailing garbage" `Quick test_trailing_garbage;
        Alcotest.test_case "kill mid-write leaves old or new, never torn"
          `Quick test_kill_mid_write;
        Alcotest.test_case "truncated artifact file is a typed error" `Quick
          test_load_truncated_file;
        QCheck_alcotest.to_alcotest prop_roundtrip;
        QCheck_alcotest.to_alcotest prop_any_byte_flip_rejected;
      ] );
  ]
