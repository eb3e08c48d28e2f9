(* The experiments' server harness: each child lifecycle path (clean
   stop, SIGKILL, a child that cannot start) and the watchdog. The
   children are this test binary re-run with the harness's child flag
   (dispatched in test_main.ml). *)

module H = Experiments.Harness

let with_artifact f =
  let path = Filename.temp_file "pathsel-harness" ".psa" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (match Store.save path (Lazy.force Test_store.fixture) with
   | Ok () -> ()
   | Error e -> Alcotest.failf "save: %s" (Core.Errors.to_string e));
  let sock = Filename.temp_file "pathsel-harness" ".sock" in
  Sys.remove sock;
  Fun.protect ~finally:(fun () -> try Sys.remove sock with Sys_error _ -> ())
  @@ fun () -> f path (Serve.Unix_sock sock)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let start_ok h ~artifact addr =
  match H.start h ~artifact addr with
  | pid -> pid
  | exception Core.Errors.Error e -> Alcotest.failf "start: %s" (Core.Errors.to_string e)

let status =
  Alcotest.testable
    (fun fmt -> function
      | Unix.WEXITED n -> Format.fprintf fmt "WEXITED %d" n
      | Unix.WSIGNALED n -> Format.fprintf fmt "WSIGNALED %d" n
      | Unix.WSTOPPED n -> Format.fprintf fmt "WSTOPPED %d" n)
    ( = )

let test_stop () =
  with_artifact @@ fun artifact addr ->
  let st, quiet =
    H.session ~budget:60.0 "stop" @@ fun h ->
    ignore (start_ok h ~artifact addr);
    let c = Serve.Client.connect addr in
    Alcotest.(check bool) "ping" true (Serve.Client.ping c);
    Serve.Client.close c;
    H.stop h
  in
  Alcotest.check status "drained" (Unix.WEXITED 0) st;
  Alcotest.(check bool) "watchdog quiet" true quiet

let test_kill () =
  with_artifact @@ fun artifact addr ->
  let (pid, st, again), _ =
    H.session ~budget:60.0 "kill" @@ fun h ->
    let pid = start_ok h ~artifact addr in
    let st = H.kill h in
    (pid, st, H.reap h)
  in
  Alcotest.check status "killed" (Unix.WSIGNALED Sys.sigkill) st;
  Alcotest.check status "recorded" st again;
  (* reaped: no zombie left for this pid *)
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | _ -> Alcotest.fail "child was not reaped"
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let test_missing_artifact () =
  with_artifact @@ fun _ addr ->
  let r, dt =
    H.time (fun () ->
        fst
          (H.session ~budget:60.0 "missing" @@ fun h ->
           match H.start h ~artifact:"/nonexistent/pathsel-harness.psa" addr with
           | pid -> Ok pid
           | exception Core.Errors.Error e -> Error e))
  in
  (match r with
   | Ok _ -> Alcotest.fail "a server without its artifact answered"
   | Error e ->
     let msg = Core.Errors.to_string e in
     Alcotest.(check bool) ("error reports the exit: " ^ msg) true
       (contains msg "exited before answering"));
  Alcotest.(check bool) (Printf.sprintf "prompt (%.2f s)" dt) true (dt < 10.0)

let test_watchdog () =
  with_artifact @@ fun artifact addr ->
  let log = Filename.temp_file "pathsel-harness" ".log" in
  Fun.protect ~finally:(fun () -> Sys.remove log) @@ fun () ->
  let oc = open_out log in
  let (pid, st), quiet =
    H.session ~oc ~budget:0.5 "warm-up" @@ fun h ->
    let pid = start_ok h ~artifact addr in
    H.phase h "stuck phase";
    (* the expiring watchdog kills the child, which ends this wait *)
    (pid, H.reap h)
  in
  close_out oc;
  let dump = In_channel.with_open_text log In_channel.input_all in
  let has = contains dump in
  Alcotest.(check bool) "run marked failed" false quiet;
  Alcotest.check status "child killed" (Unix.WSIGNALED Sys.sigkill) st;
  Alcotest.(check bool) ("dump names the phase: " ^ dump) true (has "\"stuck phase\"");
  Alcotest.(check bool) "dump names the pid" true (has (Printf.sprintf "pid %d" pid));
  Alcotest.(check bool) "dump carries the stats reply" true (has "\"uptime_s\"" || has "\"ok\":true")

let suites =
  [
    ( "harness",
      [
        Alcotest.test_case "start, ping, stop exits 0" `Quick test_stop;
        Alcotest.test_case "start, kill is SIGKILL and reaped" `Quick test_kill;
        Alcotest.test_case "missing artifact fails start promptly" `Quick
          test_missing_artifact;
        Alcotest.test_case "expired watchdog dumps and fails the run" `Quick
          test_watchdog;
      ] );
  ]
