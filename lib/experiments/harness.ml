(* ------------------------------------------------------------------ *)
(* Helpers shared by the experiments *)

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let float_bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let bits_equal m1 m2 =
  let r, c = Linalg.Mat.dims m1 in
  Linalg.Mat.dims m2 = (r, c)
  && Seq.for_all
       (fun k ->
         let i = k / c and j = k mod c in
         float_bits_equal (Linalg.Mat.get m1 i j) (Linalg.Mat.get m2 i j))
       (Seq.init (r * c) Fun.id)

let rows_of m i0 k =
  let _, c = Linalg.Mat.dims m in
  Linalg.Mat.init k c (fun i j -> Linalg.Mat.get m (i0 + i) j)

let percentile xs q =
  match Array.of_list (List.sort Float.compare xs) with
  | [||] -> 0.0
  | s -> s.(Int.min (Array.length s - 1) (int_of_float (q *. float_of_int (Array.length s))))

let int_member resp key =
  match Serve.Wire.member key resp with Some (Serve.Wire.Int n) -> n | _ -> 0

let float_member resp key =
  match Serve.Wire.member key resp with
  | Some (Serve.Wire.Float x) -> x
  | Some (Serve.Wire.Int n) -> float_of_int n
  | _ -> Float.nan

let string_member resp key =
  match Serve.Wire.member key resp with Some (Serve.Wire.String s) -> s | _ -> ""

let artifact ~fingerprint ~eps (setup : Core.Pipeline.setup) sel =
  let pool = setup.Core.Pipeline.pool in
  Store.of_selection ~fingerprint ~n_segments:(Timing.Paths.num_segments pool)
    ~t_cons:setup.Core.Pipeline.t_cons ~eps ~a:(Timing.Paths.a_mat pool)
    ~mu:(Timing.Paths.mu_paths pool) sel

let save path artifact =
  match Store.save path artifact with Ok () -> () | Error e -> Core.Errors.raise_error e

let artifact_file prefix artifact =
  let path = Filename.temp_file prefix ".psa" in
  save path artifact;
  path

let temp_socket prefix =
  let path = Filename.temp_file prefix ".sock" in
  Sys.remove path;
  Serve.Unix_sock path

let write_json ~oc out json =
  Option.iter
    (fun path ->
      Core.Report.write_file path json;
      Printf.fprintf oc "wrote %s\n" path)
    out

(* ------------------------------------------------------------------ *)
(* The server child *)

let child_flag = "--serve-child"

(* written to the child's stdin with [Marshal]: parent and child are the
   same executable, and a [Serve.config] is plain data *)
type payload = {
  config : Serve.config;
  artifact : string;
  reload_from : string option;
  addr : Serve.address;
  domains : int;
}

let serve_child () =
  match (Marshal.from_channel stdin : payload) with
  | exception (End_of_file | Failure _) ->
    prerr_endline "serve child: no server payload on stdin";
    64
  | p ->
    Par.Pool.set_size p.domains;
    (match Store.load p.artifact with
     | Error e ->
       prerr_endline ("serve child: " ^ Core.Errors.to_string e);
       Core.Errors.exit_code e
     | Ok artifact ->
       (match Serve.run ~config:p.config ?reload_from:p.reload_from artifact p.addr with
        | () -> 0
        | exception (Core.Errors.Error _ | Unix.Unix_error _ | Sys_error _ | Failure _ as e)
          ->
          prerr_endline ("serve child: " ^ Printexc.to_string e);
          1))

type server = {
  pid : int;
  addr : Serve.address;
  status : Unix.process_status option Atomic.t;  (* set once reaped *)
}

(* children not yet reaped: [at_exit] kills them, so a crashed run
   never leaves a server holding its output pipes open *)
let live : server list ref = ref []

let settle s st =
  Atomic.set s.status (Some st);
  live := List.filter (fun x -> x != s) !live

let rec reap_server s =
  match Atomic.get s.status with
  | Some st -> st
  | None ->
    (match Unix.waitpid [] s.pid with
     | _, st ->
       settle s st;
       st
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap_server s)

let signal s =
  if Atomic.get s.status = None then
    try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ()

let kill_server s =
  signal s;
  reap_server s

let () = at_exit (fun () -> List.iter (fun s -> ignore (kill_server s)) !live)

(* [f] on a fresh connection, or [default] when the server does not
   take one *)
let with_conn addr default f =
  match Serve.Client.connect ~retries:0 ~timeout:1.0 addr with
  | exception (Unix.Unix_error _ | Serve.Io.Timeout) -> default
  | c -> Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

(* seconds from spawn to the first pong: artifact load, WAL recovery,
   listen *)
let ready_timeout_s = 30.0

let not_started msg = Core.Errors.raise_error (Core.Errors.Bad_data ("server: " ^ msg))

let rec wait_ready ~deadline s =
  match Unix.waitpid [ Unix.WNOHANG ] s.pid with
  | p, st when p = s.pid ->
    settle s st;
    not_started "exited before answering"
  | _ | (exception Unix.Unix_error (Unix.EINTR, _, _)) ->
    if with_conn s.addr false (fun c -> Serve.Client.ping ~deadline:5.0 c) then s.pid
    else if Unix.gettimeofday () > deadline then begin
      ignore (kill_server s);
      not_started (Printf.sprintf "did not answer within %.0f s" ready_timeout_s)
    end
    else begin
      Thread.delay 0.01;
      wait_ready ~deadline s
    end

let spawn (payload : payload) =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close r)
      (fun () -> Unix.create_process exe [| exe; child_flag |] r Unix.stdout Unix.stderr)
  in
  let s = { pid; addr = payload.addr; status = Atomic.make None } in
  live := s :: !live;
  let oc = Unix.out_channel_of_descr w in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> Marshal.to_channel oc payload []);
  s

(* ------------------------------------------------------------------ *)
(* Sessions: one experiment's children under one watchdog *)

type t = {
  oc : out_channel;
  label : string Atomic.t;
  current : server option Atomic.t;
  tripped : bool Atomic.t;
}

let budget p = if p.Profile.name = "full" then 900.0 else 120.0

let phase t label = Atomic.set t.label label

let current t =
  match Atomic.get t.current with
  | Some s -> s
  | None -> invalid_arg "Harness: no server started in this session"

let reap t = reap_server (current t)
let kill t = kill_server (current t)

let stop t =
  let s = current t in
  with_conn s.addr () Serve.Client.shutdown;
  reap_server s

let start t ?(config = Serve.default_config) ?reload_from ~artifact addr =
  Option.iter (fun s -> ignore (kill_server s)) (Atomic.get t.current);
  if Atomic.get t.tripped then not_started "watchdog expired"
  else begin
    let s = spawn { config; artifact; reload_from; addr; domains = Par.Pool.size () } in
    (* current before the ready wait: the watchdog can kill a silent child *)
    Atomic.set t.current (Some s);
    wait_ready ~deadline:(Unix.gettimeofday () +. ready_timeout_s) s
  end

let trip t budget =
  Atomic.set t.tripped true;
  let pid, stats =
    match Atomic.get t.current with
    | Some s when Atomic.get s.status = None ->
      ( string_of_int s.pid,
        with_conn s.addr "unreachable" (fun c ->
            match Serve.Client.stats ~deadline:2.0 c with
            | Ok j -> Serve.Wire.print j
            | Error msg -> "failed: " ^ msg) )
    | Some _ | None -> ("none", "no live server")
  in
  Printf.fprintf t.oc "watchdog: %g s budget expired in phase %S; server pid %s; stats %s\n%!"
    budget (Atomic.get t.label) pid stats;
  (* a dead server makes every blocked client call fail fast *)
  Option.iter signal (Atomic.get t.current)

let session ?(oc = stdout) ~budget label f =
  let t =
    { oc; label = Atomic.make label; current = Atomic.make None; tripped = Atomic.make false }
  in
  let disarmed = Atomic.make false in
  let deadline = Unix.gettimeofday () +. budget in
  let watch () =
    while (not (Atomic.get disarmed)) && Unix.gettimeofday () < deadline do
      Thread.delay 0.05
    done;
    if not (Atomic.get disarmed) then trip t budget
  in
  let watchdog = Thread.create watch () in
  let v =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set disarmed true;
        Thread.join watchdog;
        Option.iter (fun s -> ignore (kill_server s)) (Atomic.get t.current))
      (fun () -> f t)
  in
  (v, not (Atomic.get t.tripped))
