(* The serving workload: serve_mixed.

   The artifact is what `pathsel save s5378` writes at default flags.
   `pathsel serve --monitor --wal-dir DIR` runs as a child process,
   started with [Unix.create_process]: nothing here forks, so the
   domains this process spawns cannot break a server launch. One
   tester connection per core sends, in a closed loop, predict(B dies),
   tune(B dies) and, every second cycle, observe(the same B dies with
   their truth). Dies are drawn from the artifact's own model
   (d = mu + A z), so the stream is drift-free. After the loop the
   server is SIGKILLed and restarted on the same WAL directory. *)

open Measure
module W = Serve.Wire
module C = Serve.Client

type input = { circuit : string; scale : float; max_paths : int option; batch : int; batches : int }

let input = function
  | Select_wl.Full -> { circuit = "s5378"; scale = 1.0; max_paths = None; batch = 16; batches = 16 }
  | Select_wl.Tiny -> { circuit = "s1196"; scale = 0.5; max_paths = Some 300; batch = 4; batches = 4 }

let connections () = max 1 (min 8 (Par.Pool.available_cores ()))
let setups = 5
let rt_deadline = 30.0

(* ---- in-flight state, read by the watchdog ---- *)

type state = {
  mutable phase : string;
  mutable server : int option;
  mutable addr : Serve.address option;
  cycles : int array;
}

let st = { phase = "start"; server = None; addr = None; cycles = Array.make 8 0 }

let kill_server pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  if st.server = Some pid then st.server <- None

let dump_in_flight () =
  Printf.eprintf "perfbench: phase %s; tester cycles %s\n%!" st.phase
    (String.concat "," (Array.to_list (Array.map string_of_int (Array.sub st.cycles 0 (connections ())))));
  (match st.addr with
   | None -> ()
   | Some addr ->
     (match C.connect ~retries:0 ~timeout:1.0 addr with
      | c ->
        (match C.stats ~deadline:2.0 c with
         | Ok j -> Printf.eprintf "perfbench: server stats %s\n%!" (W.print j)
         | Error msg -> Printf.eprintf "perfbench: server stats failed: %s\n%!" msg);
        C.close c
      | exception (Unix.Unix_error _ | Serve.Io.Timeout) ->
        Printf.eprintf "perfbench: server unreachable\n%!"));
  Option.iter kill_server st.server

(* ---- child processes ---- *)

let spawn ~log prog args =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out; Unix.close null)
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) null out out)
  in
  pid

let wait_exit pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> Ok ()
  | _, Unix.WEXITED n -> Error (Printf.sprintf "exit %d" n)
  | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) -> Error (Printf.sprintf "signal %d" n)

(* Poll the socket until the server answers a ping; seconds from
   [t0]. A child that exits first is an error, not a hang. *)
let wait_ready ~t0 ~pid addr =
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | p, _ when p = pid -> Error "server exited before answering"
    | _ ->
      (match C.connect ~retries:0 ~timeout:1.0 addr with
       | c ->
         let pong = C.ping ~deadline:10.0 c in
         let dt = now () -. t0 in
         C.close c;
         if pong then Ok dt else go ()
       | exception (Unix.Unix_error _ | Serve.Io.Timeout) ->
         Thread.delay 0.002;
         go ())
  in
  go ()

(* The CUSUM thresholds sit out of reach, as in the E20 soak: at the
   defaults (warn 4, drift 8, slack 0.5, 32-die calibration) the
   detector alarms on a drift-free stream within ~1000 dies in a large
   share of runs, and the re-selection that follows swaps the model
   under the bit-exactness checks. The detector still runs on every
   observed die. *)
let drift_out_of_reach = [ "--drift-warn"; "1e6"; "--drift-threshold"; "1e9" ]

let start_server ~pathsel ~log ~artifact ~wal ~sock =
  let addr = Serve.Unix_sock sock in
  let t0 = now () in
  let pid =
    spawn ~log pathsel
      ([ "serve"; artifact; "--socket"; sock; "--monitor"; "--wal-dir"; wal ] @ drift_out_of_reach)
  in
  st.server <- Some pid;
  st.addr <- Some addr;
  match wait_ready ~t0 ~pid addr with
  | Ok dt -> Ok (pid, addr, dt)
  | Error msg ->
    kill_server pid;
    Error msg

(* `pathsel save` output, built once per pathsel binary and reused by
   later runs in the same checkout. *)
let artifact ~pathsel ~cache ~log (inp : input) =
  let key = Digest.to_hex (Digest.file pathsel) in
  let path = Filename.concat cache (Printf.sprintf "%s-%s.psa" inp.circuit key) in
  if Sys.file_exists path then Ok path
  else begin
    let tmp = path ^ ".part" in
    let args =
      [ "save"; inp.circuit; "--scale"; string_of_float inp.scale; "-o"; tmp ]
      @ match inp.max_paths with None -> [] | Some n -> [ "--max-paths"; string_of_int n ]
    in
    match wait_exit (spawn ~log pathsel args) with
    | Error msg -> Error ("pathsel save: " ^ msg)
    | Ok () ->
      Sys.rename tmp path;
      Ok path
  end

(* ---- inputs ---- *)

(* E18's tunable-buffer menu: four round-robin buffers over every path,
   each with four levels trading a negative offset against cost. *)
let buffer_menu n_paths =
  let levels =
    [|
      { Tune.offset_ps = 0.0; cost = 0.0 };
      { Tune.offset_ps = -15.0; cost = 1.0 };
      { Tune.offset_ps = -30.0; cost = 2.5 };
      { Tune.offset_ps = -45.0; cost = 4.5 };
    |]
  in
  Array.init 4 (fun b ->
      { Tune.paths = Array.of_list (List.filter (fun p -> p mod 4 = b) (List.init n_paths Fun.id)); levels })

let min_offset = -45.0

type batch = {
  measured : Linalg.Mat.t;
  truth : Linalg.Mat.t;
  predicted : Linalg.Mat.t;  (* local Predictor.predict_all *)
  full : float array array;  (* measured + predicted, per die, by path *)
}

(* [size] dies drawn from the artifact's own model, d = mu + A z with
   z ~ N(0, I), split into measured and true delays, with the local
   predictions every served answer is checked against. *)
let draw_batch ~(art : Store.t) rng size =
  let a = art.Store.a_mat and mu = art.Store.mu in
  let n_paths, n_vars = Linalg.Mat.dims a in
  let predictor = Store.predictor art in
  let rep = Core.Predictor.rep_indices predictor and rem = Core.Predictor.rem_indices predictor in
  let z = Linalg.Mat.init n_vars size (fun _ _ -> Rng.gaussian rng) in
  let az = Linalg.Mat.mul a z in
  let die = Linalg.Mat.init size n_paths (fun i p -> mu.(p) +. Linalg.Mat.get az p i) in
  let measured = Linalg.Mat.select_cols die rep and truth = Linalg.Mat.select_cols die rem in
  let predicted = Core.Predictor.predict_all predictor ~measured in
  let full =
    Array.init size (fun i ->
        let f = Array.make n_paths 0.0 in
        Array.iteri (fun j p -> f.(p) <- Linalg.Mat.get measured i j) rep;
        Array.iteri (fun j p -> f.(p) <- Linalg.Mat.get predicted i j) rem;
        f)
  in
  { measured; truth; predicted; full }

(* ---- the closed loop ---- *)

type op = Predict | Tune | Observe

let op_name = function Predict -> "predict" | Tune -> "tune" | Observe -> "observe"

type sample = {
  op : op;
  req : int;
  rt : float;
  traced : bool;
  sent : batch option;  (* kept for traced requests, which are replayed *)
  error : string option;
  dies : int;
  queued : int;
}

let tester ~tr ~trace ~addr ~seconds ~t0 ~art ~seed ~batches ~wants ~t_clk ~buffers k =
  let n_conn = connections () in
  (* observed dies are fresh on every request: the drift detector must
     see an i.i.d. stream, and a cycled set of dies has a fixed offset
     from its calibration that a CUSUM accumulates *)
  let rng = Rng.create ((seed * 64) + k + 1) in
  let conn = C.connect ~retries:10 addr in
  let samples = ref [] in
  let rec cycle c =
    if now () -. t0 >= seconds && c >= 2 then ()
    else begin
      st.cycles.(k) <- c;
      let bidx = (k + (c * n_conn)) mod Array.length batches in
      let b = batches.(bidx) in
      (* traced and untraced cycle pairs alternate, so the run measures
         its own tracing overhead under identical load *)
      let traced = trace && c / 2 mod 2 = 1 in
      let ops = if c mod 2 = 1 then [ Predict; Tune; Observe ] else [ Predict; Tune ] in
      List.iteri
        (fun i op ->
          let b = if op = Observe then draw_batch ~art rng (Array.length b.full) else b in
          let req = (k * 10_000_000) + (c * 4) + i in
          let checked r = (Result.fold ~ok:(fun () -> None) ~error:Option.some r, 0) in
          let call () =
            match op with
            | Predict ->
              (match C.predict ~deadline:rt_deadline conn b.measured with
               | Ok (got, _) -> checked (Checks.prediction ~expected:b.predicted ~got)
               | Error msg -> (Some ("predict: " ^ msg), 0))
            | Tune ->
              (match C.tune ~deadline:rt_deadline ~t_clk ~buffers ~measured:b.measured conn with
               | Ok resp -> checked (Checks.tune ~want:wants.(bidx) ~resp)
               | Error msg -> (Some ("tune: " ^ msg), 0))
            | Observe ->
              (match C.observe ~deadline:rt_deadline conn ~measured:b.measured ~truth:b.truth with
               | Ok resp ->
                 let queued = match W.member "queued" resp with Some (W.Int n) -> n | _ -> -1 in
                 let n = Array.length b.full in
                 if queued < 0 || List.length (C.die_statuses resp) <> n then (Some "observe: malformed ack", 0)
                 else if queued > 0 && W.member "journaled" resp <> Some (W.Bool true) then
                   (Some "observe: acked without journaling", 0)
                 else (None, queued)
               | Error msg -> (Some ("observe: " ^ msg), 0))
          in
          let t = now () in
          let error, queued =
            if traced then Trace.span tr ~req ("tester." ^ op_name op) (fun _ -> call ()) else call ()
          in
          let rt = now () -. t in
          samples :=
            { op; req; rt; traced; sent = (if traced then Some b else None); error; dies = Array.length b.full; queued }
            :: !samples)
        ops;
      cycle (c + 1)
    end
  in
  Fun.protect ~finally:(fun () -> C.close conn) (fun () -> cycle 0);
  List.rev !samples

(* ---- traced replays of the captured requests ---- *)

let request_json ~t_clk ~buffers b = function
  | Predict -> W.Obj [ ("op", W.String "predict"); ("robust", W.Bool false); ("dies", W.mat_to_json b.measured) ]
  | Tune -> C.tune_request ~t_clk ~buffers ~measured:b.measured ()
  | Observe ->
    W.Obj [ ("op", W.String "observe"); ("dies", W.mat_to_json b.measured); ("truth", W.mat_to_json b.truth) ]

(* Each traced request is replayed stage by stage in this process, with
   spans carrying the request's id: client encode, server decode,
   compute and encode, the whole [Serve.handle] on an in-process server
   with the monitor and the WAL armed, and client decode. Returns the
   request and response sizes per op. *)
let replay ~tr ~(art : Store.t) ~tmp ~t_clk ~buffers samples =
  let config =
    {
      Serve.default_config with
      Serve.monitor = Some Serve.Monitor.default_config;
      durability = Some { Serve.default_durability with Serve.wal_dir = Filename.concat tmp "replay-wal" };
    }
  in
  let srv = Serve.create ~config art in
  let predictor = Store.predictor art in
  let n_rep = Array.length (Core.Predictor.rep_indices predictor) in
  let n_rem = art.Store.n_paths - n_rep in
  let bytes = ref [] in
  List.iter
    (fun s ->
      let b = Option.get s.sent in
      let name = op_name s.op in
      let sp stage f = Trace.span tr ~req:s.req (stage ^ "." ^ name) (fun _ -> f ()) in
      let line = sp "client.encode" (fun () -> W.print (request_json ~t_clk ~buffers b s.op)) in
      sp "serve.decode" (fun () ->
          match W.parse line with
          | Error msg -> failwith msg
          | Ok j ->
            let mat key cols = Option.iter (fun v -> ignore (W.mat_of_json ~cols v)) (W.member key j) in
            mat "dies" n_rep;
            if s.op = Observe then mat "truth" n_rem);
      (match s.op with
       | Predict ->
         let pred = sp "serve.compute" (fun () -> Core.Predictor.predict_all predictor ~measured:b.measured) in
         sp "serve.encode" (fun () ->
             ignore
               (W.print
                  (W.Obj
                     [
                       ("ok", W.Bool true);
                       ("op", W.String "predict");
                       ("gen", W.Int 1);
                       ("dies", W.Int (Array.length b.full));
                       ("robust", W.Bool false);
                       ("predictions", W.mat_to_json pred);
                     ])))
       | Tune ->
         sp "serve.compute" (fun () ->
             Array.iter (fun delays -> ignore (Tune.solve { Tune.delays; t_clk; buffers })) b.full)
       | Observe -> ());
      let resp = sp "serve.handle" (fun () -> Serve.handle srv line) in
      sp "client.decode" (fun () ->
          match W.parse resp with
          | Ok j when s.op = Predict ->
            Option.iter (fun v -> ignore (W.mat_of_json ~cols:n_rem v)) (W.member "predictions" j)
          | Ok _ | Error _ -> ());
      bytes := (name, String.length line + 1, String.length resp + 1) :: !bytes)
    samples;
  !bytes

(* WAL append cost: the journal records the replayed observes wrote,
   appended again batch by batch (one write, one fsync each) to a fresh
   log. Returns bytes on disk per record (= per used die). *)
let wal_append ~tr ~tmp ~batch =
  let records =
    match Store.Wal.fold (Filename.concat tmp "replay-wal") ~init:[] ~f:(fun acc ~seq:_ r -> r :: acc) with
    | Ok (l, _) -> List.rev l
    | Error e -> Core.Errors.raise_error e
  in
  let dir = Filename.concat tmp "append-wal" in
  match Store.Wal.open_ dir with
  | Error e -> Core.Errors.raise_error e
  | Ok wal ->
    let rec go = function
      | [] -> ()
      | l ->
        let chunk = List.filteri (fun i _ -> i < batch) l and rest = List.filteri (fun i _ -> i >= batch) l in
        Trace.span tr "store.wal_append" (fun _ ->
            match Store.Wal.append wal chunk with Ok _ -> () | Error e -> Core.Errors.raise_error e);
        go rest
    in
    go records;
    Store.Wal.close wal;
    let on_disk = Array.fold_left (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size) 0 (Sys.readdir dir) in
    if records = [] then 0.0 else float_of_int on_disk /. float_of_int (List.length records)

(* Per-op medians over the replayed requests. The socket share of a
   round trip is what the replays do not account for: round trip minus
   server handle minus client encode and decode. *)
let stage_layers spans =
  let groups = Trace.by_request spans in
  let dur g name = List.find_map (fun s -> if s.Trace.name = name then Some (Trace.duration s) else None) g in
  List.concat_map
    (fun op ->
      let name = op_name op in
      let per stage = List.filter_map (fun (_, g) -> dur g (stage ^ "." ^ name)) groups in
      let socket =
        List.filter_map
          (fun (_, g) ->
            match (dur g ("tester." ^ name), dur g ("serve.handle." ^ name), dur g ("client.encode." ^ name), dur g ("client.decode." ^ name)) with
            | Some rt, Some h, Some e, Some d -> Some (rt -. h -. e -. d)
            | _ -> None)
          groups
      in
      let ms l = if l = [] then [] else [ 1000.0 *. median l ] in
      List.concat_map
        (fun (key, l) -> List.map (fun v -> (key, v)) (ms l))
        [
          ("client.encode_ms." ^ name, per "client.encode");
          ("client.decode_ms." ^ name, per "client.decode");
          ("serve.decode_ms." ^ name, per "serve.decode");
          ("serve.compute_ms." ^ name, per "serve.compute");
          ("serve.encode_ms." ^ name, per "serve.encode");
          ("serve.handle_ms." ^ name, per "serve.handle");
          ("serve.socket_ms." ^ name, socket);
        ])
    [ Predict; Observe; Tune ]

(* ---- the workload ---- *)

let stats_int j path =
  let rec go j = function
    | [] -> (match j with W.Int n -> n | _ -> 0)
    | k :: rest -> (match W.member k j with Some v -> go v rest | None -> 0)
  in
  go j path

let server_stats addr =
  match C.connect ~retries:0 ~timeout:5.0 addr with
  | exception (Unix.Unix_error _ | Serve.Io.Timeout) -> Error "stats: server unreachable"
  | c -> Fun.protect ~finally:(fun () -> C.close c) (fun () -> C.stats ~deadline:10.0 c)

let stop_server pid addr =
  (match C.connect ~retries:0 ~timeout:2.0 addr with
   | c -> C.shutdown c; C.close c
   | exception (Unix.Unix_error _ | Serve.Io.Timeout) -> ());
  let deadline = now () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | p, _ when p = pid -> if st.server = Some pid then st.server <- None
    | _ when now () > deadline -> kill_server pid
    | _ -> Thread.delay 0.01; wait ()
  in
  wait ()

let serve_mixed ~size ~seed ~seconds ~trace ~pathsel ~tmp =
  let tr = if trace then Trace.create () else Trace.off in
  let inp = input size in
  let log = Filename.concat tmp "server.log" in
  let fail msg = failwith (Printf.sprintf "serve_mixed: %s (server log: %s)" msg log) in
  let get = function Ok x -> x | Error msg -> fail msg in
  st.phase <- "artifact";
  let cache = Filename.concat (Filename.dirname tmp) "cache" in
  (try Sys.mkdir cache 0o755 with Sys_error _ -> ());
  let cached = get (artifact ~pathsel ~cache ~log inp) in
  let art, load_s =
    timed (fun () -> match Store.load cached with Ok a -> a | Error e -> fail (Core.Errors.to_string e))
  in
  (* the server gets its own copy: a re-selection writes back to the
     artifact it serves, and must not reach the cache *)
  let artifact = Filename.concat tmp "served.psa" in
  Out_channel.with_open_bin artifact (fun oc ->
      output_string oc (In_channel.with_open_bin cached In_channel.input_all));
  st.phase <- "inputs";
  let rng = Rng.create seed in
  let batches = Array.init inp.batches (fun _ -> draw_batch ~art rng inp.batch) in
  let buffers = buffer_menu art.Store.n_paths in
  (* the slowest generated die still meets t_clk with every buffer at
     its largest pull, so every tune request is feasible *)
  let t_clk =
    Array.fold_left
      (fun acc b -> Array.fold_left (fun acc f -> Float.max acc (Array.fold_left Float.max Float.neg_infinity f)) acc b.full)
      Float.neg_infinity batches
    +. min_offset +. 1.0
  in
  let wants =
    Array.map (fun b -> Array.map (fun delays -> Tune.solve { Tune.delays; t_clk; buffers }) b.full) batches
  in
  (* set-up: spawn to first ok ping, several times; the last stays up *)
  st.phase <- "setup";
  let wal = Filename.concat tmp "wal" in
  let boot i =
    let wal = if i = setups - 1 then wal else Filename.concat tmp (Printf.sprintf "wal-setup%d" i) in
    get (start_server ~pathsel ~log ~artifact ~wal ~sock:(Filename.concat tmp (Printf.sprintf "s%d.sock" i)))
  in
  let boots =
    List.init setups (fun i ->
        let ((pid, _, _) as b) = boot i in
        if i < setups - 1 then kill_server pid;
        b)
  in
  let pid, addr, _ = List.nth boots (setups - 1) in
  st.server <- Some pid;
  st.addr <- Some addr;
  (* the closed loop *)
  st.phase <- "loop";
  let t0 = now () in
  let results = Array.make (connections ()) [] in
  let threads =
    List.init (connections ()) (fun k ->
        Thread.create
          (fun () ->
            results.(k) <-
              (match tester ~tr ~trace ~addr ~seconds ~t0 ~art ~seed ~batches ~wants ~t_clk ~buffers k with
               | l -> l
               | exception e ->
                 [ { op = Predict; req = -1; rt = 0.0; traced = false; sent = None; dies = 0; queued = 0;
                     error = Some ("tester " ^ string_of_int k ^ ": " ^ Printexc.to_string e) } ]))
          ())
  in
  List.iter Thread.join threads;
  let window = now () -. t0 in
  let samples = List.concat (Array.to_list results) in
  st.phase <- "stats";
  let stats = get (server_stats addr) in
  let rss = peak_rss_mb pid in
  (* crash and recover on the same WAL directory *)
  st.phase <- "restart";
  kill_server pid;
  let pid2, addr2, recover_s = get (start_server ~pathsel ~log ~artifact ~wal ~sock:(Filename.concat tmp "r.sock")) in
  let stats2 = get (server_stats addr2) in
  let acked = List.fold_left (fun acc s -> acc + s.queued) 0 samples in
  let after_restart =
    let b = batches.(0) in
    match C.connect ~retries:0 ~timeout:5.0 addr2 with
    | exception (Unix.Unix_error _ | Serve.Io.Timeout) -> Error "predict after restart: unreachable"
    | c ->
      Fun.protect ~finally:(fun () -> C.close c) (fun () ->
          match C.predict ~deadline:rt_deadline c b.measured with
          | Ok (got, _) -> Checks.prediction ~expected:b.predicted ~got
          | Error msg -> Error ("predict after restart: " ^ msg))
  in
  st.phase <- "stop";
  stop_server pid2 addr2;
  st.addr <- None;
  let end_checks =
    [
      Checks.durable ~acked ~journaled:(stats_int stats2 [ "durability"; "journaled" ]);
      Checks.no_reselect ~reselects:(stats_int stats [ "monitor"; "reselects" ]);
      (let n = stats_int stats [ "errors" ] + stats_int stats [ "shed" ] + stats_int stats [ "timeouts" ] in
       if n = 0 then Ok () else Error (Printf.sprintf "server counted %d errors, shed or timed-out requests" n));
      after_restart;
    ]
  in
  let failures =
    List.filter_map (fun s -> s.error) samples
    @ List.filter_map (function Ok () -> None | Error e -> Some e) end_checks
  in
  let rts op = List.filter_map (fun s -> if s.op = op && s.error = None then Some s.rt else None) samples in
  let dies = List.fold_left (fun acc s -> if s.op = Predict then acc + s.dies else acc) 0 samples in
  let dies_per_s = float_of_int dies /. window in
  let tail_note op =
    match tail (rts op) with
    | None -> W.Null
    | Some t -> W.Obj [ ("ms", W.Float (1000.0 *. t.value)); ("percentile", W.Float t.pct); ("samples", W.Int t.samples) ]
  in
  let tail_ms op = match tail (rts op) with None -> 0.0 | Some t -> 1000.0 *. t.value in
  let layers =
    if not trace then []
    else begin
      st.phase <- "replay";
      let traced = List.filter (fun s -> s.traced) samples in
      let bytes = replay ~tr ~art ~tmp ~t_clk ~buffers traced in
      let wal_bytes = wal_append ~tr ~tmp ~batch:inp.batch in
      let spans = Trace.spans tr in
      let byte_layers =
        List.concat_map
          (fun op ->
            let name = op_name op in
            let mine = List.filter (fun (n, _, _) -> n = name) bytes in
            let med f = median (List.map (fun x -> float_of_int (f x)) mine) in
            if mine = [] then []
            else
              [
                ("serve.request_bytes." ^ name, med (fun (_, q, _) -> q));
                ("serve.response_bytes." ^ name, med (fun (_, _, r) -> r));
              ])
          [ Predict; Observe; Tune ]
      in
      let p50 traced_flag =
        median (List.filter_map (fun s -> if s.op = Predict && s.traced = traced_flag then Some s.rt else None) samples)
      in
      stage_layers spans
      @ byte_layers
      @ [
          ("client.rt_ms.predict", 1000.0 *. median (rts Predict));
          ("client.rt_ms.observe", 1000.0 *. median (rts Observe));
          ("client.rt_ms.tune", 1000.0 *. median (rts Tune));
          ("client.tail_ms.predict", tail_ms Predict);
          ("client.tail_ms.observe", tail_ms Observe);
          ("serve.dies_per_s", dies_per_s);
          ("store.wal_append_ms", 1000.0 *. median (List.map Trace.duration (Trace.named spans "store.wal_append")));
          ("store.wal_bytes_per_die", wal_bytes);
          ("store.load_s", load_s);
          ("serve.errors", float_of_int (stats_int stats [ "errors" ]));
          ("serve.shed", float_of_int (stats_int stats [ "shed" ]));
          ("serve.timeouts", float_of_int (stats_int stats [ "timeouts" ]));
          ("monitor.observed", float_of_int (stats_int stats [ "monitor"; "observed" ]));
          ("monitor.skipped", float_of_int (stats_int stats [ "monitor"; "skipped" ]));
          ("monitor.reselects", float_of_int (stats_int stats [ "monitor"; "reselects" ]));
          ("durability.journaled", float_of_int (stats_int stats [ "durability"; "journaled" ]));
          ("durability.checkpoint_seq", float_of_int (stats_int stats [ "durability"; "checkpoint_seq" ]));
          ( "durability.replayed",
            float_of_int (stats_int stats [ "durability"; "journaled" ] - stats_int stats [ "durability"; "checkpoint_seq" ]) );
          ("durability.recover_s", recover_s);
          ("trace.overhead_pct", 100.0 *. (p50 true -. p50 false) /. p50 false);
        ]
    end
  in
  st.phase <- "done";
  let setup_times = List.map (fun (_, _, dt) -> dt) boots in
  let ms l = 1000.0 *. median l in
  {
    attempted = List.length samples + List.length end_checks;
    failures;
    e2e =
      [
        m "setup_s" "s" (median setup_times);
        m "op_p50_ms" "ms" (ms (rts Predict));
        m "throughput_per_s" "1/s" dies_per_s;
        m "peak_rss_mb" "MB" rss;
      ];
    layers;
    notes =
      [
        ("artifact_paths", W.Int art.Store.n_paths);
        ("representatives", W.Int (Array.length art.Store.selection.Core.Select.indices));
        ("connections", W.Int (connections ()));
        ("server_domains", W.Int (stats_int stats [ "domains" ]));
        ("batch_dies", W.Int inp.batch);
        ("t_clk_ps", W.Float t_clk);
        ("dies_per_s", W.Float dies_per_s);
        ("predict_p50_ms", W.Float (ms (rts Predict)));
        ("predict_tail", tail_note Predict);
        ("observe_p50_ms", W.Float (ms (rts Observe)));
        ("observe_tail", tail_note Observe);
        ("tune_p50_ms", W.Float (ms (rts Tune)));
        ("tune_tail", tail_note Tune);
        ("recover_s", W.Float recover_s);
        ( "monitor",
          Option.value ~default:W.Null (W.member "monitor" stats) );
        ("acked_observations", W.Int acked);
        ("journaled_after_restart", W.Int (stats_int stats2 [ "durability"; "journaled" ]));
        ("setup_s", W.List (List.map (fun s -> W.Float s) setup_times));
      ];
    spans = Trace.spans tr;
  }
