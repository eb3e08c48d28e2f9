(* Crash-safety victims: the test binary itself, re-run as
   [test_main.exe --crash-child ROLE ARGS...] and SIGKILLed mid-write.
   Started with [Unix.create_process], never [fork]: OCaml 5.1 refuses
   to fork once an earlier suite has spawned a domain. *)

let flag = "--crash-child"

(* Child side: the victim's inputs are built, the kill window opens. *)
let ready () = print_endline "ready"

(* Start [ROLE ARGS], wait for its [ready] line, SIGKILL it [delay]
   seconds later and reap it. *)
let kill_after ~delay role args =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close w)
      (fun () ->
        Unix.create_process exe
          (Array.of_list (exe :: flag :: role :: args))
          Unix.stdin w Unix.stderr)
  in
  let ic = Unix.in_channel_of_descr r in
  (* other lines (e.g. the QCheck seed banner) may come first *)
  let rec await () =
    match input_line ic with
    | "ready" | (exception End_of_file) -> ()
    | _ -> await ()
  in
  await ();
  close_in ic;
  if delay > 0.0 then Unix.sleepf delay;
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid)
