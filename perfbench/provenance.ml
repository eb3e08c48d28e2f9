(* Where a result came from: code revision, host cores, domain count,
   compiler, workload and seed. *)

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> Some (String.trim s)
  | exception Sys_error _ -> None

(* The commit checked out in the working directory, read from .git
   without running git; [None] outside a git checkout. *)
let git_rev () =
  match read_file ".git/HEAD" with
  | None -> None
  | Some head ->
    let prefix = "ref: " in
    let pl = String.length prefix in
    if String.length head > pl && String.sub head 0 pl = prefix then begin
      let ref_name = String.sub head pl (String.length head - pl) in
      match read_file (Filename.concat ".git" ref_name) with
      | Some rev -> Some rev
      | None ->
        Option.bind (read_file ".git/packed-refs") (fun packed ->
            List.find_map
              (fun line ->
                match String.split_on_char ' ' line with
                | [ rev; name ] when name = ref_name -> Some rev
                | _ -> None)
              (String.split_on_char '\n' packed))
    end
    else Some head

(* Digest of the sources the benchmark builds, so a result from a
   checkout without .git still names the code it measured. *)
let source_digest () =
  let rec walk dir acc =
    match Sys.readdir dir with
    | exception Sys_error _ -> acc
    | entries ->
      Array.sort compare entries;
      Array.fold_left
        (fun acc e ->
          let p = Filename.concat dir e in
          if Sys.is_directory p then walk p acc
          else if Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli" || e = "dune" then
            Digest.file p :: acc
          else acc)
        acc entries
  in
  let parts = List.fold_left (fun acc d -> walk d acc) [] [ "lib"; "bin"; "perfbench" ] in
  Digest.to_hex (Digest.string (String.concat "" (List.rev parts)))

let fields ~workload ~seed ~trace =
  let open Serve.Wire in
  [
    ("workload", String workload);
    ("seed", Int seed);
    ("trace", Bool trace);
    ("git_rev", match git_rev () with Some r -> String r | None -> Null);
    ("source_digest", String (source_digest ()));
    ("nproc", Int (Par.Pool.available_cores ()));
    ("par_pool_size", Int (Par.Pool.size ()));
    ("ocaml_version", String Sys.ocaml_version);
  ]
