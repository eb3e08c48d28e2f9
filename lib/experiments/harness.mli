(** The serving experiments' server harness, and the helpers the
    experiments share.

    E14, E16, E17, E18 and E20 run a real {!Serve.run} server as a child
    process. The harness starts it by re-running the current executable
    with [Unix.create_process] — never [fork], which OCaml 5.1 refuses
    once {!Par.Pool} has spawned a domain — and writes it a marshalled
    payload on stdin: the [Serve.config], artifact path, [reload_from],
    address and pool size. The executable's entry point must dispatch
    {!child_flag} to {!serve_child} first. An [at_exit] hook SIGKILLs
    and reaps every child still alive. *)

(** {1 Helpers} *)

val time : (unit -> 'a) -> 'a * float
(** The result and its wall-clock seconds. *)

val float_bits_equal : float -> float -> bool

val bits_equal : Linalg.Mat.t -> Linalg.Mat.t -> bool
(** Same shape, identical bits in every entry. *)

val rows_of : Linalg.Mat.t -> int -> int -> Linalg.Mat.t
(** [rows_of m i0 k]: rows [i0 .. i0 + k - 1]. *)

val percentile : float list -> float -> float
(** Nearest rank: element [floor (q n)] of the sorted list, clamped to
    the last; [0.0] when empty. *)

val int_member : Serve.Wire.json -> string -> int
(** Response field [key]: an [Int], else [0]. *)

val float_member : Serve.Wire.json -> string -> float
(** A numeric field as a float, else [nan]. *)

val string_member : Serve.Wire.json -> string -> string
(** A [String] field, else [""]. *)

val artifact :
  fingerprint:string -> eps:float -> Core.Pipeline.setup -> Core.Select.t -> Store.t
(** The servable artifact of a selection on [setup]. *)

val save : string -> Store.t -> unit
(** {!Store.save}, raising {!Core.Errors.Error} on failure. *)

val artifact_file : string -> Store.t -> string
(** Save to a fresh temp file named after the prefix; its path. *)

val temp_socket : string -> Serve.address
(** A fresh Unix-socket address named after the prefix. *)

val write_json : oc:out_channel -> string option -> Core.Report.json -> unit
(** Write the JSON to the path, if any, and say so on [oc]. *)

(** {1 Server children} *)

val child_flag : string
(** ["--serve-child"]: the process role {!serve_child} answers to. *)

val serve_child : unit -> int
(** Read the payload, size the pool as the parent's, load the artifact
    ({!Store.load}, CRC-checked) and serve with signals installed.
    Returns the exit code: 0 after a drain, the sysexits code of an
    artifact that does not load, 1 when serving fails. *)

type t
(** One experiment's session: its current child and a watchdog. *)

val session : ?oc:out_channel -> budget:float -> string -> (t -> 'a) -> 'a * bool
(** [session ~budget label f] runs [f] under a wall-clock watchdog. If
    [budget] seconds pass first, it prints the phase (initially
    [label]), the child's pid and its [stats] reply to [oc] (default
    [stdout]) and SIGKILLs the child, so every blocked client call
    fails fast. When [f] ends, a child still alive is killed and
    reaped. The flag is [false] when the watchdog expired: the run
    failed. *)

val budget : Profile.t -> float
(** The watchdog budget in seconds: 120 for [quick], 900 for [full]. *)

val phase : t -> string -> unit
(** Name the current phase, for the watchdog dump. *)

val start :
  t -> ?config:Serve.config -> ?reload_from:string -> artifact:string ->
  Serve.address -> int
(** Spawn a server on the artifact file, killing the session's previous
    child if it still runs, and wait until it answers a ping; its pid.
    Raises {!Core.Errors.Error} when the child exits first, stays silent
    for 30 s, or the watchdog has expired. *)

val stop : t -> Unix.process_status
(** Send [shutdown] to the current child and reap it. *)

val kill : t -> Unix.process_status
(** SIGKILL the current child and reap it. *)

val reap : t -> Unix.process_status
(** Wait for the current child to exit (e.g. after a {!Chaos.Killer}).
    [stop], [kill] and [reap] return the recorded status of a child
    already reaped, and raise [Invalid_argument] before any [start]. *)
