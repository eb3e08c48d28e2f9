(* lint: allow no-catchall — worker lanes must stay alive whatever a
   job raises; parallel_chunks captures the first exception in an
   Atomic and re-raises it on the calling domain. *)

(* One job slot per worker; a region hands every worker the same
   work-stealing closure and waits for all of them to drain it. *)
type worker = {
  m : Mutex.t;
  cv : Condition.t;
  mutable job : (unit -> unit) option;
  mutable quit : bool;
}

type pool = {
  workers : worker array;  (* size - 1 helpers; the caller is the last lane *)
  handles : unit Domain.t array;
}

let max_domains = 128

let requested : int option ref = ref None
let current : pool option ref = ref None
let spawn_failed = ref false
let at_exit_registered = ref false

(* Held for the duration of a region. [try_lock] failing means a region
   is already running (nested call, or another thread): run serially. *)
let region_lock = Mutex.create ()

let available_cores () = max 1 (Domain.recommended_domain_count ())

let env_size () =
  match Sys.getenv_opt "PATHSEL_DOMAINS" with
  | None -> None
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> Some (min n max_domains)
     | Some _ | None -> None)

let size () =
  if !spawn_failed then 1
  else
    match !requested with
    | Some n -> n
    | None -> (match env_size () with Some n -> n | None -> min max_domains (available_cores ()))

let worker_loop w =
  let rec loop () =
    Mutex.lock w.m;
    while w.job = None && not w.quit do
      Condition.wait w.cv w.m
    done;
    let job = w.job in
    w.job <- None;
    let quit = w.quit in
    Mutex.unlock w.m;
    (match job with
     | Some f -> (try f () with _ -> ())  (* jobs report errors themselves *)
     | None -> ());
    if not quit then loop ()
  in
  loop ()

let shutdown () =
  match !current with
  | None -> ()
  | Some p ->
    current := None;
    (* the analyzer flags this as monitor-reachable: the self-healing
       reselect path deliberately runs the whole numeric re-selection
       (and thus any pool resize) on the monitor thread — a slow
       reselect stalls only monitoring, never a request. The lock below
       is the pool's private worker handshake, held only to flip [quit]
       and signal. *)
    Array.iter
      (fun w ->
        (* lint: allow-next monitor-blocking *)
        Mutex.lock w.m;
        w.quit <- true;
        Condition.signal w.cv;
        Mutex.unlock w.m)
      p.workers;
    (* joining quitting workers is bounded by the handshake above *)
    (* lint: allow-next monitor-blocking *)
    Array.iter Domain.join p.handles

let spawn n =
  let workers =
    Array.init (n - 1) (fun _ ->
        { m = Mutex.create (); cv = Condition.create (); job = None; quit = false })
  in
  match Array.map (fun w -> Domain.spawn (fun () -> worker_loop w)) workers with
  | handles ->
    let p = { workers; handles } in
    current := Some p;
    if not !at_exit_registered then begin
      at_exit_registered := true;
      Stdlib.at_exit shutdown
    end;
    Some p
  | exception _ ->
    (* domain limit hit (or similar): stay serial for the process *)
    spawn_failed := true;
    None

let set_size n =
  if n < 1 then invalid_arg "Par.Pool.set_size: size must be >= 1";
  let n = min n max_domains in
  requested := Some n;
  match !current with
  | Some p when Array.length p.workers <> n - 1 -> shutdown ()
  | Some _ | None -> ()

let get_pool n =
  match !current with
  | Some p when Array.length p.workers = n - 1 -> Some p
  | Some _ ->
    shutdown ();
    spawn n
  | None -> spawn n

(* Run [work] on every worker plus the calling domain, returning once
   all lanes are done. *)
let run_region p work =
  (* monitor-reachable by design (see shutdown above): re-selection on
     the monitor thread runs the parallel numeric kernels, and the
     region handshake below is the pool's private, bounded job hand-off
     — the locks are never shared with the serving path *)
  let pending = ref (Array.length p.workers) in
  let fm = Mutex.create () in
  let fcv = Condition.create () in
  Array.iter
    (fun w ->
      (* lint: allow-next monitor-blocking *)
      Mutex.lock w.m;
      w.job <-
        Some
          (fun () ->
            (try work () with _ -> ());
            (* lint: allow-next monitor-blocking *)
            Mutex.lock fm;
            decr pending;
            if !pending = 0 then Condition.signal fcv;
            Mutex.unlock fm);
      Condition.signal w.cv;
      Mutex.unlock w.m)
    p.workers;
  work ();
  (* lint: allow-next monitor-blocking *)
  Mutex.lock fm;
  while !pending > 0 do
    (* lint: allow-next monitor-blocking *)
    Condition.wait fcv fm
  done;
  Mutex.unlock fm

(* More chunks than lanes so dynamically-grabbed chunks balance uneven
   per-index work (e.g. the triangular rows of a Gram matrix). *)
let chunk_factor = 4

let parallel_chunks ?(grain = 1) lo hi body =
  let n = hi - lo in
  if n > 0 then begin
    let sz = size () in
    let grain = max 1 grain in
    if sz <= 1 || n <= grain then body lo hi
    else if not (Mutex.try_lock region_lock) then body lo hi
    else
      Fun.protect ~finally:(fun () -> Mutex.unlock region_lock) @@ fun () ->
      match get_pool sz with
      | None -> body lo hi
      | Some p ->
        let nchunks = min (chunk_factor * sz) ((n + grain - 1) / grain) in
        if nchunks <= 1 then body lo hi
        else begin
          let next = Atomic.make 0 in
          let err = Atomic.make None in
          let work () =
            let continue = ref true in
            while !continue do
              let c = Atomic.fetch_and_add next 1 in
              if c >= nchunks then continue := false
              else begin
                let clo = lo + (c * n / nchunks) in
                let chi = lo + ((c + 1) * n / nchunks) in
                if clo < chi then
                  try body clo chi
                  with e -> ignore (Atomic.compare_and_set err None (Some e))
              end
            done
          in
          run_region p work;
          match Atomic.get err with Some e -> raise e | None -> ()
        end
  end

let parallel_for ?grain lo hi f =
  parallel_chunks ?grain lo hi (fun clo chi ->
      for i = clo to chi - 1 do
        f i
      done)
