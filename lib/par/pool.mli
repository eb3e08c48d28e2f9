(** Shared fixed pool of worker domains for data-parallel kernels.

    The pool is lazily initialized on the first parallel region that
    actually needs it: [size () - 1] worker domains are spawned once and
    reused for every subsequent region, so steady-state parallel loops
    pay only a wake-up, not a [Domain.spawn].

    The pool size is, in order of precedence: the last [set_size] call
    (the CLI's [--domains]), the [PATHSEL_DOMAINS] environment variable,
    or [Domain.recommended_domain_count ()]. Size 1 means fully serial:
    no domains are ever spawned and every [parallel_for] degenerates to
    the plain loop.

    Determinism contract: chunking only partitions the index range;
    every index runs the same code on disjoint data regardless of which
    domain executes it or how many domains exist. Kernels built on
    {!parallel_for}/{!parallel_chunks} therefore produce bit-identical
    results at any pool size — parallelism here buys wall-clock time,
    never a different answer.

    Regions never nest: a [parallel_for] issued from inside a running
    region (or concurrently from another thread) runs serially in the
    caller.

    Processes: on OCaml 5.1, [fork] raises once any domain has ever
    been spawned, even after every domain has been joined again.
    A process that has run a parallel region cannot fork, so child
    processes must be started with [Unix.create_process]. *)

val size : unit -> int
(** Effective pool size (>= 1). Does not force pool creation. *)

val set_size : int -> unit
(** [set_size n] fixes the pool size to [n] (clamped to a sane maximum).
    If a pool of a different size is already running it is shut down and
    respawned lazily at the new size. Raises [Invalid_argument] when
    [n < 1]. *)

val available_cores : unit -> int
(** [Domain.recommended_domain_count ()] — what the hardware offers. *)

val parallel_chunks : ?grain:int -> int -> int -> (int -> int -> unit) -> unit
(** [parallel_chunks ~grain lo hi body] partitions [\[lo, hi)] into
    chunks and calls [body clo chi] for each, in parallel across the
    pool. Runs serially (one [body lo hi] call) when the pool size is 1,
    when [hi - lo <= grain] (default 1), or when called from inside
    another region. Chunks are balanced dynamically; the first exception
    raised by any chunk is re-raised in the caller after the region
    completes. *)

val parallel_for : ?grain:int -> int -> int -> (int -> unit) -> unit
(** [parallel_for ~grain lo hi f] runs [f i] for [lo <= i < hi], chunked
    as in {!parallel_chunks}. *)

val shutdown : unit -> unit
(** Join all worker domains. Safe to call when no pool exists; also
    registered via [at_exit] when the pool first spawns. A later
    parallel region lazily respawns the pool. *)
