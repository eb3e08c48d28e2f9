(** E15 — Domain-pool scaling: kernel and end-to-end pipeline wall-clock
    at 1/2/4/N domains, with bit-or-exact equivalence columns.

    Two claims are measured:

    - {b throughput}: the row-band parallel kernels ([Mat.mul],
      [mul_nt], [mul_tn], [gram]), the exact SVD ([Svd.factor], whose
      column sweeps and rotation blocks run on the pool), Monte Carlo
      sampling, and the whole selection pipeline speed up with the pool
      size (on multicore hardware; on a single-core host the scaling
      rows are reported but the speedup gate is skipped);
    - {b determinism}: every output is bit-identical at every domain
      count — parallelism never changes an answer. The [svd] row
      compares every bit of u, s and v; like every kernel row it joins
      [equivalence_ok], but only [mul] is held to the speedup floor.

    [run ~smoke:true] is the [make perf-smoke] CI gate: a scaled-down
    sweep that fails (returns [ok = false]) when equivalence breaks, or
    when the 4-domain matmul speedup falls below 2x on a machine that
    actually has >= 2 cores. *)

type kernel_row = {
  kname : string;
  dims : string;
  times_ms : (int * float) list;  (** domain count -> best-of-reps ms *)
  identical : bool;               (** bit-identical to the 1-domain run *)
}

type result = {
  cores : int;                    (** [Par.Pool.available_cores ()] *)
  counts : int list;              (** domain counts measured *)
  kernels : kernel_row list;
  mc_yield_identical : bool;
  mc_delays_identical : bool;
  pipeline_times_s : (int * float) list;
  pipeline_identical : bool;
  matmul_speedup : float;         (** t(1 domain) / t(4 domains) *)
  pipeline_speedup : float;       (** same ratio, end-to-end pipeline *)
  equivalence_ok : bool;
  speedup_gate_active : bool;     (** false on single-core hosts *)
  ok : bool;                      (** the perf-smoke verdict *)
}

val run :
  ?oc:out_channel -> ?out:string -> ?smoke:bool -> Profile.t -> result
(** Runs the sweep, prints the table to [oc] (default [stdout]), and
    writes the JSON summary to [out] when given. Restores the pool size
    that was configured before the call. *)
