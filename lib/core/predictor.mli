(** The optimal linear predictor of Theorem 2 and its analytic error.

    With representative rows [A_r] and remaining rows [A_m], the MMSE
    predictor of the remaining delays from the measured ones is

    [d_Pm = mu_m + A_m A_r^T (A_r A_r^T)^+ (d_Pr - mu_r)],

    and the prediction error is [Delta = Omega x] with
    [Omega = A_m A_r^T (A_r A_r^T)^+ A_r - A_m], a zero-mean Gaussian
    whose per-path standard deviation is the row norm of [Omega].

    A predictor holds [W], the means and those row norms, not [Omega]
    itself: [Omega] is [(n - r) x m], far larger than [W], and only its
    row norms enter the error bound (Eqn 7). {!error_operator} derives
    it on demand from [A]. *)

type t

val build :
  a:Linalg.Mat.t -> mu:Linalg.Vec.t -> rep:int array -> t
(** [build ~a ~mu ~rep] splits rows of [a] into the representative set
    [rep] (must be sorted, distinct, non-empty, in range) and the
    remainder, and forms the predictor. *)

val rep_indices : t -> int array

val rem_indices : t -> int array
(** Complement of [rep_indices], increasing. *)

val mu_rep : t -> Linalg.Vec.t
(** Nominal delays of the representative paths (a copy). *)

val mu_rem : t -> Linalg.Vec.t
(** Nominal delays of the remaining paths (a copy). *)

val weights : t -> Linalg.Mat.t
(** The [(n - r) x r] prediction weight matrix
    [W = A_m A_r^T (A_r A_r^T)^+]. Shared (not copied): do not
    mutate. *)

val predict : t -> measured:Linalg.Vec.t -> Linalg.Vec.t
(** [predict t ~measured] maps the measured representative delays
    (ordered as [rep_indices]) to predicted remaining delays (ordered
    as [rem_indices]). *)

val predict_all : t -> measured:Linalg.Mat.t -> Linalg.Mat.t
(** Row-per-sample batch version: [measured] is
    [n_samples x r]; result is [n_samples x (n - r)]. *)

val error_operator : t -> a:Linalg.Mat.t -> Linalg.Mat.t
(** The [Omega] matrix of Eqn (6), [W A_r - A_m]: [(n - r) x m], freshly
    computed from [a], which must be the matrix the predictor was built
    from. Bit-identical to the operator whose row norms {!build} took.
    Raises [Invalid_argument] when [a]'s row count is not [n]. *)

val error_sigmas : t -> Linalg.Vec.t
(** Per-remaining-path standard deviation of the prediction error
    (row norms of [Omega]). *)

val worst_case_error : t -> kappa:float -> float
(** [max_i kappa * sigma_i] — the numerator of the paper's Eqn (7). *)

val epsilon_r : t -> kappa:float -> t_cons:float -> float
(** Eqn (7): [worst_case_error / t_cons]. *)

val per_path_epsilon : t -> kappa:float -> t_cons:float -> Linalg.Vec.t
(** Per-path guard-band fractions [kappa * sigma_i / t_cons]
    (Section 4.3's tighter per-path bound). *)

(** {1 Serialization support}

    A built predictor is a pure value: the weight matrix, the means and
    the error sigmas fully determine its behaviour. [export]/[import]
    expose it as a plain record so {!Store} can persist a predictor and
    a serving process can restore it {e bit-for-bit} without re-running
    the Gram solve. *)

type raw = {
  raw_rep : int array;          (** sorted representative indices *)
  raw_rem : int array;          (** their complement, increasing *)
  raw_w : Linalg.Mat.t;         (** [(n-r) x r] prediction weights *)
  raw_mu_rep : Linalg.Vec.t;
  raw_mu_rem : Linalg.Vec.t;
  raw_sigmas : Linalg.Vec.t;    (** row norms of the error operator *)
}

val export : t -> raw
(** Copies of every component; mutating the result does not affect [t]. *)

val import : raw -> t
(** Inverse of {!export}. Validates index ordering and every dimension;
    raises [Invalid_argument] on any inconsistency. For all [t],
    [import (export t)] predicts bit-identically to [t]. *)
