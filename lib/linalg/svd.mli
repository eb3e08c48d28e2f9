(** Singular value decomposition.

    [factor a] returns the thin SVD [a = u * diag s * transpose v] with
    [u : m x k], [s : k] (non-negative, non-increasing), [v : n x k],
    where [k = min m n]. *)

type t = { u : Mat.t; s : Vec.t; v : Mat.t }

exception No_convergence

val factor : Mat.t -> t
(** Golub–Reinsch: Householder bidiagonalization followed by implicit-shift
    QR on the bidiagonal. Raises {!No_convergence} after 60 sweeps on one
    singular value (does not happen on finite inputs in practice), and
    [Invalid_argument] on NaN/infinite entries — checked up front, since
    non-finite input would otherwise corrupt the iteration's stopping
    tests. Callers wanting graceful degradation should catch
    {!No_convergence} and fall back to {!Rsvd} (see [Core.Select]).

    {b Storage.} The factorization runs on one flat, column-major working
    copy of the tall side: [a] itself when [m >= n] (transposed into
    column order), and for a wide [a] its row-major data as it stands,
    which is the column-major storage of the tall [transpose a]. Columns
    are contiguous, so every inner loop streams through memory; V is a
    flat column-major [k x k] array. The results are copied out
    row-major, columns sorted by descending singular value.

    {b Bit-identity.} Every element of [u], [s] and [v] goes through the
    same floating-point operations in the same order as the classic
    serial row-array formulation (Numerical Recipes' svdcmp): sums run
    over their index ascending, the right-Householder row update is only
    loop-interchanged, and the plane rotations of the QR sweeps — whose
    angles depend only on the bidiagonal — are logged and applied later
    in their original order. The results do not depend on the pool size
    or on {!Mat.set_par_threshold}; golden bit patterns in the test suite
    hold this at pool sizes 1, 2 and 4.

    {b Parallelism.} On the {!Par.Pool}, in chunks sized by
    {!Mat.row_grain}: the column sweeps of the left Householder
    reflections, the row blocks of the right Householder update, the
    column sweeps of both accumulations (U and V), and the row blocks
    that apply the logged rotations. The scalar work — the reflector
    norms, the bidiagonal QR iteration itself, and the sort — stays on
    the caller. *)

val factor_jacobi : Mat.t -> t
(** One-sided Jacobi SVD. Slower; kept as an independent oracle for
    cross-checking {!factor} in tests. *)

val rank : ?tol:float -> t -> int
(** Numerical rank: number of singular values above [tol]. Default
    [tol = max m n * epsilon * s.(0)]. *)

val reconstruct : t -> Mat.t
(** [u * diag s * transpose v]. *)

val pinv : ?tol:float -> t -> Mat.t
(** Moore–Penrose pseudo-inverse [v * diag 1/s * transpose u], zeroing
    singular values below [tol] (same default as {!rank}). *)

val nuclear_norm : t -> float
(** Sum of singular values (the "energy" E of the paper's Section 4.2). *)
