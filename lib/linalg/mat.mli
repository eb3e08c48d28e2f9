(** Dense row-major matrices of floats.

    The storage is a single flat [float array] of length [rows * cols];
    element [(i, j)] lives at index [i * cols + j]. All dimensions are
    checked; mismatches raise [Invalid_argument]. *)

type t = private {
  rows : int;
  cols : int;
  data : float array;  (** row-major, length [rows * cols] *)
}

val create : int -> int -> t
(** [create m n] is the [m]x[n] zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t

val of_arrays : float array array -> t
(** Rows must all have the same length; an empty outer array is the 0x0
    matrix. *)

val to_arrays : t -> float array array

val of_rows : Vec.t list -> t

val identity : int -> t

val diag_of_vec : Vec.t -> t

val diag : t -> Vec.t
(** Main diagonal, of length [min rows cols]. *)

val copy : t -> t

val dims : t -> int * int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val row : t -> int -> Vec.t
(** Fresh copy of row [i]. *)

val col : t -> int -> Vec.t

val set_row : t -> int -> Vec.t -> unit

val transpose : t -> t

val map : (float -> float) -> t -> t

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val sub_into : into:t -> t -> t -> unit
(** [sub_into ~into a b] writes [a - b] into [into] without allocating.
    [into] may alias [a] or [b]. *)

val scale_into : into:t -> float -> t -> unit
(** [scale_into ~into s m] writes [s * m] into [into]. [into] may alias
    [m]. *)

val axpy : alpha:float -> t -> t -> unit
(** [axpy ~alpha x y] performs [y <- y + alpha * x] in place. *)

val sub_scaled : t -> float -> t -> t
(** [sub_scaled a s b] is [a - s*b] in one pass, allocating only the
    result (the fused form of [sub a (scale s b)], bit-identical to
    it). *)

val add_row_vec_into : t -> Vec.t -> unit
(** [add_row_vec_into m v] adds [v] to every row of [m] in place. *)

val sub_row_vec : t -> Vec.t -> t
(** [sub_row_vec m v] subtracts [v] from every row (fresh matrix). *)

val mul : t -> t -> t
(** Matrix product; cache-blocked ikj order, row-band parallel on the
    {!Par.Pool} when the flop count clears {!par_threshold_value}.
    Bit-identical to the serial kernel at any pool size. *)

val mul_nt : t -> t -> t
(** [mul_nt a b] is [a * transpose b] without materializing the
    transpose. Register-tiled dot products, row-band parallel. *)

val mul_tn : t -> t -> t
(** [mul_tn a b] is [transpose a * b]. Row-band parallel. *)

val gram : t -> t
(** [gram a] is [a * transpose a] (symmetric, computed in half the flops,
    row-band parallel). *)

val set_par_threshold : int -> unit
(** Flop count below which the dense products stay serial (default
    200_000). Lowering it forces the parallel path on small matrices —
    useful for tests; the answers are bit-identical either way. *)

val par_threshold_value : unit -> int

val row_grain : int -> int
(** [row_grain flops] is the number of rows (or columns) per parallel
    chunk so that one chunk does about {!par_threshold_value} flops when
    each row costs [flops]; at least 1. *)

val apply : t -> Vec.t -> Vec.t
(** Matrix-vector product. *)

val apply_t : t -> Vec.t -> Vec.t
(** [apply_t a x] is [transpose a * x]. *)

val select_rows : t -> int array -> t
(** [select_rows a idx] stacks rows [idx.(0); idx.(1); ...] of [a]. *)

val drop_rows : t -> int array -> t
(** Complement of {!select_rows}: all rows whose index is not in [idx],
    in increasing order. *)

val select_cols : t -> int array -> t

val sub_left_cols : t -> int -> t
(** [sub_left_cols a k] is the [rows]x[k] block of the first [k] columns. *)

val hcat : t -> t -> t

val vcat : t -> t -> t

val row_norms2 : t -> Vec.t
(** Euclidean norm of every row. *)

val frobenius : t -> float

val norm_inf : t -> float
(** Max absolute entry. *)

val equal : ?tol:float -> t -> t -> bool

val is_symmetric : ?tol:float -> t -> bool

val swap_rows : t -> int -> int -> unit

val swap_cols : t -> int -> int -> unit

val pp : Format.formatter -> t -> unit
