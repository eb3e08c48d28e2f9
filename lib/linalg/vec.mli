(** Dense vectors of floats.

    A vector is a plain [float array]; this module collects the numerical
    helpers used across the library so callers never hand-roll loops. *)

type t = float array

val create : int -> t
(** [create n] is the zero vector of dimension [n]. *)

val init : int -> (int -> float) -> t

val copy : t -> t

val dim : t -> int

val of_list : float list -> t

val to_list : t -> float list

val fill : t -> float -> unit

val map : (float -> float) -> t -> t

val map2 : (float -> float -> float) -> t -> t -> t
(** [map2 f x y] applies [f] pointwise. Raises [Invalid_argument] on
    dimension mismatch. *)

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val axpy : float -> t -> t -> unit
(** [axpy a x y] performs [y <- a*x + y] in place. *)

val dot : t -> t -> float

val norm2 : t -> float
(** Euclidean norm, computed with scaling to avoid overflow. *)

val norm_inf : t -> float

val norm1 : t -> float

val dist2 : t -> t -> float
(** [dist2 x y] is [norm2 (sub x y)] without the intermediate allocation. *)

val sum : t -> float

val mean : t -> float

val max_elt : t -> float
(** Raises [Invalid_argument] on the empty vector. *)

val min_elt : t -> float

val argmax : t -> int

val equal : ?tol:float -> t -> t -> bool
(** Pointwise comparison with absolute tolerance [tol] (default [1e-12]). *)

val pp : Format.formatter -> t -> unit

(** {1 Range kernels}

    Loops over ranges of flat storage, e.g. the columns of a
    column-major matrix: [x], [xo] name an array and the offset where a
    range of length [len] starts. Each kernel checks every range once up
    front and raises [Invalid_argument] when one falls outside its
    array, then runs unchecked. Every output element goes through the
    same floating-point operations, in the same order, as the plain loop
    its doc states. *)

val dots_range :
  t -> int -> t -> int -> stride:int -> count:int -> int -> t -> unit
(** [dots_range x xo y yo ~stride ~count len out] sets, for [t < count],
    [out.(t) <- sum_p x.(xo+p) * y.(yo + t*stride + p)] summed from
    [0.0] over [p = 0 .. len-1] ascending: dot products of one range of
    [x] with [count] evenly spaced ranges of [y]. Four run per pass over
    [x]. [x] and [y] may be the same array. *)

val axpys_range :
  t -> int -> t -> int -> stride:int -> count:int -> t -> int -> int -> unit
(** [axpys_range alpha ao x xo ~stride ~count y yo len] performs, for
    [t = 0, 1, ..., count - 1] in that order,
    [y.(yo+p) <- y.(yo+p) + alpha.(ao+t) * x.(xo + t*stride + p)] for
    [p < len]: [y] plus a combination of evenly spaced ranges of [x]
    (a column-major matrix times a vector). Four terms are added per
    pass over [y]. [y] must not overlap the ranges of [x]. *)

val rank1_range :
  t -> int -> t -> int -> t -> int -> stride:int -> count:int -> int -> unit
(** [rank1_range alpha ao x xo y yo ~stride ~count len] performs, for
    [t < count] and [p < len],
    [y.(yo + t*stride + p) <- y.(yo + t*stride + p) + alpha.(ao+t) * x.(xo+p)]:
    one range of [x] added into evenly spaced ranges of [y] (a rank-one
    update of a column-major block). Four ranges of [y] share each load
    of [x]. [x] must not overlap any range of [y]. *)

val rot_range : c:float -> s:float -> t -> int -> t -> int -> int -> unit
(** [rot_range ~c ~s x xo y yo len] applies the plane rotation
    [(u, v) <- (u*c + v*s, v*c - u*s)] to each pair
    [(x.(xo+p), y.(yo+p))], [p < len]. The ranges must not overlap. *)

val rot2_range :
  c1:float -> s1:float -> c2:float -> s2:float -> t -> int -> int -> int -> int -> unit
(** [rot2_range ~c1 ~s1 ~c2 ~s2 x o1 o2 o3 len] is
    [rot_range ~c:c1 ~s:s1 x o1 x o2 len] followed by
    [rot_range ~c:c2 ~s:s2 x o2 x o3 len] (two rotations chained through
    the middle range) in one pass, bit-identical to the two calls. The
    three ranges of [x] must not overlap. *)
