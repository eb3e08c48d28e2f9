(** Little-endian binary primitives and CRC-32 for the artifact codec.

    Deliberately boring: fixed-width little-endian integers, IEEE-754
    doubles by bit pattern (so floats round-trip {e exactly}), and
    length-prefixed aggregates. The reader bounds-checks every access
    and raises {!Truncated}/{!Malformed} instead of [Invalid_argument]
    so {!Store} can map decoder failures onto one typed error. *)

exception Truncated
(** The payload ended before the field being read. *)

exception Malformed of string
(** A length prefix or dimension is negative or absurdly large. *)

val max_len : int
(** Upper bound on any length prefix the reader will accept (also the
    WAL's frame-size sanity bound): a length beyond this is
    {!Malformed} garbage, not data. *)

val crc32 : string -> int
(** IEEE 802.3 (reflected, poly 0xEDB88320) CRC over the whole string,
    in [0, 2^32). *)

module W : sig
  type t

  val create : unit -> t
  val contents : t -> string
  val u32 : t -> int -> unit
  (** The value must fit in 32 bits; raises {!Malformed} otherwise. *)

  val f64 : t -> float -> unit
  (** Exact, by IEEE bit pattern. *)

  val str : t -> string -> unit
  val int_array : t -> int array -> unit
  val float_array : t -> float array -> unit
  val mat : t -> Linalg.Mat.t -> unit
end

module R : sig
  type t

  val create : ?pos:int -> string -> t
  val pos : t -> int
  val at_end : t -> bool
  val u32 : t -> int
  val f64 : t -> float
  val str : t -> string
  val int_array : t -> int array
  val float_array : t -> float array
  val mat : t -> Linalg.Mat.t

  val skip_mat : t -> int * int
  (** The [(rows, cols)] of a matrix field, moving past its entries
      without reading them; checked like {!mat}. *)
end
