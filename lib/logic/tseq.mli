(** Test sequences: a finite sequence of input vectors applied at
    consecutive time units, all of the same width.

    This is the object the whole scheme manipulates: the deterministic
    sequence [T0], the stored subsequences [S], and the expanded sequences
    [Sexp] are all values of this type. Structural operations here are
    purely combinational on the data; the paper-specific expansion
    composition lives in [Bist_core.Ops]. *)

type t

val empty : int -> t
(** [empty width] is the zero-length sequence for a [width]-input circuit. *)

val of_vectors : Vector.t array -> t
(** Raises [Invalid_argument] if the vectors disagree on width (empty
    arrays are not representable this way — use {!empty}). *)

val of_strings : string list -> t
(** Parse one vector per string. *)

val to_strings : t -> string list

val length : t -> int
val width : t -> int
val get : t -> int -> Vector.t

val append : t -> Vector.t -> t
val concat : t -> t -> t

val sub : t -> lo:int -> hi:int -> t
(** [sub t ~lo ~hi] is the subsequence [T\[lo, hi\]] of the paper:
    time units [lo] through [hi] inclusive. Raises [Invalid_argument] on
    an invalid range. *)

val omit : ?len:int -> t -> int -> t
(** [omit t u] removes the vector at time unit [u]; with [len] (default
    1), the [len] vectors from [u] on, as many as there are. *)

val repeat : t -> int -> t
(** [repeat t n] is [t^n]; [n >= 1]. *)

val complement : t -> t
(** Complement every vector. *)

val shift_left_circular : t -> t
(** Circularly shift every vector left by one position. *)

val reverse : t -> t
(** Reverse the order of the vectors ([rS] in the paper). *)

val equal : t -> t -> bool

val iter : (Vector.t -> unit) -> t -> unit
val iteri : (int -> Vector.t -> unit) -> t -> unit
val fold_left : ('a -> Vector.t -> 'a) -> 'a -> t -> 'a
val to_array : t -> Vector.t array
(** A fresh copy of the underlying vectors. *)

val random_binary : Bist_util.Rng.t -> width:int -> length:int -> t

val pp : Format.formatter -> t -> unit
(** One vector per line. *)
