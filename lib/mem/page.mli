(** Fixed-size shared memory pages.

    A page is a mutable 4096-byte buffer, the DSM coherence unit (the same
    size as the paper's SPARC/SunOS pages).  Accessors use little-endian
    encoding and check bounds. *)

val size : int
(** Page size in bytes (4096). *)

val shift : int
(** [log2 size]: [byte lsr shift] is the page index of a byte offset. *)

val mask : int
(** [size - 1]: [byte land mask] is the within-page offset of a byte
    offset. *)

type t

val create : unit -> t
(** A zero-filled page. *)

val copy : t -> t
(** An independent copy (used for twins). *)

val blit : src:t -> dst:t -> unit
(** Overwrite [dst] with the contents of [src]. *)

val equal : t -> t -> bool

val get_byte : t -> int -> int

val set_byte : t -> int -> int -> unit

val get_i32 : t -> int -> int32

val set_i32 : t -> int -> int32 -> unit

val get_f64 : t -> int -> float

val set_f64 : t -> int -> float -> unit

val get_f64_run : Bytes.t -> int -> float array -> int -> int -> unit
(** [get_f64_run raw off dst pos len] copies the [len] 64-bit words of
    the frame buffer [raw] (see {!raw}) that start at byte [off] into
    [dst.(pos)] .. [dst.(pos + len - 1)] with one memory copy.  The
    result is bit for bit what [len] calls of {!get_f64} would store,
    NaN payloads included.
    @raise Invalid_argument if the run does not lie within [raw] or the
    range within [dst]; nothing is copied then. *)

val set_f64_run : Bytes.t -> int -> float array -> int -> int -> unit
(** [set_f64_run raw off src pos len] is the reverse of {!get_f64_run}:
    the [len] words at byte [off] of [raw] take the bit patterns of
    [src.(pos)] .. [src.(pos + len - 1)].
    @raise Invalid_argument as {!get_f64_run}. *)

val raw : t -> Bytes.t
(** The underlying buffer (for diffing); treat as read-only outside the
    DSM runtime. *)

val of_bytes : Bytes.t -> t
(** Wrap an exactly page-sized buffer. @raise Invalid_argument otherwise. *)

val fill_zero : t -> unit
