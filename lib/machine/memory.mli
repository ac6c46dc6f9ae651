(** Sparse byte-addressed memory.

    Backed by 4 KiB pages allocated on first touch, so a 32-bit address
    space costs only what the program touches. Word accesses are
    little-endian and must be 4-byte aligned. *)

type t

exception Fault of string
(** Raised on misaligned word access. *)

val create : unit -> t

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val read_u32 : t -> int -> int
(** Result is the raw unsigned 32-bit value. *)

val read_s32 : t -> int -> int
(** Sign-extended 32-bit read, the canonical register-value form. *)

val write_u32 : t -> int -> int -> unit

val touched_pages : t -> int
(** Number of pages allocated so far. *)

val checksum : t -> int
(** Order-independent digest over all touched bytes and their
    addresses; equal checksums on equal memory states. Used by the
    losslessness property tests. *)

val checksum_range : t -> lo:int -> hi:int -> int
(** Like {!checksum}, restricted to addresses in [lo, hi). Lets
    equivalence checks skip regions that legitimately hold code
    addresses (e.g. return addresses spilled on the stack), which
    differ between layouts of the same program. *)
