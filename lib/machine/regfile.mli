(** Combined register file: 32 architectural registers plus the DISE
    dedicated registers.

    The dedicated registers model the paper's [$dr] space: persistent
    storage visible only to replacement sequences, initialized through
    the DISE controller rather than by application code. Reads of the
    hardwired zero register always return 0 and writes to it are
    dropped. *)

type t

val create : unit -> t
val get : t -> Dise_isa.Reg.t -> int
val set : t -> Dise_isa.Reg.t -> int -> unit
val copy : t -> t

val arch_equal : t -> t -> bool
(** Equality over the architectural registers only (dedicated DISE
    state is microarchitectural from the application's viewpoint). *)

val checksum_arch : t -> int
val pp : Format.formatter -> t -> unit
