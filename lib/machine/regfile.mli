(** Combined register file: 32 architectural registers plus the DISE
    dedicated registers.

    The dedicated registers model the paper's [$dr] space: persistent
    storage visible only to replacement sequences, initialized through
    the DISE controller rather than by application code. Reads of the
    hardwired zero register always return 0 and writes to it are
    dropped. Every register holds a signed 32-bit value. *)

type t

val create : unit -> t
val get : t -> Dise_isa.Reg.t -> int

val set : t -> Dise_isa.Reg.t -> int -> unit
(** Stores the value sign-extended from bit 31. *)

val slots : t -> int array
(** The backing array, indexed by descriptor slot
    ({!Dise_isa.Desc.use1_slot}): register [r] lives at
    [Reg.index r + 1], and slot 0 is the zero register. Shared, not a
    copy: the machine's executor reads and writes registers here. A
    writer must store only signed 32-bit values and must leave slot 0
    holding 0. *)

val copy : t -> t

val arch_equal : t -> t -> bool
(** Equality over the architectural registers only (dedicated DISE
    state is microarchitectural from the application's viewpoint). *)

val checksum_arch : t -> int
val pp : Format.formatter -> t -> unit
