(** Replacement table model.

    The RT is a small cache of replacement-sequence instructions. Each
    entry corresponds to one instruction of a sequence, tagged by
    (sequence id, DISEPC). Sequential instructions may be coalesced
    into blocks, trading read ports for internal fragmentation; the
    block size is the [entries_per_block] parameter.

    An access touches every block of the sequence being expanded. If
    any block is absent the access is a miss: the paper's controller
    flushes the pipeline and loads the whole sequence procedurally, so
    we model one miss event per expansion and fill all of its blocks.

    The default evaluation configurations are 512 or 2K entries,
    direct-mapped or 2-way set-associative, and the perfect (infinite)
    RT used by Figure 7's performance panel. *)

type t

val check_geometry :
  entries:int -> assoc:int -> entries_per_block:int -> (unit, string) result
(** [Ok ()] when all three are positive and [entries], at most
    2{^20}, is a multiple of [assoc * entries_per_block]; otherwise [Error] names the rule
    broken, for the caller to prefix with the field or option it came
    from (as {!Dise_uarch.Cache.check_geometry}). *)

val create : ?entries_per_block:int -> entries:int -> assoc:int -> unit -> t
(** Default [entries_per_block] is 1. Raises [Invalid_argument] when
    {!check_geometry} rejects the geometry. *)

val perfect : unit -> t
(** An RT that never misses. *)

val access : t -> rsid:int -> len:int -> [ `Hit | `Miss ]
(** Expansion of sequence [rsid] whose instantiated length is [len]
    instructions. *)

val invalidate : t -> unit
(** Drop all contents (context switch / production-set swap). *)

val accesses : t -> int
val misses : t -> int
val occupancy : t -> int
(** Resident blocks. *)

val capacity_blocks : t -> int
