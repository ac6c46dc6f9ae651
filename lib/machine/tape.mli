(** A recorded post-expansion stream, replayable into any number of
    timing models.

    The timing model is trace-driven: it reads the machine's {!Machine.Raw.t}
    record after each step and nothing else, so one functional run of
    a (workload, ACF) pair produces the stream every machine and
    controller configuration consumes. A tape holds, per dynamic
    instruction, the fields of [Raw.t] the timing model reads — [pc],
    [desc], [rsid], [offset], [len], [expansion_start],
    [fetched_new_pc], [mem_addr], [branch] and [target] — in three
    words, plus the recording machine's JIT counters. Replaying it
    refills one [Raw.t] per instruction, so a timing model fed from a
    tape computes the same statistics as one fed from the live
    machine. [imm] is not kept: only a trace sink reads it, and sinks
    run live.

    A tape stores its stream in chunks of 16K instructions (bigarrays,
    outside the OCaml heap) drawn from one process-wide pool
    (domain-safe), and {!start} and {!release} return them to it, so
    recordings reuse the memory of the tapes before them. A recording is {e abandoned} (its chunks returned,
    and it stops storing) once it passes {!max_length} instructions
    or meets a field its encoding cannot hold exactly — a [pc] or an
    address outside [0, 2{^32}), an [rsid] past 2{^30} - 2, an
    [offset] or [len] past 4095. An abandoned tape is never
    {!complete}, so nothing truncated or wrapped is ever replayed. *)

type t

val max_length : int
(** Instructions a tape holds before its recording is abandoned
    (2{^20}: 24 MiB at three words an instruction). *)

val create : unit -> t
(** An empty tape, not recording. *)

val start : t -> unit
(** Empty the tape (its chunks back to the pool) and begin a
    recording. *)

val release : t -> unit
(** Empty the tape and return its chunks to the pool. The caller
    guarantees no replay of it is running or will run. *)

val record : t -> Machine.Raw.t -> unit
(** Append one instruction to the recording ([Machine.run_raw] sink
    shape). A no-op once the recording is finished or abandoned.
    Allocates only when it needs a chunk the pool cannot give. *)

val finish : t -> Machine.t -> unit
(** End the recording, keeping the machine's JIT counters. *)

val complete : t -> bool
(** Finished and not abandoned: the whole stream is on the tape. *)

val footprint : t -> int
(** Instructions of storage the tape holds: its length rounded up to
    whole 16K-instruction chunks, so even a short tape weighs one
    chunk (384 KiB). At most {!max_length}. *)

val jit_compiles : t -> int
val jit_hits : t -> int
val jit_invalidations : t -> int
(** The recording machine's {!Machine.jit_compiles} etc. at
    {!finish}. *)

val replay : ?poll:(unit -> unit) -> t -> (Machine.Raw.t -> unit) -> int
(** Pass every recorded instruction to the sink, in order, through one
    fresh [Raw.t] record, like {!Machine.run_raw}; returns the
    instruction count. [poll] (if given) is called once every 2048
    instructions, the cancellation point {!Machine.run_raw} offers.
    Raises [Invalid_argument] unless the tape is {!complete}. Tapes
    are read-only while replaying: several domains may replay one
    tape at once. *)
