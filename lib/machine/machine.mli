(** Functional emulator with DISE expansion semantics.

    The machine fetches application instructions by PC, offers each to
    an {e expander} (the DISE engine, injected as a closure so this
    library stays independent of the engine's implementation), and
    executes either the instruction itself or its replacement sequence.

    Replacement-sequence semantics follow the paper's two-level control
    model. Every dynamic instruction carries a [PC:DISEPC] pair; an
    application instruction has DISEPC 0. Within a sequence:

    - DISE-internal branches ([Dbr]/[Djmp]) modify the DISEPC only;
    - a taken application-level control transfer squashes the rest of
      the sequence (a non-trigger replacement branch is effectively
      predicted not-taken, exactly the behaviour the paper's fault
      isolation production relies on);
    - a sequence that runs to completion falls through to the next
      application PC;
    - codewords may not appear inside replacement sequences (no
      recursive expansion).

    Each {!step} describes the executed dynamic instruction in the
    machine's {!Raw.t} record; {!run_raw} streams that record to a sink,
    and the trace-driven timing model consumes it.

    Execution is decode-once: every instruction runs from its
    descriptor and immediate ({!Dise_isa.Desc}), decoded when the image
    is laid out or the expansion is built, never from the boxed
    instruction. The interpreter and the superblock JIT share one
    executor, which dispatches on the opcode key and reads and writes
    the register file by descriptor slot ({!Regfile.slots}). The
    reference interpreter [Dise_fuzz.Ref_machine] matches the boxed
    instruction instead and is checked against this one in lockstep. *)

type expansion = private {
  rsid : int;             (** replacement sequence identifier *)
  seq : Dise_isa.Insn.t array;  (** fully instantiated sequence *)
  descs : Dise_isa.Desc.t array;
      (** [Desc.of_insn] of each instruction of [seq], decoded once *)
  imms : int array;
      (** [Desc.imm_of_insn] of each instruction of [seq], decoded
          once: the machine executes the sequence from [descs] and
          [imms] *)
}
(** What an expander returns for a matched trigger. The record is
    private: only {!expansion} builds one, so [descs] and [imms]
    always agree with [seq]. An expander that memoizes its results
    (the engine) stores the built expansion and pays for the decoding
    once. *)

val expansion : rsid:int -> Dise_isa.Insn.t array -> expansion
(** [expansion ~rsid seq] pairs [seq] with its descriptors and
    immediates. *)

type expander = pc:int -> Dise_isa.Insn.t -> expansion option

exception Runtime_error of string

(** One dynamic instruction of the post-expansion stream: a single
    mutable record per machine, overwritten by each executed
    instruction. Read the fields before the next step. Every field is
    an immediate value, so filling the record stores no pointer. With
    an allocation-free expander (the engine's memo), stepping
    allocates nothing per instruction: what a run
    allocates is one-time work (memo fills, JIT compiles, newly
    touched memory pages). Test "pipeline allocation-free" in
    test/test_uarch.ml bounds a whole [Pipeline.run] at one minor-heap
    word per instruction. *)
module Raw : sig
  type t = {
    mutable pc : int;
        (** application PC: the instruction's own, or the trigger's
            for a replacement instruction *)
    mutable desc : Dise_isa.Desc.t;
        (** the executed instruction's descriptor, copied from the
            image's ({!Dise_isa.Program.Image.raw_descs}), the
            expansion's or the JIT arena's pre-decoded array, never
            re-decoded: the timing model reads this, never the
            instruction *)
    mutable imm : int;
        (** the executed instruction's immediate
            ({!Dise_isa.Desc.imm_of_insn}), copied like [desc] *)
    mutable rsid : int;
        (** replacement sequence identifier, [-1] for an application
            instruction *)
    mutable offset : int;
        (** position within the replacement sequence (0 for an
            application instruction) *)
    mutable len : int;  (** sequence length (0 for an application instruction) *)
    mutable expansion_start : bool;
        (** true on the first instruction of an expansion: the cycle in
            which the engine recognized a trigger *)
    mutable fetched_new_pc : bool;
        (** true when this instruction consumed a fresh application
            fetch (the I-cache is touched); replacement instructions
            after the first come from the RT and do not access the
            I-cache *)
    mutable mem_addr : int;  (** effective address, or {!no_mem} *)
    mutable branch : int;
        (** [-1] = no branch; else bit 0 = taken, bit 1 = dise_internal *)
    mutable target : int;
        (** PC target, or DISEPC for internal branches; meaningful only
            when [branch >= 0] *)
  }

  val no_mem : int
  (** Sentinel stored in [mem_addr] when the instruction made no memory
      access. *)

  val insn : t -> Dise_isa.Insn.t
  (** The executed instruction, rebuilt from [desc] and [imm]
      ({!Dise_isa.Desc.to_insn}); equal to the instruction in the
      image or the expansion. Allocates: for readers off the hot path
      (traces, differential checks, tests). *)
end

type t

val create :
  ?expander:expander -> ?entry:string -> Dise_isa.Program.Image.t -> t
(** [create image] builds a machine with PC at label [entry] (default
    ["main"], falling back to the image base), an empty memory, and a
    zeroed register file with [sp] pointing at [0x07FFFF00]. *)

val image : t -> Dise_isa.Program.Image.t
val memory : t -> Memory.t
val regs : t -> Regfile.t
val pc : t -> int
val disepc : t -> int
val halted : t -> bool

val executed : t -> int
(** Dynamic instructions executed (application + replacement). *)

val app_fetched : t -> int
(** Application-level instructions fetched (each trigger counts once,
    however long its replacement sequence). *)

val expansions : t -> int
(** Number of expansions performed. *)

val set_dise_reg : t -> int -> int -> unit
(** Controller-mediated write to a dedicated register. *)

val set_reg : t -> Dise_isa.Reg.t -> int -> unit

val interrupt : t -> int * int
(** Take a precise interrupt at the current PC:DISEPC boundary
    (Section 2.2): abandon the in-flight replacement sequence and
    return the [(pc, disepc)] pair the OS would save. Execution state
    (registers, memory) is already precise — every {!step} retires one
    whole instruction. *)

val resume : t -> pc:int -> disepc:int -> unit
(** Return from a handler to a saved [(pc, disepc)] pair. Fetch
    restarts at [pc]; the engine recognizes the DISEPC annotation and
    re-expands the replacement sequence, skipping its first [disepc]
    instructions. *)

val step : t -> bool
(** Execute one dynamic instruction and describe it in {!raw}. [false]
    once halted. Raises {!Runtime_error} when the PC leaves the text or
    an illegal situation arises (codeword with no production, codeword
    inside a replacement sequence, memory fault). *)

val raw : t -> Raw.t
(** The machine's scratch record, valid after any successful step. *)

val run_raw : ?max_steps:int -> ?poll:(unit -> unit) -> t -> (Raw.t -> unit) -> int
(** Step until halt (or [max_steps], default 100 million), passing the
    machine's {!Raw.t} record to the sink after every step. The sink
    must copy out anything it wants to keep; [ignore] runs the program
    for its final state alone. Returns the executed-instruction count.
    Raises {!Runtime_error} once exactly [max_steps] instructions have
    executed without reaching a halt — never an instruction more; a
    program whose halting instruction is the [max_steps]-th completes
    normally. [poll] (if given) is called once every 2048 steps, a
    cooperative cancellation point for deadline enforcement. *)

val exit_code : t -> int
(** Value of r2 at halt, the program's exit-convention register. *)

(** {2 Trace/superblock JIT}

    Once an application PC has been dispatched [threshold] times at an
    expansion boundary, the straight-line code reachable from it — with
    every production expansion already applied — is flattened into a
    contiguous arena that {!step} then walks with zero per-fetch
    matching, hashing, or allocation. Soundness is generation-stamped:
    the engine bumps the shared [generation] counter on any production
    set swap or PT/RT write, which retires every superblock at the
    next application-instruction boundary. See [doc/jit.md]. *)

val default_jit_threshold : int
(** Dispatches of one PC before its trace is compiled (8). *)

val enable_jit : ?threshold:int -> ?generation:int ref -> t -> unit
(** Attach the superblock JIT. [generation] is the invalidation
    counter shared with the engine (see [Engine.attach_jit], which
    passes its own); when omitted the JIT can never be invalidated,
    which is only sound for a fixed production set. The expander must
    be pure and idempotent: compilation replays it ahead of
    execution. *)

val jit_compiles : t -> int
(** Superblocks compiled (0 when the JIT is disabled). *)

val jit_hits : t -> int
(** Dispatches served by an already-compiled superblock. *)

val jit_invalidations : t -> int
(** Superblocks retired by generation bumps. *)
