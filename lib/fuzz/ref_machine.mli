(** The reference interpreter: {!Dise_machine.Machine}'s semantics with
    nothing between them and the specification.

    {!Dise_machine.Machine} executes pre-decoded descriptors from an
    image table, a memoized expansion or a JIT arena, with the register
    file indexed by descriptor slot. This interpreter matches the boxed
    {!Dise_isa.Insn.t} on every step, reads and writes registers
    through {!Dise_machine.Regfile.get}/[set], evaluates ALU operations
    and branch conditions with {!Dise_isa.Opcode.eval_rop}/[eval_bop],
    and decodes each step's descriptor afresh. It has no JIT. Slow on
    purpose: the differential fuzzer runs it as a lockstep side
    against the machine, so a bug in the machine's executor shows up as
    a divergence rather than being shared by every side.

    A step describes the executed instruction in a {!Machine.Raw.t}
    record filled exactly as the machine fills its own, and raises the
    machine's exceptions ({!Machine.Runtime_error} with the same
    messages, {!Dise_machine.Memory.Fault}) in the same situations. *)

type t

val of_machine : ?expander:Dise_machine.Machine.expander -> Dise_machine.Machine.t -> t
(** [of_machine ?expander m] starts at [m]'s PC and DISEPC, with [m]'s
    register file and memory — taken over, not copied: step only the
    reference afterwards. Build [m] with {!Machine.create} and any
    initialization the compared machines get, and do not step it. *)

val step : t -> bool
(** Execute one dynamic instruction and describe it in {!raw}; [false]
    once halted. *)

val raw : t -> Dise_machine.Machine.Raw.t
(** The description of the last step. *)

val insn : t -> Dise_isa.Insn.t
(** The instruction the last step executed, as fetched. *)

val regs : t -> Dise_machine.Regfile.t
val memory : t -> Dise_machine.Memory.t
val pc : t -> int
val disepc : t -> int

val exit_code : t -> int
(** Value of r2, as {!Machine.exit_code}. *)
