(** Symbolic programs and their layout into images.

    A {!t} is an ordered list of labels and instructions with symbolic
    control-transfer targets. Binary-rewriting ACFs (e.g. software
    fault isolation) and the compressor operate at this level, where
    inserting or deleting instructions cannot break branches; {!layout}
    then assigns byte addresses and resolves every target.

    Layout takes a [size_of] function because compressed images are not
    uniform: the dedicated decompressor modelled in the evaluation uses
    2-byte codewords, while everything else occupies 4 bytes. Those are
    the only two sizes, which is what lets {!Image.find_index} resolve
    any address with one table read. *)

type item =
  | Label of string
  | Ins of Insn.t

type t = item list

exception Layout_error of string

module Image : sig
  (** A laid-out program: instructions with assigned byte addresses and
      all targets resolved to absolute form. *)

  type t

  val base : t -> int
  val length : t -> int
  (** Number of instructions. *)

  val text_bytes : t -> int
  (** Total static text size in bytes. *)

  val get : t -> int -> Insn.t
  (** Instruction by index. *)

  val addr_of_index : t -> int -> int
  val size_of_index : t -> int -> int

  val find_index : t -> int -> int
  (** The index of the instruction starting at the given byte address,
      or [-1]: one bounds test and one read of a table with an entry
      per 2-byte offset of the text, built by {!layout}. Allocation-free;
      the emulator's per-fetch lookup and the expansion memo's index. *)

  val raw_insns : t -> Insn.t array
  (** The underlying instruction array, indexed like {!get}. Shared,
      not a copy — callers must not mutate it. Exposed so the emulator
      can predecode without an extra copy. *)

  val raw_descs : t -> Desc.t array
  (** The descriptor of each instruction, indexed like {!get}
      ([Desc.of_insn (get t i)]), decoded once when the image is laid
      out. Shared, not a copy. *)

  val raw_imms : t -> int array
  (** The immediate of each instruction, indexed like {!get}
      ([Desc.imm_of_insn (get t i)]): its immediate operand, its
      resolved absolute branch or jump target, or its DISE offset.
      Decoded in the same pass as {!raw_descs}; with it, the whole
      instruction the machine executes. Shared, not a copy. *)

  val fetch : t -> int -> Insn.t option
  (** Instruction at a byte address, if one starts there. *)

  val symbol : t -> string -> int option
  (** Address of a label. *)

  val symbols : t -> (string * int) list

  val end_addr : t -> int
  (** First byte address past the text. *)

  val iter : (addr:int -> Insn.t -> unit) -> t -> unit
end

val layout : ?base:int -> ?size_of:(Insn.t -> int) -> t -> Image.t
(** Assign addresses starting at [base] (default [0x100000]) using
    [size_of] (default: 4 bytes for everything) and resolve all label
    targets. Raises {!Layout_error} on undefined or duplicate labels,
    and when [size_of] returns a size other than 2 or 4. *)

val insns : t -> Insn.t list
(** The instructions, without labels. *)

val size : t -> int
(** Number of instructions. *)

val concat : t list -> t

val pp : Format.formatter -> t -> unit

module Builder : sig
  (** Imperative accumulation of program items, used by the workload
      generator and the rewriting tools. *)

  type program = t
  type t

  (** [create ?prefix ()] makes an empty builder. [prefix] namespaces
      {!fresh_label} results, letting several builders contribute to
      one program without label collisions. *)
  val create : ?prefix:string -> unit -> t
  val label : t -> string -> unit
  val ins : t -> Insn.t -> unit
  val add : t -> item -> unit
  val append : t -> program -> unit
  val fresh_label : t -> string -> string
  (** [fresh_label b stem] returns a label name unique within this
      builder, derived from [stem], without emitting it. *)

  val to_program : t -> program
end
