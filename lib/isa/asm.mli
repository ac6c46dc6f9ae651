(** Text assembler, and the one instruction grammar.

    Parses the surface syntax used throughout the paper's figures:

    {v
    main:
      lda r1, 8(r2)        ; rd, imm(base)
      srl r1, #26, r4      ; rs, #imm, rd
      ldq r5, 0(r1)
      xor r4, r6, r4
      bne r4, error
      jal helper
      jr ra
      halt
    v}

    Comments start at the first [;] or [//]. Mnemonics are the ones
    {!Insn.pp} prints, in any case ({!Desc.key_of_mnemonic}), and
    every form checks its operand count ("[lda expects 2 operands, got
    1]"). Numbers may be decimal or [0x] hexadecimal. Labels are
    identifiers (letters, digits, [_], [$], [.]; no leading digit);
    branch and jump targets are labels or absolute addresses.
    DISE-internal branches write a DISEPC target as [@n]
    ([dbne r1, @3]); codewords as [cw0 1, 2, 3, tag=17], each field
    range-checked.

    {!form} reads a line into {!Insn.form} with string operands, and
    the assembler maps those to registers, numbers and targets with
    {!Insn.map}. The production language ({!Dise_core.Lang}) reads
    replacement instructions through {!form} too and maps the same
    strings to directives ([T.RS], [#T.IMM], [T.PC+T.P1]). *)

exception Parse_error of int * string
(** Line number (1-based) and message. *)

val strip_comment : string -> string
(** The line up to its first [;] or [//]. *)

val is_ident : string -> bool
(** A label name, as above. *)

val number : string -> int
(** Raises {!Parse_error}, as do {!target} and {!form}. *)

val target : string -> Insn.target
(** A label (an identifier) or an absolute address (a number). *)

val form : string -> (string, string, string, int) Insn.form
(** One comment-free instruction, its opcode and operand count checked,
    its operands as trimmed strings in {!Insn.form}'s order (a memory
    operand [off(base)] gives the base and then the offset, ["0"] if
    empty). Immediates come without their [#]; a codeword's fields are
    numbers, range-checked. *)

val parse_line : string -> Program.item option
(** Parse one line; [None] for blank/comment-only lines. Raises
    [Parse_error] with line 0. *)

val parse : string -> Program.t
(** Parse a whole source text. Raises {!Parse_error}. *)

val parse_result : ?source:string -> string -> (Program.t, Diag.t) result
(** Exception-free {!parse}: a failure becomes [Error (Diag.Parse _)]
    carrying [source] (default ["<asm>"]) and the 1-based line.
    Shares the error pretty-printer and exit-code policy of
    {!Diag}. *)

val parse_insn : string -> Insn.t
(** Parse a single instruction (no label). Raises {!Parse_error}. *)
