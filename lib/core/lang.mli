(** Textual production language.

    The external, directive-annotated representation of productions
    that users hand to the DISE controller. The syntax follows the
    paper's figures:

    {v
    ; memory fault isolation (Figure 1)
    P1: T.OPCLASS == store -> R1
    P2: T.OPCLASS == load -> R1
    R1: srl T.RS, #26, $dr1
        xor $dr1, $dr2, $dr1
        bne $dr1, error
        T.INSN
    v}

    Pattern conditions (combined with [&&]): [T.OPCLASS == <class>],
    [T.OP == <mnemonic>] (a {!Dise_isa.Desc.mnemonic_of_key}, in any
    case: immediate ALU forms take an [i] suffix, [addi], [srli], ...;
    codewords are [cw0]..[cw3]), [T.RS == <reg>],
    [T.RT ==], [T.RD ==], [T.IMM == <n>], [T.IMM < 0], [T.IMM >= 0].
    [T.ANY] alone is the pattern that matches every instruction.
    A production's right-hand side is a sequence name [R<n>] or [TAG]
    (aware ACFs: the sequence id comes from the codeword tag),
    optionally followed by [priority <n>] (default 0; composition
    raises it to layer one set above another).

    Replacement instructions are read with {!Dise_isa.Asm}'s grammar
    (comments, case-insensitive mnemonics, operand counts, labels as
    identifiers); only their operands differ. They may be literals ([r4], [$dr1], [#26]),
    trigger fields ([T.RS], [T.RT], [T.RD], [#T.IMM], [#T.PC]),
    codeword parameters ([T.P1].. as registers, [#T.P1], [#T.P1P2] as
    immediates), or [T.INSN] for the whole trigger. Branch targets may
    be labels (resolved later against an image), [0x] addresses, or
    [T.PC+T.P1] / [T.PC+T.P1P2] parameterized offsets. *)

exception Parse_error of int * string
(** 1-based line number and message; the same exception as
    {!Dise_isa.Asm.Parse_error}. *)

val parse : string -> Prodset.t
(** Parse a production-set source. Sequence names [R<n>] bind sequence
    id [n]. *)

val parse_result :
  ?source:string -> string -> (Prodset.t, Dise_isa.Diag.t) result
(** Exception-free {!parse}: a failure becomes [Error (Diag.Parse _)]
    carrying [source] (default ["<productions>"]) and the 1-based
    line, so every front end reports DSL errors through the shared
    {!Dise_isa.Diag} printer and exit codes. *)

val parse_rinsn : string -> Replacement.rinsn
(** Parse a single replacement instruction: [T.INSN], or an
    instruction in {!Dise_isa.Asm}'s grammar ({!Dise_isa.Asm.form})
    whose operands may be the directives above. *)

val to_string : Prodset.t -> string
(** Render a production set as source that {!parse} reads back to the
    same productions (name, pattern, priority, right-hand side) and
    sequences. An unnamed production prints as [P]. *)

val load :
  program:string * string ->
  productions:(string * string) option ->
  (Dise_isa.Program.Image.t * Prodset.t option, Dise_isa.Diag.t) result
(** Load a program and the production set it runs under, each given
    as [(source, text)]: assemble and lay out the program, then parse
    the productions and resolve their labels against the program's
    symbols. Every failure is a [Diag.Parse] naming its file: an
    assembly or DSL syntax error (with its line), an undefined or
    duplicate program label, or a replacement label the program does
    not define. *)
