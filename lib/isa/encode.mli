(** Binary instruction encoding.

    Instructions encode to 32-bit words with a flat 6-bit primary
    opcode space (the dispatch key of {!Insn.key} doubles as the
    primary opcode). DISE matches on instruction bits, so a concrete
    encoding keeps the pattern/parameterization story honest and lets
    property tests round-trip real bit patterns.

    PC-relative branches encode a signed 16-bit halfword offset from
    the fall-through address, so branch encoding and decoding need the
    instruction's own address. Direct jumps encode an absolute 26-bit
    word index.

    Only architectural registers are encodable: DISE dedicated
    registers exist solely in the replacement table's internal format
    and never appear in application binaries. *)

exception Error of string

val encode : pc:int -> Insn.t -> int
(** [encode ~pc i] is the 32-bit encoding of [i] at byte address [pc].
    Raises {!Error} if [i] names a dedicated register, has an
    unresolved label target, or a field out of range — including
    branch targets that are misaligned or beyond the signed 16-bit
    halfword offset reach, and codeword parameter/tag fields that
    would wrap into neighbouring fields. Nothing is ever silently
    truncated: every representable encoding round-trips through
    {!decode}, and everything else is an error. *)

val decode : pc:int -> int -> Insn.t
(** Inverse of {!encode}. Raises {!Error} on an unknown primary
    opcode. *)

val encode_result : pc:int -> Insn.t -> (int, Diag.t) result
(** Exception-free {!encode}: failures become
    [Error (Diag.Parse _)] (exit-code class "parse"), reported through
    the shared {!Diag} printer. *)

val encodable : Insn.t -> bool
(** True iff {!encode} would succeed (at some pc; offset-range issues
    excepted). *)

val encode_image : Program.Image.t -> int array
(** Encode a whole laid-out program to its binary words, in image
    order. Requires a uniform 4-byte layout (compressed images with
    2-byte codewords have no single-word encoding). Raises {!Error}
    otherwise. *)

val encode_image_result : Program.Image.t -> (int array, Diag.t) result
(** Exception-free {!encode_image}. *)

val decode_image : base:int -> int array -> Insn.t array
(** Decode a word array laid out contiguously from [base]; inverse of
    {!encode_image}. *)
