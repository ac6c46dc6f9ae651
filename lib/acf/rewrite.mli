(** Software fault isolation by static binary rewriting — the baseline
    the paper compares DISE against (Wahbe et al.'s scheme).

    The rewriter transforms a symbolic program, inserting a check
    sequence before every load, store, and (optionally) indirect jump,
    and planting segment-id initialization at the program entry. It
    needs scavenged registers the application must not use — the
    workload generator reserves r23..r26 for exactly this purpose:

    - r23: legal data-segment id, r26: code-segment id;
    - r24: scratch; r25: the defensive copy of the address register.

    Two variants:
    - [Segment_matching]: copy, extract segment, compare, branch to the
      error handler (4 inserted instructions per access — including the
      extra copy that protects against jumps into the middle of the
      check, a cost DISE's control model avoids);
    - [Sandboxing]: force the address's segment bits to the legal
      segment (3 inserted instructions; the access is rewritten to use
      the sandboxed register). No fault is reported: stray accesses are
      redirected into the legal segment. *)

type variant =
  | Segment_matching
  | Sandboxing

val rewrite :
  ?variant:variant ->
  ?check_jumps:bool ->
  ?error_label:string ->
  data_seg:int ->
  code_seg:int ->
  Dise_isa.Program.t ->
  Dise_isa.Program.t
(** Rewrite a program (default variant [Segment_matching], jumps
    unchecked, error handler ["__error"]). The returned program lays
    out and runs like the original, plus the checks. Raises
    [Invalid_argument], naming the instruction and the register, if
    any input instruction reads or writes a scavenged register
    (r23..r26). *)

val static_growth : Dise_isa.Program.t -> Dise_isa.Program.t -> float
(** Instruction-count ratio rewritten/original. *)
