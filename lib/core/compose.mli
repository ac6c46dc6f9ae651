(** ACF composition (Section 3.3).

    Composition is performed in software over production sets, not by
    the hardware. {e Nested} composition X-within-Y — the final stream
    equals [Y(X(application))] — is built as: Y's productions, plus X's
    productions with Y "executed" over their replacement sequences
    ({!inline_seq}, the paper's replacement-sequence inlining).
    {e Non-nested} composition merges the replacement sequences of
    overlapping patterns while keeping a single trigger instance
    ({!merge_sequences}, Figure 5's R4).

    Inlining must decide statically whether an outer pattern matches a
    replacement-sequence {e template}. Templates with parameterized
    fields make some decisions impossible; such ambiguity raises
    {!Composition_error} rather than silently guessing (the paper's
    composition is likewise an offline software step that may fail).
    A template reads its fields with {!Dise_isa.Insn}'s accessors, as a
    fetched instruction does, so a branch template's [T.IMM] is its
    target: an absolute target is that immediate, and a label or a
    parameter-relative target is undecidable. *)

exception Composition_error of string

val inline_seq :
  outer:Prodset.t ->
  ?trigger_pattern:Pattern.t ->
  Replacement.t ->
  Replacement.t
(** Apply the [outer] production set to every instruction of a
    replacement sequence specification. [trigger_pattern] describes
    what the sequence's own trigger can be; it is required to decide
    matches against [Trigger] ([T.INSN]) elements. DISE-internal
    branch offsets are remapped to the inlined layout. Raises
    {!Composition_error} on ambiguity. *)

val nest : outer:Prodset.t -> inner:Prodset.t -> Prodset.t
(** Nested composition: the returned set produces
    [outer(inner(stream))]. Inner productions keep their patterns but
    get inlined sequences and elevated priority (the inner ACF applied
    first must win when both match a fetched instruction). Sequence-id
    spaces must be disjoint; inner [From_tag] sequences keep their ids
    (tags are already planted in the binary), inner [Direct] sequences
    whose inlining changed them are re-bound to fresh ids. Dedicated
    register conflicts between inner and outer are resolved by
    renaming the {e inner} sequence's registers into fresh ones
    (documented restriction: externally initialized dedicated
    registers of the two ACFs should be disjoint, as in the paper's
    examples). *)

val merge_sequences : Replacement.t -> Replacement.t -> Replacement.t
(** Non-nested merge of two sequences for overlapping patterns: the
    first sequence minus its trailing [Trigger], followed by the
    second (which must contain the trigger). Raises
    {!Composition_error} if the first sequence's trigger is not last,
    if either contains DISE-internal control that would change meaning
    under concatenation, or if the first has no trigger. *)

val shift_direct_rsids : int -> Prodset.t -> Prodset.t
(** Re-number all [Direct] sequence ids by adding an offset, to
    establish disjoint id spaces before composing. Raises
    {!Composition_error} if the set contains [From_tag] productions
    whose tag space would be broken by shifting shared sequences. *)
