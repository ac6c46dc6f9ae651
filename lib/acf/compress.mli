(** Static code compression for DISE dynamic decompression
    (Section 3.2), plus the dedicated-decompressor model it is compared
    against in Figure 7.

    The compressor follows the paper's greedy algorithm: build the set
    of candidate dictionary entries — instruction sequences that do not
    straddle basic blocks — then iteratively pick the entry with the
    greatest immediate compression, weighing the cost of coding the
    dictionary entry against the static instructions removed from the
    text. Chosen instances are replaced by codewords (reserved opcode 0,
    up to three 5-bit parameter fields, an 11-bit entry tag).

    {e Parameterization} lets sequences differing in up to three
    register or small-immediate fields share one (8-byte-per-
    instruction) dictionary entry. {e PC-relative branch compression}
    makes the branch offset a parameter occupying two 5-bit fields
    (a signed 10-bit instruction offset): two static branches share an
    entry even though compression moves them, because each codeword
    carries its own final offset. Offsets are verified against a layout
    fixpoint — instances whose final offset does not fit are
    un-compressed and the layout repeated.

    The six schemes of Figure 7 (top) are provided: the dedicated
    decompressor (2-byte codewords, single-instruction entries,
    unparameterized 4-byte dictionary entries), its two feature
    removals, and the three DISE feature additions. *)

type scheme = {
  name : string;
  codeword_bytes : int;   (** 2 (dedicated) or 4 (DISE) *)
  min_len : int;          (** >= 1; 1 allows single-instruction compression *)
  max_len : int;
  max_params : int;       (** 0..3 codeword parameter fields *)
  dict_entry_bytes : int; (** per dictionary instruction: 4, or 8 with directives *)
  compress_branches : bool;
  max_entries : int;      (** 1..2048, the codeword tag space *)
}

val dedicated : scheme

(** [dedicated] without single-instruction entries. *)
val minus_1insn : scheme

(** ... and with 4-byte codewords. *)
val minus_2byte_cw : scheme

(** DISE dictionary-entry size, still unparameterized. *)
val plus_8byte_de : scheme

(** Plus parameterization (three codeword fields). *)
val plus_3param : scheme

(** Plus PC-relative branch compression. *)
val full_dise : scheme

val fig7_schemes : scheme list
(** The six, in the figure's left-to-right order. *)

type entry = {
  tag : int;
  spec : Dise_core.Replacement.t;  (** directive-annotated dictionary entry *)
  len : int;
  param_fields : int;              (** codeword fields consumed (0..3) *)
  uses : int;                      (** codewords referencing this entry *)
}

type result = {
  scheme : scheme;
  program : Dise_isa.Program.t;    (** compressed program *)
  image : Dise_isa.Program.Image.t;(** laid out at the code base *)
  prodset : Dise_core.Prodset.t;   (** decompression productions, resolved
                                       against [image] *)
  entries : entry list;
  orig_text_bytes : int;
  text_bytes : int;                (** compressed text *)
  dict_bytes : int;
  codewords : int;                 (** codewords planted *)
}

val compress : scheme:scheme -> Dise_isa.Program.t -> result
(** Compress a program. The result's [image]/[prodset] pair is directly
    runnable: create an engine from [prodset] and a machine on [image],
    and execution reproduces the original program's behaviour.

    {b Cost.} Every legal window up to [max_len] inside a basic block
    is a candidate. Each normalized instruction is interned to an int
    once, and the windows that start at one position are walked as one
    path of a trie over those ints, kept in flat arrays: one int-keyed
    probe per window, no per-window key. Only groups whose best case
    (every instance covered) saves bytes are materialized for the
    greedy selection, and a group's template is rebuilt only when its
    number of free instances changes.

    {b Determinism.} The result is a function of [scheme] without its
    [name] and of the program. Benefits are integer byte counts, so
    ties are common, and they are broken by fixed orders: the greedy
    heap pops equal benefits in push order, which is the iteration
    order of a [Hashtbl] of groups keyed by (normalized text, length)
    and filled in first-occurrence order; a template's base is its
    most frequent field vector, ties going to the order of a
    [Hashtbl.create 64] of vectors filled in instance order. These
    orders are part of the output: test/test_acf.ml pins every
    dictionary of the quick figure suite byte for byte
    (test/golden/compress.txt). *)

val compression_ratio : result -> float
(** [text_bytes / orig_text_bytes] (dictionary excluded). *)

val total_ratio : result -> float
(** [(text_bytes + dict_bytes) / orig_text_bytes]. *)

(** {1 Seeded (search-driven) compression}

    [disesim synthesize] replaces the greedy selection with an
    external search: candidate dictionaries are {e seed lists}, each
    seed naming one static window whose whole candidate group (all
    windows sharing its normalized text) becomes a dictionary entry.
    The enumeration and the entire post-selection pipeline (template
    parameterization, codeword planting, the branch-offset layout
    fixpoint, production-set construction) are shared with
    {!compress}, so a seeded result is runnable and measured exactly
    like a greedy one. *)

type seed = { s_blk : int; s_start : int; s_len : int }
(** Instructions [s_start..s_start+s_len) of basic block [s_blk]
    (blocks numbered in program order, labels excluded). *)

type corpus
(** The enumerated candidate groups of one (scheme, program) pair —
    built once, then shared by every [compress_seeded] call of a
    search run. *)

val corpus : scheme:scheme -> Dise_isa.Program.t -> corpus

type window = {
  w_seed : seed;      (** representative (lowest-position) instance *)
  w_len : int;
  w_count : int;      (** static occurrences of the group *)
  w_sites : (int * int * int) list;
      (** every occurrence as [(blk, start, global instruction
          index)], ascending; the index keys the dynamic-profile heat
          of the site (its PC in the uncompressed image) *)
}

val windows : corpus -> window list
(** Every candidate group as a window, sorted by representative seed —
    a deterministic candidate pool for the miner. *)

val compress_seeded : corpus -> seeds:seed list -> result
(** Compress using exactly the given seeds as the dictionary, in list
    order (earlier seeds claim overlapping windows first). Seeds that
    resolve to no legal group — out of bounds, or stale against this
    program — are skipped, as are seeds whose group has no free
    instances left; [scheme.max_entries] bounds the dictionary. *)
