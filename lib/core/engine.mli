(** The DISE engine: applies a production set to the fetch stream.

    [expand] is the performance-critical path (it inspects every
    fetched instruction), so the engine compiles the production set
    into a per-opcode dispatch table at construction and memoizes
    expansions per static instruction (a static instruction always
    instantiates to the same sequence, because directives only read
    trigger bits and the trigger PC).

    When built with a {e dense} image (every instruction 4 bytes —
    see {!Dise_isa.Program.Image.is_dense}), the memo is a flat array
    indexed by [(pc - base) / 4]: the per-fetch lookup is O(1) array
    reads with no allocation. Otherwise a hashtable keyed by the
    [(pc, instruction)] pair is used. Both memos key on the
    [(pc, instruction)] pair — the dense array stores the trigger it
    memoized and recomputes on mismatch — because PC alone would
    return a stale expansion if an image were re-laid-out with a
    different instruction at the same address. The two memo variants
    are observationally identical; the differential fuzzer
    ({!Dise_fuzz}) cross-checks them on every run.

    The engine performs {e functional} expansion only; PT/RT capacity
    effects are modelled separately by {!Controller} from the
    expansion events. *)

type t

exception Expansion_error of string
(** A production matched but its sequence id is unbound, or
    instantiation failed. *)

val create : ?image:Dise_isa.Program.Image.t -> Prodset.t -> t
(** [create ~image prodset] compiles the production set; passing the
    image the engine will expand against enables the dense per-index
    expansion memo when the image is dense. Omitting it (or passing a
    sparse image) selects the hashtable memo — results are identical,
    only the lookup cost differs. *)

val prodset : t -> Prodset.t

val set_prodset : t -> Prodset.t -> unit
(** Swap the live production set: rebuilds the dispatch table, clears
    both memos, and bumps the invalidation generation so any machine
    attached via {!attach_jit} retires its superblocks. *)

val invalidate : t -> unit
(** Invalidate derived state without changing the production set —
    the hook for PT/RT writes by the controller: clears the memos and
    bumps the generation counter. *)

val generation : t -> int
(** Current invalidation generation (starts at 0; {!set_prodset} and
    {!invalidate} each bump it once). *)

val attach_jit : ?threshold:int -> t -> Dise_machine.Machine.t -> unit
(** Enable the machine's superblock JIT wired to this engine's
    generation counter, so {!set_prodset}/{!invalidate} retire its
    compiled traces. [threshold] defaults to
    {!Dise_machine.Machine.default_jit_threshold}. Each attach gives
    the machine its own fresh superblock state: traces are compiled
    per machine. *)

val expand : t -> pc:int -> Dise_isa.Insn.t -> Dise_machine.Machine.expansion option
(** [None] when no production matches. An identity production yields
    [Some] with the trigger as the single element (it is still an
    expansion, and is costed as one). *)

val expand_result :
  t ->
  pc:int ->
  Dise_isa.Insn.t ->
  (Dise_machine.Machine.expansion option, Dise_isa.Diag.t) result
(** Exception-free {!expand}: an {!Expansion_error} becomes
    [Error (Diag.Expansion _)], reported through the shared
    {!Dise_isa.Diag} printer (exit-code class "simulation"). *)

val expander : t -> Dise_machine.Machine.expander
(** The closure to plug into {!Dise_machine.Machine.create}. *)

val expansions_performed : t -> int
(** Total expansions returned (cache hits included). *)

val distinct_triggers : t -> int
(** Number of distinct static trigger PCs seen so far. *)
