(** The versioned architectural conformance suite.

    Where the differential fuzzer ({!Driver}) hunts for divergence on
    random programs, this module pins down {e known} behaviour: named
    assembly vectors with expected signatures live in [test/arch/]
    (one [manifest.json] plus the [.s]/[.dise] sources it names), and
    every run executes each vector on all three expander backends —

    - [naive] — {!Naive.expander}, the reference semantics;
    - [engine-memo] — the memoizing {!Dise_core.Engine};
    - [engine-jit] — the same engine with the superblock JIT
      attached at a compile threshold of 2, so hot vectors exercise
      the compiled path.

    A vector's {e signature} is ["exit:executed:regs:mem"] — exit
    code, dynamic instruction count, architectural register checksum,
    and memory checksum after the run. The naive backend must
    reproduce the manifest's recorded signature; the optimized
    backends must reproduce the naive run's. [disesim conformance]
    drives this module, writes the per-cell CSV report, and exits
    non-zero on any failing cell. It is a correctness gate only:
    performance is measured in [perfbench/]. *)

type vector = {
  name : string;
  program : string;  (** [.s] path relative to the suite directory *)
  productions : string option;  (** [.dise] path, likewise *)
  drs : (int * int) list;  (** dedicated-register init, [(n, value)] *)
  max_steps : int;
  signature : string;  (** expected; [""] until [--update] records it *)
}

type cell = {
  vector : string;
  backend : string;
  pass : bool;
  signature : string;  (** [""] when the run failed *)
  expected : string;
  steps : int;
  expansions : int;
  error : string option;  (** runtime/expansion error, if any *)
}

type report = {
  cells : cell list;  (** vector x backend, manifest order *)
  vectors : int;
  passed : int;  (** cells with [pass = true] *)
}

val backends : string list
(** [["naive"; "engine-memo"; "engine-jit"]]. *)

val default_dir : string
(** ["test/arch"]. *)

val load_suite : dir:string -> (vector list, Dise_isa.Diag.t) result
(** Parse [dir]/manifest.json. Errors are [Diag.Parse] (malformed
    manifest) or [Diag.Cache] (unreadable file). *)

val run_vector : dir:string -> vector -> cell list
(** Run one vector on every backend (fresh machines; the naive run
    first, its signature becoming the optimized backends' [expected]
    when it succeeds). Source-level failures (an unreadable file, or
    anything {!Dise_core.Lang.load} rejects: a syntax error, an
    undefined or duplicate label) yield one failing cell per backend
    carrying the message. *)

val run_suite : dir:string -> vector list -> report
(** Run every vector on every backend. *)

val update_signatures :
  dir:string -> vector list -> (vector list, Dise_isa.Diag.t) result
(** Recompute every vector's signature from a fresh naive run —
    the authoring path for new vectors ([disesim conformance
    --update]). Fails on the first vector whose naive run fails. *)

val save_manifest : dir:string -> vector list -> unit
(** Rewrite [dir]/manifest.json (pretty-printed, stable order). *)

val csv_of_report : report -> string
(** Header [vector,backend,pass,signature,expected,steps,expansions,
    error] then one row per cell. *)
