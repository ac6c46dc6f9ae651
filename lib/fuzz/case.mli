(** Fuzz cases: the serializable seed of one differential run.

    A case is a handful of integers and flags — everything else (the
    program, the production set, the machine initialization) is
    derived deterministically from it, which is what makes shrinking
    meaningful (shrink the knobs, re-derive) and repro artifacts tiny
    (a case round-trips through JSON, and {!build} regenerates the
    exact run).

    The knobs are deliberately adversarial: boundary-value immediates
    exercise the 16-bit encode/sign boundaries, [Compressed] cases
    produce codeword-heavy images (with 2-byte codewords under the
    dedicated schemes), small [idiom_pool]s produce dense repetitive
    code (many expansions per static instruction, stressing the
    memo). *)

type mode =
  | Plain  (** random transparent productions over the generated program *)
  | Mfi of Dise_acf.Mfi.variant  (** the paper's fault-isolation ACF *)
  | Compressed of int
      (** compress under [List.nth Compress.fig7_schemes i] and run the
          decompression production set *)

type t = {
  seed : int;           (** drives codegen and production generation *)
  dyn_target : int;     (** approximate dynamic length of one run *)
  hot_kb : int;
  cold_kb : int;
  data_kb : int;
  idiom_pool : int;
  boundary_imms : bool;
      (** rewrite some scratch-destination ALU immediates to 16-bit
          boundary values (±32768-adjacent, sign-flip points), and
          plant register-file edges: writes to the zero register and
          returns through [jalr] that link a scratch register *)
  n_prods : int;        (** [Plain] mode: random productions to generate *)
  mode : mode;
}

val generate : Dise_workload.Rng.t -> t
(** Draw a random case. Mode weights favour [Plain] (the widest
    production variety) but keep both image shapes (4-byte
    instructions only, and 2-byte codewords) and the MFI productions
    in steady rotation. *)

val scheme_of : int -> Dise_acf.Compress.scheme
(** Resolve a [Compressed] scheme index (modulo the Figure 7 list). *)

(** Everything one differential run needs, derived from a case. *)
type built = {
  case : t;
  program : Dise_isa.Program.t;
      (** the program the expander sides execute (compressed program in
          [Compressed] mode) *)
  image : Dise_isa.Program.Image.t;  (** its layout *)
  reference : Dise_isa.Program.Image.t;
      (** expander-free equivalent for the transparency check: the
          original uncompressed layout ([==] [image] outside
          [Compressed] mode) *)
  prodset : Dise_core.Prodset.t;
  init : Dise_machine.Machine.t -> unit;
      (** dedicated-register setup (MFI segment ids; no-op otherwise) *)
}

val build : t -> built
(** Deterministic: equal cases build byte-identical runs. *)

val to_json : t -> Dise_telemetry.Json.t
val of_json : Dise_telemetry.Json.t -> (t, Dise_isa.Diag.t) result
val summary : t -> string
(** One-line rendering for logs and reports. *)
