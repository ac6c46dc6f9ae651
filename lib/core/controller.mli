(** The DISE controller: interface between the engine's PT/RT and the
    rest of the system.

    The controller virtualizes the PT and RT — treating them as caches
    over the in-memory production set — and services their misses the
    way the paper costs them: a pipeline flush plus a fixed stall
    (30 cycles for a simple fill; 150 cycles when the fill must first
    run replacement-sequence {e composition}, as in the
    decompression+fault-isolation RT-miss handler of Section 3.3).

    The timing model calls {!on_fetch} for every application fetch and
    {!on_expansion} for every expansion start and adds the returned
    stall cycles. *)

type config = {
  pt_entries : int;       (** 32 in the paper's default *)
  pt_perfect : bool;
  rt_entries : int;       (** 2048 in the paper's default *)
  rt_assoc : int;
  rt_entries_per_block : int;
      (** replacement-instruction coalescing factor (Section 2.2): a
          block holds this many sequential RT entries, trading read
          ports for internal fragmentation *)
  rt_perfect : bool;
  miss_penalty : int;     (** simple PT/RT miss stall, 30 *)
  compose_penalty : int;  (** composing RT miss stall, 150 *)
  composing : bool;       (** RT fills run the composition routine *)
  context_switch_every : int;
      (** {!context_switch} after every this many instructions the
          timing model consumes, replacement ones included; 0: never. *)
}

val default_config : config
(** The paper's default: 32-entry PT, 2K-entry 2-way RT, 30/150 cycle
    stalls, no composition, no context switches. *)

val perfect_config : config
(** Perfect PT and RT: DISE is free. *)

type t

val create : config -> Prodset.t -> t

val config : t -> config

val on_fetch : t -> key:int -> int
(** Stall cycles charged at fetch of an instruction with the given
    opcode key (non-zero only on a PT miss). *)

val on_expansion : t -> rsid:int -> len:int -> int
(** Stall cycles charged when an expansion of [len] instructions
    begins (non-zero only on an RT miss). *)

val context_switch : t -> unit
(** Invalidate PT and RT residency (the pattern counter table is
    saved/restored as architectural state, so both structures fault
    their contents back in on demand after the switch). *)

type stats = {
  pt_accesses : int;
  pt_misses : int;
  rt_accesses : int;
  rt_misses : int;
  stall_cycles : int;
}

val stats : t -> stats
