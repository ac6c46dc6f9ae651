(** Per-production and per-PC expansion profiles.

    A profile attaches to one run: the timing model records every
    expansion (keyed by replacement-sequence id and by trigger PC) and
    every injected replacement instruction; the controller records RT
    hits and misses per production. Collection costs a hashtable
    update per expansion event, so profiles are opt-in — a run without
    one pays nothing. *)

type entry = {
  mutable expansions : int;   (** dynamic expansions of this sequence *)
  mutable rep_instrs : int;   (** replacement instructions injected *)
  mutable rt_hits : int;
  mutable rt_misses : int;
}

type t

val create : unit -> t

val on_expansion : t -> rsid:int -> pc:int -> unit
(** Record an expansion of sequence [rsid] triggered at [pc]. *)

val on_fetch : t -> pc:int -> unit
(** Record one application fetch at [pc]. The timing model calls this
    for every [fetched_new_pc] instruction, so a profiled run yields a
    complete dynamic execution histogram of the static code — the raw
    material [disesim synthesize] mines candidate productions from. *)

val on_rep_instr : t -> rsid:int -> unit
(** Record one injected replacement instruction. *)

val on_rt : t -> rsid:int -> miss:bool -> unit
(** Record an RT lookup outcome for [rsid]. *)

val total_expansions : t -> int
(** Sum of per-production expansion counts. *)

val productions : t -> (int * entry) list
(** [(rsid, entry)] pairs sorted by descending expansion count. *)

val top_pcs : ?n:int -> t -> (int * int) list
(** The [n] (default 10) hottest trigger PCs as [(pc, expansions)],
    descending; ties broken by ascending PC so output is
    deterministic. *)

val total_fetches : t -> int
(** Sum of per-PC application-fetch counts. *)

val fetch_count : t -> pc:int -> int
(** Fetch count of one PC (0 when never fetched). *)

val to_json : ?top:int -> t -> Json.t
(** [{ "productions": [...], "hot_pcs": [...] }], productions sorted
    by descending expansions, hot PCs capped at [top] (default 10). *)

val pp : Format.formatter -> t -> unit
(** Per-production table followed by the hot-PC table. *)
