(** Pattern table occupancy model with the paper's pattern-counter
    virtualization.

    The PT is a small fully-associative structure holding the
    {e resident} patterns; the full (virtual) production set lives in
    memory. Because a missing pattern is indistinguishable from a
    non-match, misses are detected through a {e pattern counter table}:
    a per-opcode count of active patterns compared against a per-opcode
    count of resident patterns. A fetched instance of an opcode whose
    counters differ triggers a PT miss and a fill of {e all} patterns
    for that opcode (evicting least-recently-used opcodes' patterns as
    needed).

    This module models occupancy and miss events only; matching is the
    engine's job. *)

type t

val create : capacity:int -> Prodset.t -> t
(** [capacity] in pattern entries (the paper's default is 32). *)

val access : t -> key:int -> [ `Hit | `Miss of int ]
(** Record a fetch of an instruction with the given opcode dispatch
    key. [`Miss n] means the pattern-counter table flagged a miss and
    [n] patterns were (re)loaded. Opcodes with no active patterns
    always hit (counters agree at zero). *)

val invalidate : t -> unit
(** Drop residency (context switch): the pattern counter table is
    architectural and survives, so subsequent fetches of active opcodes
    fault their patterns back in. *)

val resident_patterns : t -> int
val accesses : t -> int
val misses : t -> int
