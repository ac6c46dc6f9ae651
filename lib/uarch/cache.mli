(** Generic set-associative cache model (LRU), used for the I-cache,
    D-cache, and the unified L2. Tracks line presence only — the
    timing model charges latencies from hit/miss outcomes. *)

type t

val check_geometry :
  size_bytes:int -> assoc:int -> line_bytes:int -> (unit, string) result
(** [Ok ()] when sizes are positive, [size_bytes] is divisible by
    [assoc * line_bytes], and both the line size and the resulting set
    count are powers of two (so indexing is mask-and-shift on the hot
    path); otherwise [Error] names the first rule broken, for the
    caller to prefix with the field or option it came from. *)

val create : size_bytes:int -> assoc:int -> line_bytes:int -> t
(** Raises [Invalid_argument] when {!check_geometry} rejects the
    geometry. *)

val access : t -> int -> [ `Hit | `Miss ]
(** Touch the line containing the byte address. On a miss the line
    replaces the set's first invalid way, else its first least recently
    used way. A repeat touch of the line this cache touched last is
    answered without walking the set: it is counted as an access and a
    hit, but neither re-stamps the line nor advances the LRU clock.
    That line already carries the newest stamp of the whole cache, so
    no relative LRU order and no later victim changes (property "cache
    hit/miss sequence matches an LRU model" in test/test_props.ml).
    Allocates nothing ("cache probe" in test/test_uarch.ml). *)

val probe : t -> int -> bool
(** Presence check without LRU update; allocates nothing. *)

val line_bytes : t -> int

val line_of : t -> int -> int
(** Line number of a byte address ([addr lsr line_shift]) — division
    avoided on the per-fetch path. *)

val size_bytes : t -> int
val accesses : t -> int
val misses : t -> int
val invalidate : t -> unit
(** Empty every way; the next access of any line misses, the line
    touched last included. *)
