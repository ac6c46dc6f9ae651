(** A bounded single-flight memo table that worker domains may share
    (cells run in parallel, see [Dise_service.Pool]).

    A key is claimed before its (deterministic but expensive)
    computation runs outside the table's lock; concurrent callers for
    the same key wait for the claimant instead of duplicating the
    work, and every caller shares the one physically-identical value,
    exactly as the serial path would produce. A computation that
    raises drops its claim, so a later caller retries. Each table has
    its own lock, so a computation may use another table; it must not
    claim a key of its own table.

    A table holds at most [capacity] keys: a claim that finds it full
    first empties it of every computed value (claims still in flight
    stay). A long-lived process therefore keeps a bounded table, and a
    working set under the capacity never loses a value. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** An empty table holding at most [capacity] (at least 1) keys. *)

val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v

val mem : ('k, 'v) t -> 'k -> bool
(** The key's value is held or being computed. *)

val length : ('k, 'v) t -> int
(** Keys held or being computed. *)

val clear : ('k, 'v) t -> unit
