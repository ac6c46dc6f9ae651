(** A single-flight memo table that worker domains may share (cells
    run in parallel, see [Dise_service.Pool]).

    A key is claimed before its (deterministic but expensive)
    computation runs outside the table's lock; concurrent callers for
    the same key wait for the claimant instead of duplicating the
    work, and every caller shares the one physically-identical value,
    exactly as the serial path would produce. A computation that
    raises drops its claim, so a later caller retries. Each table has
    its own lock, so a computation may use another table; it must not
    claim a key of its own table. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t

val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v

val clear : ('k, 'v) t -> unit
