(** Consistent-hash routing of result-cache keys to worker shards.

    The coordinator routes every job by its {!Request.key} — the
    content-addressed result-cache key — so identical requests always
    land on the same worker, making each worker's in-memory state
    authoritative for its slice of the keyspace.
    Consistent hashing (a ring of md5 points, {!default_vnodes}
    virtual nodes per worker) keeps shard sizes balanced and keyspace
    movement minimal when the worker count changes: growing from [N]
    to [N+1] workers re-routes only about [1/(N+1)] of all keys. *)

type t

val default_vnodes : int
(** Virtual nodes per worker (64). *)

val ring : workers:int -> ?vnodes:int -> unit -> t
(** Build the ring for [workers] shards (numbered [0 .. workers-1]).
    Raises [Invalid_argument] if either count is < 1. Deterministic:
    the same arguments always build the same ring. *)

val workers : t -> int

val alive : t -> int list
(** The worker ids that still own points on the ring, ascending. A
    fresh ring lists [0 .. workers-1]; {!remove} shrinks the list. *)

val remove : t -> int -> t
(** [remove t w] shrinks the ring: every vnode [w] owned disappears
    and its keys pass to whichever survivor owns the next point
    clockwise. Survivors' points are untouched, so removal moves
    {e only} the dead worker's keys (the dual of the grow-only
    movement property). Raises [Invalid_argument] when [w] is the
    last worker on the ring. Removing a worker not on the ring is the
    identity. *)

val route : t -> string -> int
(** [route t key] is the shard that owns [key]. Total and pure —
    every string routes somewhere, and equal keys route equally. *)

val next : t -> string -> avoid:int -> int option
(** [next t key ~avoid] is the hedge target for [key]: the first
    worker clockwise after [key]'s position that is not [avoid] —
    exactly the worker that inherits [key] if [avoid] is
    {!remove}d. [None] when [avoid] is the only worker. *)
