(** Process-wide metrics registry: counters and log-bucketed latency
    histograms.

    Every number the system reports — resilience counters, JIT
    compile/hit counts, serve latencies — lives in this one registry so
    snapshots, deltas, and JSON serialization have a single source of
    truth. All mutation is domain-safe: counters and histogram cells
    are [Atomic.t]; metric {e creation} is serialized by a mutex.

    Instruments are registered by name; [make] is idempotent (the same
    name returns the same instrument), so modules can declare their
    instruments at top level without coordinating initialization order.
    Registering the same name as two different kinds raises
    [Invalid_argument].

    {b Cost.} Recording is unconditional: a counter update is one
    atomic operation, a histogram observation three atomic adds.
    Nothing is allocated on the recording path.

    {b Snapshot semantics.} All instruments are monotone, so a later
    snapshot minus an earlier one ({!delta}) is a valid snapshot of
    the interval between them — this is how [serve_summary] reports
    per-session numbers from process-lifetime instruments.

    This module has no dependencies (not even [Unix]); callers supply
    timestamps and convert to nanoseconds (or use
    {!Histogram.observe_s}). *)

module Counter : sig
  type t

  val make : string -> t
  (** Register (or fetch) the counter [name]. *)

  val incr : t -> unit
  val add : t -> int -> unit
  val get : t -> int
  val name : t -> string
end

module Histogram : sig
  (** Log-linear bucketing: values 0–7 get exact unit buckets; each
      subsequent power-of-two range is split into 8 equal sub-buckets,
      so the relative bucket width — and therefore the worst-case
      quantile-estimation error — is bounded by 1/8 (12.5%). Values are
      non-negative integers; latencies are recorded in nanoseconds by
      convention (suffix instrument names with [_ns]). *)

  type t

  (** Immutable view of a histogram: total observation [count], exact
      integer [sum] of all observed values, and the non-empty buckets
      as [(lo, hi, count)] with [lo] inclusive, [hi] exclusive,
      ascending in [lo]. *)
  type snapshot = {
    count : int;
    sum : int;
    buckets : (int * int * int) array;
  }

  val make : string -> t
  val name : t -> string

  val observe : t -> int -> unit
  (** Record one non-negative integer observation (negative values
      clamp to 0). *)

  val observe_s : t -> float -> unit
  (** Record a duration given in seconds, converted to nanoseconds. *)

  val count : t -> int
  val sum : t -> int

  val snapshot : t -> snapshot

  val delta : since:snapshot -> snapshot -> snapshot
  (** [delta ~since later] is the interval histogram: observations
      recorded after [since] was taken. [later] must come from the same
      histogram, later in time. *)

  val quantile : snapshot -> float -> int
  (** [quantile s q] estimates the [q]-quantile ([0 < q <= 1]) as the
      inclusive upper bound of the bucket holding the exact order
      statistic of rank [ceil (q * count)] — i.e. the estimate lies in
      the same bucket as the exact quantile, so it overshoots by less
      than one bucket width. Returns 0 for an empty snapshot. *)

  val invariant : snapshot -> (unit, string) result
  (** Exact-sum invariant: bucket counts add up to [count], and [sum]
      lies within the bounds implied by the bucket ranges. (May report
      a transient violation if the snapshot raced concurrent
      observers; single-threaded snapshots always satisfy it.) *)

  val bucket_index : int -> int
  (** Bucket index a value falls into (exposed for tests). *)

  val bucket_bounds : int -> int * int
  (** [(lo, hi)] of a bucket index, [lo] inclusive, [hi] exclusive. *)

  val to_json : snapshot -> Json.t
  (** [{"count", "sum", "p50", "p95", "p99", "buckets":[{"lo","hi","count"},…]}] *)

  val of_json : Json.t -> snapshot
  (** Inverse of {!to_json} over the owned members ([count], [sum],
      [buckets]; the serialized quantiles are derived and recomputed).
      Total: malformed input decodes to an empty snapshot. *)

  val merge : snapshot -> snapshot -> snapshot
  (** Bucket-wise sum — a valid snapshot of the union of both
      observation streams (all histograms share one global bucket
      layout). Quantiles of the merged snapshot aggregate the
      underlying populations exactly as if one histogram had observed
      them all. *)
end

(** Whole-registry snapshot, in instrument registration order. *)
type snapshot = {
  counters : (string * int) list;
  histograms : (string * Histogram.snapshot) list;
}

val snapshot : unit -> snapshot

val delta : since:snapshot -> snapshot -> snapshot
(** Pairwise {!Histogram.delta} / counter subtraction by name.
    Instruments registered after [since] was taken appear with their
    full value. *)

val to_json : snapshot -> Json.t
(** Serialize against [doc/schema/metrics.schema.json]:
    [{"counters":{…}, "histograms":{…}}]. *)

val of_json : Json.t -> snapshot
(** Inverse of {!to_json} (tolerant: unrecognized or malformed
    members decode to empty sections) — how the serve coordinator
    rebuilds each worker process's summary delta from the wire. *)

val merge : snapshot -> snapshot -> snapshot
(** Name-wise union: counters and histogram buckets are summed (both
    are monotone streams, so the merge is exact). Folding per-worker
    deltas with [merge] yields the tier-wide snapshot the merged
    [serve_summary] reports. *)

val find_counter : string -> Counter.t option

val reset_all : unit -> unit
(** Test-only: zero every instrument in the registry. *)
