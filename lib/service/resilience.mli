(** Fault-tolerance primitives for the service layer.

    The paper's flagship ACF confines a module's memory faults so the
    rest of the application keeps running (PAPER.md §4); this module
    gives the {e service} the same discipline. It is deliberately
    low-level — no dependency on {!Request} or {!Server} — so every
    layer of the serve path can use it: per-job isolation and
    deadlines ({!Deadline_exceeded}), bounded retry with jitter
    ({!with_retries}), worker health supervision ({!Health}), and
    fault-injection directives for chaos testing ({!Chaos}). See
    doc/resilience.md for the full semantics.

    All state here is safe to touch from concurrent worker domains. *)

exception Deadline_exceeded
(** Raised by the cooperative deadline poll the simulator runs every
    few thousand events (see {!Dise_uarch.Pipeline.run}'s [?poll])
    when a job's wall-clock budget is exhausted. Mapped to
    {!Dise_isa.Diag.Timeout} by [Request.run_ext]. *)

(** Per-worker health state machine ([Healthy] / [Suspect] / [Dead])
    for tier supervision (doc/serve-tier.md, "Supervision and
    failover").

    The coordinator sends a heartbeat ping to every worker each
    [interval_s] and feeds the evidence in: {!ping_sent} when a ping
    leaves (an unanswered predecessor becomes a miss and bumps the
    [heartbeat_misses] metrics counter), {!pong} when the worker answers
    (clears the miss run and any forced suspicion). [suspect_misses]
    consecutive misses make the worker [Suspect] — its in-flight
    requests are hedged to the next worker on the ring —
    [dead_misses] make it [Dead]. {!suspect} forces [Suspect] on
    external gray-failure evidence (a request outliving the
    configured multiple of the tier p95); {!force_dead} is terminal
    (respawn cap exhausted, or the supervisor's verdict): [Dead] is
    absorbing and triggers live failover. The clock is injectable so
    transitions are testable without sleeping. *)
module Health : sig
  type t
  type state = Healthy | Suspect | Dead

  val state_name : state -> string
  (** ["healthy"], ["suspect"], or ["dead"]. *)

  val create :
    ?now:(unit -> float) ->
    interval_s:float ->
    suspect_misses:int ->
    dead_misses:int ->
    unit ->
    t
  (** [suspect_misses] clamps to >= 1, [dead_misses] to >= 2,
      [interval_s] to >= 1 ms. *)

  val due : t -> bool
  (** Is it time to send the next ping? Always [false] once Dead. *)

  val ping_sent : t -> unit

  val pong : t -> unit
  (** An answered ping clears misses and any latency suspicion. A
      pong arriving once Dead is ignored: death is terminal however
      it was reached, so a late answer cannot resurrect a failed-over
      worker. *)

  val suspect : t -> reason:string -> unit
  val force_dead : t -> reason:string -> unit

  val misses : t -> int
  (** Consecutive unanswered pings. *)

  val state : t -> state

  val reason : t -> string option
  (** Why the worker is not Healthy ([None] when it is). *)
end

val with_retries :
  ?attempts:int ->
  ?base_delay_s:float ->
  ?max_delay_s:float ->
  transient:(exn -> bool) ->
  (unit -> 'a) ->
  'a
(** [with_retries ~transient f] runs [f], retrying up to [attempts]
    (default 3) total tries while [transient] says the exception is
    worth retrying, sleeping a full-jitter exponential backoff
    (uniform in [0, min(max_delay_s, base_delay_s * 2^(n-1))])
    between tries. Non-transient exceptions and the last failure
    propagate unchanged. Each retry bumps the [retries] metrics
    counter. *)

(** Fault-injection directives, read from the [DISESIM_SERVE_CHAOS]
    environment variable by the serve loop. Syntax:
    ["raise=ID"] (the job whose integer [id] is ID raises
    {!Chaos.Injected} before executing — it must surface as one
    in-order [internal] response) and ["sleep=ID:MS"] (the job stalls
    MS milliseconds first — the way chaos tests overrun a deadline
    without simulating a huge workload), comma-separated. Malformed
    fragments are ignored. Test/CI instrumentation only; with the
    variable unset the cost is one [getenv] per stream. *)
module Chaos : sig
  exception Injected of string

  type t

  val none : t
  val env_var : string
  val of_env : unit -> t
  val parse : string -> t
  val apply : t -> id:Dise_telemetry.Json.t -> unit
end
