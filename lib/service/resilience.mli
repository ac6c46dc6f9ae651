(** Fault-tolerance primitives for the service layer.

    The paper's flagship ACF confines a module's memory faults so the
    rest of the application keeps running (PAPER.md §4); this module
    gives the {e service} the same discipline. It is deliberately
    low-level — no dependency on {!Request} or {!Server} — so every
    layer of the serve path can use it: per-job isolation and
    deadlines ({!Deadline_exceeded}), bounded retry with jitter
    ({!with_retries}) and worker health supervision ({!Health}). Fault
    injection is {!Chaos}'s. See doc/resilience.md for the full
    semantics.

    All state here is safe to touch from concurrent worker domains. *)

exception Deadline_exceeded
(** Raised by the cooperative deadline poll the simulator runs every
    few thousand events (see {!Dise_uarch.Pipeline.run}'s [?poll])
    when a job's wall-clock budget is exhausted. Mapped to
    {!Dise_isa.Diag.Timeout} by [Request.run_ext]. *)

(** Per-worker health state machine ([Healthy] / [Dead]) for tier
    supervision (doc/serve-tier.md, "Supervision and failover").

    The coordinator sends a heartbeat ping to every worker each
    [interval_s] and feeds the evidence in: {!ping_sent} when a ping
    leaves (an unanswered predecessor becomes a miss and bumps the
    [heartbeat_misses] metrics counter), {!pong} when the worker
    answers (clears the miss run). [dead_misses] consecutive misses
    make the worker [Dead]; {!force_dead} is the same verdict on other
    evidence (respawn cap exhausted). [Dead] is absorbing and triggers
    live failover. The clock is injectable so transitions are testable
    without sleeping. *)
module Health : sig
  type t
  type state = Healthy | Dead

  val state_name : state -> string
  (** ["healthy"] or ["dead"]. *)

  val create :
    ?now:(unit -> float) -> interval_s:float -> dead_misses:int -> unit -> t
  (** [dead_misses] clamps to >= 2, [interval_s] to >= 1 ms. *)

  val due : t -> bool
  (** Is it time to send the next ping? Always [false] once Dead. *)

  val ping_sent : t -> unit

  val pong : t -> unit
  (** An answered ping clears the miss run. A pong arriving once Dead
      is ignored: death is terminal however it was reached, so a late
      answer cannot resurrect a failed-over worker. *)

  val force_dead : t -> reason:string -> unit

  val misses : t -> int
  (** Consecutive unanswered pings. *)

  val state : t -> state

  val reason : t -> string option
  (** Why the worker is Dead ([None] while it is Healthy). *)
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
