(** Trace-driven superscalar timing model.

    Consumes the dynamic (post-DISE) instruction stream produced by the
    functional machine and computes per-instruction timestamps through
    a classic one-pass scoreboard approximation of an out-of-order
    core:

    - fetch: [width] instructions per cycle, a taken branch ends the
      group; application fetches access the I-cache (replacement
      instructions are fed by the RT and do not); I-cache misses stall
      fetch for the L2/memory latency;
    - DISE: PT/RT miss stalls from the {!Dise_core.Controller} are
      charged at fetch, as is the optional one-cycle stall per
      expansion; the extra-stage option deepens every redirect;
    - dispatch: bounded by ROB occupancy (an instruction cannot enter
      until the instruction [rob_size] before it has retired);
    - issue: an instruction starts when its source registers are ready,
      its fetch has happened, and an issue slot is free ([width] issues
      per cycle); latencies are 1 cycle for ALU ops and
      correctly-predicted branches, [mul_latency] for multiplies, and
      D-cache-determined latency for loads;
    - control: conditional/indirect application branches are predicted
      (gshare/BTB/RAS); non-trigger replacement branches are treated as
      predicted not-taken and taken DISE-internal branches as
      mispredictions, per Section 2.2; every redirect restarts fetch
      [depth] cycles after the branch resolves;
    - retire: in order, [width] per cycle.

    Absolute cycle counts are approximations; the harness reports
    execution times normalized to a baseline run, as the paper does.

    {2 Telemetry}

    Every simulated cycle is attributed to exactly one
    {!Dise_telemetry.Cpi_stack} bucket (see doc/observability.md for
    the bucket definitions and the attribution rules); {!finish}
    asserts that the buckets sum to the final cycle count. Optional
    sinks — a {!Dise_telemetry.Trace} Chrome-trace writer emitting one
    span per retired instruction and a {!Dise_telemetry.Profile}
    recording per-production and per-PC expansion activity — cost
    one [option] match per event and no allocation when absent. *)

type t

val create :
  ?controller:Dise_core.Controller.t ->
  ?trace:Dise_telemetry.Trace.t ->
  ?profile:Dise_telemetry.Profile.t ->
  Config.t ->
  t
(** Raises [Invalid_argument] when [width < 1] ({!Config.of_json} and
    the CLI reject such a width first). *)

val consume_raw : t -> Dise_machine.Machine.Raw.t -> unit
(** Account for one dynamic instruction: reads the machine's mutable
    record directly, and the instruction only through its pre-decoded
    descriptor ([Raw.desc], see {!Dise_isa.Desc}); only the trace sink
    rebuilds the instruction ([Raw.insn]). Without sinks it allocates nothing (test
    "pipeline allocation-free" in test/test_uarch.ml bounds a whole
    {!run} at one minor-heap word per instruction, one-time costs
    included). {!run} drives this via {!Dise_machine.Machine.run_raw};
    callers that interleave their own work call it from their own
    [run_raw] sink. *)

val finish : t -> Stats.t
(** Close the run and return the populated statistics (cycle count =
    retire time of the last instruction plus serializing stalls).
    Checks the CPI-stack invariant and closes the trace sink, if any.
    Idempotent. *)

val run :
  ?max_steps:int ->
  ?controller:Dise_core.Controller.t ->
  ?trace:Dise_telemetry.Trace.t ->
  ?profile:Dise_telemetry.Profile.t ->
  ?poll:(unit -> unit) ->
  ?record:Dise_machine.Tape.t ->
  Config.t ->
  Dise_machine.Machine.t ->
  Stats.t
(** Convenience driver: step the machine to completion, feeding every
    event through a fresh pipeline. A [controller] whose config sets
    [context_switch_every] is context-switched after every that many
    events, replacement instructions included.

    [poll] is a cooperative cancellation hook: when given, it is
    called once every ~2048 events and may abort the run by raising
    (the service layer raises [Resilience.Deadline_exceeded] from it
    to enforce per-job wall-clock budgets — OCaml domains cannot be
    cancelled from outside, so long simulations must poll). Without
    [poll] the event loop is unchanged.

    [record] also records the stream on the tape
    ({!Dise_machine.Tape.start} … {!Dise_machine.Tape.finish}); the
    statistics are the same either way, and the tape is
    {!Dise_machine.Tape.complete} only if its recording was not
    abandoned and the run returned. *)

val replay :
  ?controller:Dise_core.Controller.t ->
  ?poll:(unit -> unit) ->
  Config.t ->
  Dise_machine.Tape.t ->
  Stats.t
(** Feed a complete tape through a fresh pipeline: the statistics
    {!run} computes for the recorded stream under [Config.t] and
    [controller], JIT counters included (the recording machine's).
    No machine, engine or expander runs. [poll] and context switches
    as in {!run}. The one driver behind both is the same, so the two
    differ only in where [consume_raw]'s records come from. *)
