(** One serializable record for every serve-tier knob.

    This is the serve API's single configuration surface: the
    coordinator ([disesim serve]) and the worker processes it spawns
    consume the same {!t}. It replaces the optional-argument sprawl
    that used to live on [Server.opts]: a config is plain data with a
    canonical JSON
    encoding, so it can be loaded from a file ([--config FILE]),
    shipped to worker processes through their spawn environment, and
    schema-validated (doc/schema/serve_config.schema.json).

    Precedence, lowest to highest: {!default}, a config file
    ({!of_file}), explicit flags ({!override}). The CLI composes all
    three; library callers usually want {!of_flags}. *)

type t = {
  workers : int;
      (** Worker {e processes} behind the coordinator (see
          {!Coordinator}), >= 1; default 1 *)
  jobs : int;  (** worker domains per process, as {!Pool.run}'s [jobs] *)
  queue : int;
      (** max lines of one connection (stdin, or one socket client) in
          flight at once — the per-connection window; further lines
          wait in the connection's buffer, and further bytes in the
          kernel. >= 1; defaults to [4 * jobs] *)
  deadline_ms : int option;
      (** per-job wall-clock budget; [None] (default): unbounded *)
  shed_above : int option;
      (** admission high-water mark in [dyn_target] units; [None]
          (default): never shed *)
  tenant_quota : int option;
      (** max in-flight jobs per tenant (the envelope's ["tenant"]
          member; absent = the anonymous tenant); excess jobs are
          answered ["overloaded"]. [None] (default): no quota *)
  manifest : string option;  (** JSONL telemetry manifest path *)
  heartbeat_ms : int;
      (** coordinator-to-worker heartbeat interval; [0] disables
          supervision pings entirely (default 500) *)
  suspect_misses : int;
      (** consecutive missed heartbeats before a worker is [Suspect]
          and its in-flight requests are hedged (default 3, >= 1) *)
  dead_misses : int;
      (** consecutive missed heartbeats before a worker is declared
          [Dead] and failed over out of the ring (default 20, >= 2) *)
  hedge_p95x : float;
      (** gray-failure latency hedge: a request outliving
          [hedge_p95x] times the tier's request p95 marks its worker
          [Suspect]; [0] disables latency hedging (default 8.0) *)
  respawn_cap : int;
      (** respawns granted to one shard before its worker is declared
          [Dead] and failed over (default 100; [0] = first crash is
          terminal) *)
}

val default : unit -> t
(** [jobs] from {!Pool.default_jobs}, [queue = 4 * jobs], everything
    else off / at its documented default. *)

val of_flags :
  ?workers:int ->
  ?jobs:int ->
  ?queue:int ->
  ?deadline_ms:int ->
  ?shed_above:int ->
  ?tenant_quota:int ->
  ?manifest:string ->
  ?heartbeat_ms:int ->
  ?suspect_misses:int ->
  ?dead_misses:int ->
  ?hedge_p95x:float ->
  ?respawn_cap:int ->
  unit ->
  t
(** Build a config from optional flag values — the mechanical
    migration shim for former [Server.opts] callers. Unset flags take
    the {!default}; out-of-range values are clamped ([workers]/[jobs]/
    [queue] >= 1). *)

val override :
  t ->
  ?workers:int ->
  ?jobs:int ->
  ?queue:int ->
  ?deadline_ms:int ->
  ?shed_above:int ->
  ?tenant_quota:int ->
  ?manifest:string ->
  ?heartbeat_ms:int ->
  ?suspect_misses:int ->
  ?dead_misses:int ->
  ?hedge_p95x:float ->
  ?respawn_cap:int ->
  unit ->
  t
(** [override cfg ...flags] replaces exactly the members a flag was
    given for — how [--config FILE] composes with explicit flags.
    Giving [?jobs] without [?queue] re-derives [queue = 4 * jobs]. *)

val to_json : t -> Dise_telemetry.Json.t
(** Canonical encoding: fixed member order, [None] members omitted.
    Validates against doc/schema/serve_config.schema.json. *)

val of_json : Dise_telemetry.Json.t -> (t, Dise_isa.Diag.t) result
(** Total over arbitrary JSON: missing members take their defaults,
    explicit [null] clears an optional member, unknown members are
    {e rejected} (a config file typo must not silently disable a
    knob). [of_json (to_json c) = Ok c] for any normalized [c]. *)

val of_file : string -> (t, Dise_isa.Diag.t) result
(** Read and decode one JSON config file. *)
