(** Deterministic chaos schedules for the sharded serve tier.

    A schedule is a JSON document pairing a seed with a list of
    events, each triggered by the running count of client requests
    the coordinator has submitted:

    {v
    {"record": "chaos_schedule",
     "seed": 42,
     "events": [
       {"after": 40, "action": "kill",    "shard": 2, "permanent": true},
       {"after": 10, "action": "stall",   "shard": 1, "ms": 500},
       {"after": 20, "action": "torn",    "shard": 0},
       {"after": 15, "action": "drop_ping", "shard": 1},
       {"after": 12, "action": "suspect", "shard": 0}
     ]}
    v}

    Every unspecified knob an action needs (the byte to cut a torn
    frame at) is drawn from the seed, so a schedule file replays
    {e identically} on every run — chaos runs are reproducible by
    construction, and a failing run's schedule is its own repro
    artifact.

    Every action is handed to the coordinator through its [?chaos]
    hook ({!hook}) as the request count passes each event's
    [after]. *)

type action =
  | Kill of { shard : int; permanent : bool }
  | Stall of { shard : int; ms : int }
  | Torn of { shard : int }
  | Drop_ping of { shard : int }
  | Suspect of { shard : int }

type event = { after : int; action : action }

type t

val of_json : Dise_telemetry.Json.t -> (t, Dise_isa.Diag.t) result
(** Decode and validate one schedule document. Unknown actions,
    negative counts, and missing members are rejected with a parse
    diagnostic naming the offending event. *)

val of_file : string -> (t, Dise_isa.Diag.t) result

val to_json : t -> Dise_telemetry.Json.t
(** Canonical re-encoding (validates against
    doc/schema/chaos_schedule.schema.json). *)

val seed : t -> int

val events : t -> event list
(** In file order. *)

val hook : t -> requests:int -> Dise_service.Coordinator.chaos_action list
(** The coordinator-facing schedule executor. Stateful: each event
    fires exactly once, when [requests] first reaches (or passes) its
    [after] count; randomized knobs are drawn from the schedule seed
    in event order, so equal schedules yield equal action streams.
    Pass [hook t] as [?chaos] to {!Dise_service.Coordinator.run}. *)
