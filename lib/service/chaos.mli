(** Deterministic chaos schedules: the serve tier's one fault injector.

    A schedule is a JSON document pairing a seed with a list of
    events, each triggered by the running count of client requests
    the coordinator has admitted:

    {v
    {"record": "chaos_schedule",
     "seed": 42,
     "events": [
       {"after": 40, "action": "kill",    "shard": 2, "permanent": true},
       {"after": 10, "action": "stall",   "shard": 1, "ms": 500},
       {"after": 20, "action": "torn",    "shard": 0},
       {"after": 15, "action": "drop_ping", "shard": 1},
       {"after": 2,  "action": "raise"},
       {"after": 3,  "action": "sleep",   "ms": 2000}
     ]}
    v}

    Worker actions name a [shard]; job actions ([raise], [sleep])
    name none and hit the request whose admission fires them. Every
    unspecified knob an action needs (the byte to cut a torn frame
    at) is drawn from the seed, in file order, so a schedule file
    replays {e identically} on every run — chaos runs are
    reproducible by construction, and a failing run's schedule is its
    own repro artifact. doc/schema/chaos_schedule.schema.json is the
    published form. *)

(** What {!Coordinator.run}'s [?chaos] hook executes:

    - [Kill] — SIGKILL the shard's process; [permanent] first
      exhausts its respawn cap, so the crash triggers failover instead
      of a respawn;
    - [Stall] — the worker wedges its frame loop for [ms]
      milliseconds (a gray failure: alive, not progressing, not
      ponging);
    - [Torn] — the worker emits the first [cut] bytes of a frame and
      dies mid-write, leaving a torn tail on the pipe;
    - [Drop_ping] — lose the shard's next heartbeat in transit (a
      guaranteed miss);
    - [Raise] — the job raises {!Injected} before it runs, which
      must surface as one in-order [internal] response;
    - [Sleep] — the job stalls [ms] milliseconds before it runs,
      burning its deadline (the way a chaos test overruns a deadline
      without simulating a huge workload).

    A job action travels in the job's frame, so every leg of the
    request (after a respawn or a failover) carries it again. *)
type action =
  | Kill of { shard : int; permanent : bool }
  | Stall of { shard : int; ms : int }
  | Torn of { shard : int; cut : int }
  | Drop_ping of { shard : int }
  | Raise
  | Sleep of { ms : int }

exception Injected

type t

val of_json : Dise_telemetry.Json.t -> (t, Dise_isa.Diag.t) result
(** Decode and validate one schedule document. Unknown actions
    (retired ones included) and members, negative counts, missing
    members, a job action that names a shard and a [sleep] or [stall]
    without a positive [ms] are rejected with a parse diagnostic
    naming the offending event. *)

val of_file : string -> (t, Dise_isa.Diag.t) result

val fire : t -> requests:int -> action list
(** The coordinator-facing executor; pass [fire t] as
    {!Coordinator.run}'s [?chaos]. Stateful: each event fires exactly
    once, when [requests] first reaches (or passes) its [after]
    count, in file order. *)

val inject : action -> unit
(** Apply a job action in the worker, just before the job runs:
    [Raise] raises {!Injected}, [Sleep] sleeps. Worker actions are
    the coordinator's and do nothing here. *)
