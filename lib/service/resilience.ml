module Metrics = Dise_telemetry.Metrics

exception Deadline_exceeded

let retries = Metrics.Counter.make "retries"
let heartbeat_misses = Metrics.Counter.make "heartbeat_misses"

(* --- per-worker health state machine ------------------------------------ *)

(* Heartbeat bookkeeping for one supervised worker. The coordinator
   owns the transport (ping/pong frames over the worker pipes); this
   module only decides what the evidence means. The clock is
   injectable so every transition is unit-testable without sleeping.

   Evidence feeding the machine:
   - [ping_sent] / [pong]: each unanswered ping is a miss; [pong]
     clears the run. [dead_misses] consecutive misses make the worker
     Dead.
   - [force_dead ~reason]: terminal — the respawn cap, or the
     supervisor's own decision. Dead is absorbing; no pong revives a
     worker the tier has already failed over. *)
module Health = struct
  type state = Healthy | Dead

  let state_name = function Healthy -> "healthy" | Dead -> "dead"

  type t = {
    now : unit -> float;
    interval : float;
    dead_misses : int;
    mutable last_ping : float;  (* when the newest ping left *)
    mutable misses : int;       (* consecutive pings without a pong *)
    mutable awaiting : bool;    (* a ping is outstanding *)
    mutable dead : string option;  (* forced-Dead reason *)
  }

  let create ?(now = Unix.gettimeofday) ~interval_s ~dead_misses () =
    {
      now;
      interval = Float.max 0.001 interval_s;
      dead_misses = max 2 dead_misses;
      last_ping = neg_infinity;
      misses = 0;
      awaiting = false;
      dead = None;
    }

  (* Dead is terminal however it was reached — by decree or by miss
     count. A late pong from a worker already declared dead must not
     resurrect it: the coordinator has by then failed it over. *)
  let is_dead t = t.dead <> None || t.misses >= t.dead_misses

  (* Time to send the next ping? Also the point where the previous
     ping, still unanswered after a full interval, becomes a miss. *)
  let due t =
    (not (is_dead t)) && t.now () -. t.last_ping >= t.interval

  let ping_sent t =
    if t.awaiting then begin
      t.misses <- t.misses + 1;
      Metrics.Counter.incr heartbeat_misses
    end;
    t.awaiting <- true;
    t.last_ping <- t.now ()

  let pong t =
    if not (is_dead t) then begin
      t.awaiting <- false;
      t.misses <- 0
    end

  let force_dead t ~reason =
    if t.dead = None then t.dead <- Some reason

  let misses t = t.misses
  let state t = if is_dead t then Dead else Healthy

  (* Why the worker is Dead; [None] while it is Healthy. *)
  let reason t =
    match t.dead with
    | Some r -> Some r
    | None ->
      if t.misses >= t.dead_misses then
        Some (Printf.sprintf "%d consecutive heartbeat misses" t.misses)
      else None
end

(* --- bounded retry with exponential backoff + jitter -------------------- *)

(* Jitter needs no determinism; a per-domain PRNG avoids both locking
   and correlated sleep schedules across workers. *)
let jitter_key : Random.State.t Domain.DLS.key =
  Domain.DLS.new_key Random.State.make_self_init

let with_retries ?(attempts = 3) ?(base_delay_s = 0.002)
    ?(max_delay_s = 0.100) ~transient f =
  let attempts = max 1 attempts in
  let rec go n =
    match f () with
    | v -> v
    | exception e when n < attempts && transient e ->
      Metrics.Counter.incr retries;
      let cap = Float.min max_delay_s (base_delay_s *. (2. ** float_of_int (n - 1))) in
      let delay = Random.State.float (Domain.DLS.get jitter_key) cap in
      Unix.sleepf delay;
      go (n + 1)
  in
  go 1
