module Json = Dise_telemetry.Json
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
     clears the run. [suspect_misses] consecutive misses make the
     worker Suspect, [dead_misses] make it Dead.
   - [suspect ~reason]: external gray-failure evidence (a request
     outliving a multiple of the tier p95) forces Suspect until the
     next pong.
   - [force_dead ~reason]: terminal — the respawn cap, or the
     supervisor's own decision. Dead is absorbing; no pong revives a
     worker the tier has already failed over. *)
module Health = struct
  type state = Healthy | Suspect | Dead

  let state_name = function
    | Healthy -> "healthy"
    | Suspect -> "suspect"
    | Dead -> "dead"

  type t = {
    now : unit -> float;
    interval : float;
    suspect_misses : int;
    dead_misses : int;
    mutable last_ping : float;  (* when the newest ping left *)
    mutable misses : int;       (* consecutive pings without a pong *)
    mutable awaiting : bool;    (* a ping is outstanding *)
    mutable suspected : string option;  (* forced-Suspect reason *)
    mutable dead : string option;       (* forced-Dead reason *)
  }

  let create ?(now = Unix.gettimeofday) ~interval_s ~suspect_misses
      ~dead_misses () =
    {
      now;
      interval = Float.max 0.001 interval_s;
      suspect_misses = max 1 suspect_misses;
      dead_misses = max 2 dead_misses;
      last_ping = neg_infinity;
      misses = 0;
      awaiting = false;
      suspected = None;
      dead = None;
    }

  (* Time to send the next ping? Also the point where the previous
     ping, still unanswered after a full interval, becomes a miss. *)
  (* Dead is terminal however it was reached — by decree or by miss
     count. A late pong from a worker already declared dead must not
     resurrect it: the coordinator has by then failed it over. *)
  let is_dead t = t.dead <> None || t.misses >= t.dead_misses

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
      t.misses <- 0;
      t.suspected <- None
    end

  let suspect t ~reason = if t.dead = None then t.suspected <- Some reason

  let force_dead t ~reason =
    if t.dead = None then t.dead <- Some reason

  let misses t = t.misses

  let state t =
    match t.dead with
    | Some _ -> Dead
    | None ->
      if t.misses >= t.dead_misses then Dead
      else if t.misses >= t.suspect_misses || t.suspected <> None then Suspect
      else Healthy

  (* Why the worker is not Healthy; [None] when it is. *)
  let reason t =
    match t.dead with
    | Some r -> Some r
    | None ->
      if t.misses >= t.dead_misses then
        Some (Printf.sprintf "%d consecutive heartbeat misses" t.misses)
      else if t.misses >= t.suspect_misses then
        Some (Printf.sprintf "%d heartbeat misses" t.misses)
      else t.suspected
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

(* --- chaos: fault-injection directives ---------------------------------- *)

module Chaos = struct
  exception Injected of string

  type directive = Raise | Sleep of float
  type t = (int * directive) list

  let none = []

  (* "raise=ID,sleep=ID:MS" — malformed fragments are ignored (chaos
     instrumentation must never take the server down by itself). *)
  let parse spec =
    String.split_on_char ',' spec
    |> List.filter_map (fun frag ->
           match String.index_opt frag '=' with
           | None -> None
           | Some i -> (
             let key = String.sub frag 0 i in
             let v = String.sub frag (i + 1) (String.length frag - i - 1) in
             match key with
             | "raise" ->
               Option.map (fun id -> (id, Raise)) (int_of_string_opt v)
             | "sleep" -> (
               match String.index_opt v ':' with
               | None -> None
               | Some j -> (
                 let id = String.sub v 0 j in
                 let ms = String.sub v (j + 1) (String.length v - j - 1) in
                 match (int_of_string_opt id, int_of_string_opt ms) with
                 | Some id, Some ms when ms >= 0 ->
                   Some (id, Sleep (float_of_int ms /. 1000.))
                 | _ -> None))
             | _ -> None))

  let env_var = "DISESIM_SERVE_CHAOS"

  let of_env () =
    match Sys.getenv_opt env_var with
    | None | Some "" -> none
    | Some spec -> parse spec

  let apply t ~id =
    match id with
    | Json.Int id -> (
      match List.assoc_opt id t with
      | None -> ()
      | Some Raise ->
        raise (Injected (Printf.sprintf "chaos: injected fault for job %d" id))
      | Some (Sleep s) -> Unix.sleepf s)
    | _ -> ()
end
