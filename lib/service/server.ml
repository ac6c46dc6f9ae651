module Json = Dise_telemetry.Json
module Metrics = Dise_telemetry.Metrics
module Stats = Dise_uarch.Stats
module Diag = Dise_isa.Diag

(* Per-request latency, split at the worker-pickup instant: queue wait
   is admission -> pickup, and serve_request_ns is admission -> response
   ready. Recorded in the worker process that runs the job (the
   coordinator merges every worker's deltas into its serve_summary);
   the pickup -> ready part is the worker's serve_execute_ns. *)
let h_queue_wait = Metrics.Histogram.make "serve_queue_wait_ns"
let h_request = Metrics.Histogram.make "serve_request_ns"

(* Jobs answered [internal] after an escape. *)
let isolated = Metrics.Counter.make "isolated"

let protocol_version = 1

(* Per-tier stop signalling. Each front end polls its own flag, so
   several tiers (a test harness runs many) can coexist in one process
   without clobbering each other. *)
module Stop = struct
  type t = bool Atomic.t

  let create () = Atomic.make false
  let signal t = Atomic.set t true
  let signalled t = Atomic.get t
  let reset t = Atomic.set t false
end

type summary = {
  served : int;
  errors : int;
  cache_hits : int;
  timeouts : int;
  shed : int;
  isolated : int;
}

(* One input line, after the sequential parse step. Parse failures
   keep their slot ([req = Error _]) so responses stay in input
   order. [version] is the wire-envelope version the line spoke (0 =
   unversioned legacy, 1 = current); [tenant] feeds admission
   quotas. *)
type parsed = {
  id : Json.t;
  version : int;
  tenant : string option;
  req : (Request.t, Diag.t) result;
}

(* Any defect in a single line — unparseable JSON, deep nesting
   blowing the parser's stack, a decoder bug surfacing as an
   unexpected exception — must stay confined to that line's response
   slot; only I/O errors on the stream itself may escape. *)
let parse_job ~lineno line =
  let bad ?(id = Json.Null) ?(version = 0) ?tenant msg =
    {
      id;
      version;
      tenant;
      req = Error (Diag.Parse { source = "serve"; line = lineno; msg });
    }
  in
  match Json.parse line with
  | exception Json.Parse_error msg -> bad msg
  | exception Stack_overflow -> bad "JSON nesting too deep"
  | doc -> (
    let id = Option.value (Json.member "id" doc) ~default:Json.Null in
    match Json.member "v" doc with
    | Some v when v <> Json.Int protocol_version ->
      bad ~id
        (Printf.sprintf
           "unsupported protocol version %s (this server speaks v%d; \
            unversioned lines are accepted as v0)"
           (Json.to_string v) protocol_version)
    | v_member -> (
      let version = if v_member = None then 0 else protocol_version in
      match Json.member "tenant" doc with
      | Some (Json.String _ | Json.Null) | None -> (
        let tenant =
          match Json.member "tenant" doc with
          | Some (Json.String t) -> Some t
          | _ -> None
        in
        match Request.of_json doc with
        | Ok req -> { id; version; tenant; req = Ok req }
        | Error d -> { id; version; tenant; req = Error d }
        | exception e ->
          bad ~id ~version ?tenant
            ("malformed request: " ^ Printexc.to_string e))
      | Some _ -> bad ~id ~version "tenant must be a string"))

let error_response id d =
  Json.Obj
    [
      ("v", Json.Int protocol_version);
      ("id", id);
      ("ok", Json.Bool false);
      ( "error",
        Json.Obj
          [
            ("kind", Json.String (Diag.category d));
            ("message", Json.String (Diag.to_string d));
          ] );
    ]

let ok_response id req ~cache_hit ~wall_s stats =
  Json.Obj
    [
      ("v", Json.Int protocol_version);
      ("id", id);
      ("ok", Json.Bool true);
      ("key", Json.String (Request.key req));
      ("cache_hit", Json.Bool cache_hit);
      ("wall_s", Json.Float wall_s);
      ("stats", Stats.to_json stats);
    ]

(* The per-job budget starts when a worker picks the job up, and the
   chaos stall (if any) burns it — that is exactly how the fault
   matrix forces a deterministic timeout without simulating a huge
   workload. A chaos [raise] escapes to the pool on purpose: it
   exercises the [internal] isolation path. *)
let run_parsed ~chaos ~deadline_ms ~enqueued_at p =
  match p.req with
  | Error d -> (error_response p.id d, `Error (Diag.category d))
  | Ok req -> (
    let t0 = Unix.gettimeofday () in
    Metrics.Histogram.observe_s h_queue_wait (t0 -. enqueued_at);
    let finish resp tag =
      Metrics.Histogram.observe_s h_request (Unix.gettimeofday () -. enqueued_at);
      (resp, tag)
    in
    let deadline =
      Option.map (fun ms -> t0 +. (float_of_int ms /. 1000.)) deadline_ms
    in
    Resilience.Chaos.apply chaos ~id:p.id;
    match Request.run_ext ?deadline req with
    | Ok (stats, cache_hit) ->
      let wall_s = Unix.gettimeofday () -. t0 in
      finish
        (ok_response p.id req ~cache_hit ~wall_s stats)
        (if cache_hit then `Hit else `Fresh)
    | Error d -> finish (error_response p.id d) (`Error (Diag.category d)))

(* A job the pool isolated: an exception [run_ext] does not recognize
   (chaos injection, a plain bug) confined to its slot. The response
   says [internal]; the backtrace goes to stderr, where operators
   look for bugs — it must not leak into the protocol. *)
let isolated_response id e bt =
  Format.eprintf "disesim serve: job isolated after unexpected exception: %s@.%s@."
    (Printexc.to_string e)
    (Printexc.raw_backtrace_to_string bt);
  Metrics.Counter.incr isolated;
  ( error_response id
      (Diag.Internal
         ("job failed with unexpected exception: " ^ Printexc.to_string e)),
    `Error "internal" )

let max_line_bytes = 1 lsl 20

let oversized_line ~lineno =
  {
    id = Json.Null;
    version = 0;
    tenant = None;
    req =
      Error
        (Diag.Parse
           {
             source = "serve";
             line = lineno;
             msg =
               Printf.sprintf "input line %d exceeds %d bytes" lineno
                 max_line_bytes;
           });
  }

let pp_summary ppf s =
  Format.fprintf ppf "served %d job%s (%d error%s, %d cache hit%s)" s.served
    (if s.served = 1 then "" else "s")
    s.errors
    (if s.errors = 1 then "" else "s")
    s.cache_hits
    (if s.cache_hits = 1 then "" else "s");
  if s.timeouts > 0 || s.shed > 0 || s.isolated > 0 then
    Format.fprintf ppf " [%d timed out, %d shed, %d isolated]" s.timeouts
      s.shed s.isolated

(* Does a live server answer on [path]? Distinguishes "another
   instance is running" (refuse to start — stealing its socket would
   silently split the service) from a stale socket left by a crash
   (safe to remove). *)
let socket_live path =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> false
  | probe ->
    Fun.protect
      ~finally:(fun () -> try Unix.close probe with Unix.Unix_error _ -> ())
      (fun () ->
        match Unix.connect probe (Unix.ADDR_UNIX path) with
        | () -> true
        | exception Unix.Unix_error _ -> false)

(* Claim [path] for a fresh listener: refuse if a live server answers,
   reclaim a stale file, bind and listen. *)
let listen_socket ~path =
  if Sys.file_exists path then
    if socket_live path then
      raise
        (Cache.Diag_error
           (Diag.Overloaded
              (Printf.sprintf
                 "socket %s is in use by a live server; refusing to start \
                  (stop the other instance or pick another path)"
                 path)))
    else (
      (* Stale socket from a crashed server: safe to reclaim. *)
      try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind sock (Unix.ADDR_UNIX path);
     Unix.listen sock 64
   with Unix.Unix_error (e, _, _) ->
     Unix.close sock;
     raise
       (Cache.Diag_error
          (Diag.Cache
             (Printf.sprintf "cannot listen on %s: %s" path
                (Unix.error_message e)))));
  sock
