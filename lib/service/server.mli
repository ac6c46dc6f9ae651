(** The serve tier's wire contract and per-job execution: the pieces
    the {!Coordinator} front end and its worker processes share.

    The front end ({!Coordinator}) reads one JSON request document per
    line — from stdin or from Unix-socket clients — parses it with
    {!parse_job}, admits it, and routes it to a worker process, which
    executes it with {!run_parsed}; responses go back out {e in input
    order}, one JSON document per line.

    {b Wire envelope (v1).} Beside the {!Request} document proper, an
    input line may carry three envelope members (see doc/service.md
    and doc/serve-tier.md):

    - ["id"] — any JSON value, echoed back verbatim so clients can
      correlate responses (which are in fact emitted in input order);
    - ["v"] — the protocol version. [1] is this dialect; an {e absent}
      ["v"] is the legacy v0 dialect and is accepted unchanged (v0
      carried no version or tenant members); any other value is
      answered with a ["parse"] error naming the supported version;
    - ["tenant"] — a string naming the tenant for admission quotas
      ([tenant_quota] in {!Serve_config.t}); lines without one share
      the anonymous tenant.

    Every response speaks v1: it leads with ["v"]:1 and is either
    [{"v", "id", "ok": true, "key", "cache_hit", "wall_s", "stats"}]
    or [{"v", "id", "ok": false, "error": {"kind", "message"}}], where
    [kind] is a {!Dise_isa.Diag.category}
    (doc/schema/serve_response.schema.json validates both shapes).
    Blank lines are skipped; a malformed line yields an error response
    with kind ["parse"] without killing the stream — this covers
    unparseable JSON, schema violations, and lines longer than
    {!max_line_bytes} (drained to the next newline so responses never
    desync from input order).

    {b Fault tolerance} (doc/resilience.md has the full semantics):
    job isolation under {!Pool.run_outcomes} (kind ["internal"],
    {!isolated_response}) and per-job deadlines (["timeout"]). *)

val protocol_version : int
(** The wire-envelope version the tier speaks: [1]. *)

(** Cooperative per-tier stop flag. [signal] is async-signal-safe (a
    single atomic store), so SIGINT/SIGTERM handlers may call it; the
    front end polls it every event-loop pass and drains gracefully —
    admitted work finishes, its responses are flushed, and the loop
    returns instead of reading on. *)
module Stop : sig
  type t

  val create : unit -> t
  val signal : t -> unit
  val signalled : t -> bool

  val reset : t -> unit
  (** Re-arm a signalled flag (harnesses that reuse one). *)
end

type summary = {
  served : int;  (** responses written (ok and error alike) *)
  errors : int;  (** of which ["ok": false] *)
  cache_hits : int;  (** of which served without simulating *)
  timeouts : int;  (** of the errors, kind ["timeout"] *)
  shed : int;  (** of the errors, kind ["overloaded"] (load or quota) *)
  isolated : int;  (** of the errors, kind ["internal"] *)
}
(** Per-run result summary of one serving tier. *)

val pp_summary : Format.formatter -> summary -> unit
(** ["served N jobs (E errors, H cache hits)"], with a
    [" [T timed out, S shed, I isolated]"] suffix when any of those
    is nonzero. *)

val max_line_bytes : int
(** Upper bound on one input line (1 MiB). Longer lines are consumed
    up to the next newline and answered with a per-job ["parse"]
    error naming the offending line number, never buffered whole. *)

type parsed = {
  id : Dise_telemetry.Json.t;  (** the envelope ["id"]; [Null] if absent *)
  version : int;  (** envelope dialect spoken: [0] (legacy) or [1] *)
  tenant : string option;  (** the envelope ["tenant"], when a string *)
  req : (Request.t, Dise_isa.Diag.t) result;
}
(** One parsed input line. Parse failures keep their response slot
    ([req = Error _]) so output order always matches input order. *)

val parse_job : lineno:int -> string -> parsed
(** Total: any defect in the line (bad JSON, unsupported ["v"],
    non-string ["tenant"], a decoder error) becomes
    [req = Error (Parse _)]. *)

val oversized_line : lineno:int -> parsed
(** The parse-error slot a line longer than {!max_line_bytes}
    occupies. *)

val isolated_response :
  Dise_telemetry.Json.t ->
  exn ->
  Printexc.raw_backtrace ->
  Dise_telemetry.Json.t * [ `Hit | `Fresh | `Error of string ]
(** The kind-["internal"] response for a job {!Pool.run_outcomes}
    isolated (counts it, logs the backtrace to stderr). *)

val listen_socket : path:string -> Unix.file_descr
(** Claim [path] for a fresh Unix-domain listener. If [path] already
    exists it is {e probed} first: when a live server answers, this
    refuses with [Cache.Diag_error (Diag.Overloaded _)] (exit-code
    class 6) — stealing the socket would silently split the service;
    only a dead (stale) socket is unlinked and reclaimed. Raises
    [Cache.Diag_error (Diag.Cache _)] if the socket cannot be bound.
    The caller owns the returned descriptor and the socket file. *)

val error_response : Dise_telemetry.Json.t -> Dise_isa.Diag.t -> Dise_telemetry.Json.t
(** [error_response id diag]: the v1 error response object. *)

val run_parsed :
  chaos:Resilience.Chaos.t ->
  deadline_ms:int option ->
  enqueued_at:float ->
  parsed ->
  Dise_telemetry.Json.t * [ `Hit | `Fresh | `Error of string ]
(** Execute one parsed job and build its response, observing the
    queue-wait and end-to-end latency histograms. The tag classifies
    the outcome ([`Error] carries the {!Dise_isa.Diag.category}).
    Chaos injection may raise: callers run this under
    {!Pool.run_outcomes} and answer isolated exceptions with kind
    ["internal"]. *)
