(** Per-commit performance/conformance trajectory records.

    One record summarizes one tool run (the conformance suite) at one
    commit: pass rate, wall-clock, key latency quantiles. Records
    accumulate in two tracked files — a JSONL
    trajectory (machine-read, one record per line, validated by
    doc/schema/trajectory.schema.json) and a markdown table
    (human-read) — so a regression shows up as a diff in review and
    the continuous monitor can compare a fresh run against the
    previous record for the same tool and suite. *)

type record = {
  tool : string;  (** ["conformance"], ... *)
  suite : string;  (** ["quick"], ["full"], ... *)
  ts : int;  (** unix seconds, supplied by the caller *)
  commit : string;  (** see {!commit_id} *)
  cells : int;  (** units of work (vector x backend cells) *)
  passed : int;
  wall_s : float;
  p50_ns : int;
  p95_ns : int;
  p99_ns : int;
  extra : (string * Json.t) list;
      (** tool-specific members merged into the JSON object; must not
          collide with the fixed field names *)
}

val pass_rate : record -> float
(** [passed / cells] (1.0 when [cells] is 0). *)

val commit_id : unit -> string
(** First of [$GITHUB_SHA], [$DISESIM_COMMIT], or ["local"] — no
    subprocess, so records can be stamped from any environment. *)

val to_json : record -> Json.t
(** Fixed members [record: "trajectory"], [tool], [suite], [ts],
    [commit], [cells], [passed], [pass_rate], [wall_s], [p50_ns],
    [p95_ns], [p99_ns], then [extra]. *)

val of_json : Json.t -> record option
(** Inverse of {!to_json}; [None] when a required member is missing
    or mistyped (unknown members land in [extra]). *)

val append : ?md:string -> jsonl:string -> record -> unit
(** Append one line to [jsonl] (created if missing) and, when [md] is
    given, one table row to that markdown file (created with a header
    if missing). *)

val last : jsonl:string -> tool:string -> suite:string -> record option
(** The most recent record in [jsonl] matching [tool] and [suite];
    unparseable lines are skipped. [None] when the file is missing or
    holds no match. *)

val check_regression :
  ?threshold:float -> prev:record -> record -> (unit, string) result
(** [Error msg] when the new record's [wall_s] exceeds
    [threshold *. prev.wall_s] (default threshold 1.2, i.e. a >20%
    wall-clock regression) or its pass rate dropped below [prev]'s. *)
