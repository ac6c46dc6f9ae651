(* What a workload hands back to the driver: operation counts, output
   checks, the end-to-end metrics of an untraced run, and the sample
   counts behind them. Per-layer values live in {!Ledger}. *)

type t = {
  attempted : int;
  failed : int;
  checks : (string * bool) list;
  e2e : (string * float) list;
  samples : (string * int) list;
  notes : (string * Dise_telemetry.Json.t) list;  (** extra run-record fields *)
}

let ms s = s *. 1000.0

(* Latency metrics from per-job durations in seconds: all jobs, then
   split by whether a cache answered. *)
let latencies ~all ~hits ~misses =
  [
    ("latency_p50_ms", ms (Util.quantile all 0.50));
    ("latency_p99_ms", ms (Util.quantile all 0.99));
    ("hit_p50_ms", ms (Util.median hits));
    ("miss_p50_ms", ms (Util.median misses));
  ]

let self_rss () = Util.peak_rss_mb "self"
