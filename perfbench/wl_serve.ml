(* The [serve] workload: [disesim serve --socket --workers 2 -j 1] with
   a fresh result-cache directory, driven by [conns] closed-loop client
   connections, each waiting for its reply before sending the next
   request.

   One connection: with two, a cache hit routed to the worker that is
   simulating the other connection's cold request waits for it, which
   happens to about half of all hits, so the hit median flips between
   the cache path and a simulation's remainder from seed to seed.

   Requests are figure-cell shaped (quick benchmarks, every acf kind,
   machine and PT/RT controller variations) and seeded. A warm share
   repeats requests answered during set-up, so the tier reads its
   result cache; the cold share is distinct canonical requests that
   simulate and write it. This is the only workload that exercises
   JSON, cache reads beside writes and the coordinator's route/frame
   path, and it runs the simulator as many short fresh-engine runs.

   Every benchmark keeps one dynamic length for the whole run and cold
   requests vary only the machine and controller: the request memos of
   [Request.compress_result] and the rewritten program are keyed
   without [dyn_target], so two lengths of one benchmark in one process
   would share a compressed (or rewritten) program and return the
   wrong statistics. *)

module R = Dise_service.Request
module W = Dise_workload
module Json = Dise_telemetry.Json
module Config = Dise_uarch.Config
module Stats = Dise_uarch.Stats

let benches = Dise_harness.Figures.quick_opts.Dise_harness.Figures.benchmarks
let workers = 2
let conns = 1
let setups = 3
(* Hits are 0.2 ms and misses over 10 ms: at half and half the overall
   median would sit in the gap between them. *)
let warm_share = 0.75
let segment_s = 1.0
let batch = 200  (* completions per [wall_s] sample *)

(* --- requests ----------------------------------------------------------- *)

let machines =
  List.concat_map
    (fun icache ->
      List.concat_map
        (fun width ->
          List.map
            (fun decode ->
              Config.default |> Config.with_icache_kb icache |> Config.with_width width
              |> Config.with_dise_decode decode)
            [ Config.Free; Config.Stall_per_expansion; Config.Extra_stage ])
        [ 2; 4; 8 ])
    [ Some 8; Some 16; Some 32; Some 64; None ]

let controllers =
  List.concat_map
    (fun rt_entries ->
      List.map
        (fun rt_assoc -> { Dise_core.Controller.default_config with rt_entries; rt_assoc })
        [ 1; 2 ])
    [ 512; 1024; 2048 ]

(* Every distinct cold request, in seeded order. *)
let space rng =
  let dyn = List.map (fun b -> (b, 40_000 + (50 * Random.State.int rng 8))) benches in
  let cells =
    List.concat_map
      (fun (bench, dyn_target) ->
        List.concat_map
          (fun kind ->
            List.concat_map
              (fun machine ->
                match kind with
                | Cells.Decompress | Cells.Composed ->
                  List.map
                    (fun controller -> Cells.request ~machine ~controller ~dyn_target kind bench)
                    controllers
                | _ -> [ Cells.request ~machine ~dyn_target kind bench ])
              machines)
          Cells.kinds)
      dyn
  in
  Util.shuffle rng cells

let is_decompress (r : R.t) = match r.R.acf with R.Decompress _ -> true | _ -> false
let is_rewrite (r : R.t) = match r.R.acf with R.Mfi_rewrite _ -> true | _ -> false

let take n p l =
  let rec go n acc = function
    | x :: rest when n > 0 && p x -> go (n - 1) (x :: acc) rest
    | _ :: rest when n > 0 -> go n acc rest
    | _ -> List.rev acc
  in
  go n [] l

(* Set-up requests, answered before measuring and then the warm pool.
   The decompression and rewriting requests come first, round-robin
   over the benchmarks and several per benchmark, so every worker
   compresses and rewrites every program before the tier has the 32
   latency samples it needs to start hedging slow requests. *)
let warm_list space =
  let per b p n = take n (fun (r : R.t) -> r.R.bench = b && p r) space in
  let rec interleave ls =
    if List.for_all (( = ) []) ls then []
    else
      List.filter_map (function x :: _ -> Some x | [] -> None) ls
      @ interleave (List.map (function _ :: r -> r | [] -> []) ls)
  in
  let first =
    interleave (List.map (fun b -> per b is_decompress 12) benches)
    @ interleave (List.map (fun b -> per b is_rewrite 6) benches)
  in
  first @ take 24 (fun r -> not (List.mem r first)) space

(* --- client ------------------------------------------------------------- *)

type reply = {
  req : R.t;
  warm : bool;
  t_send : float;
  t_recv : float;
  id_ok : bool;
  ok : bool;
  hit : bool;
  key : string;
  stats : string;  (** normalized through [Stats.of_json]; "" when absent *)
}

let connect path =
  let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect s (Unix.ADDR_UNIX path) with
  | () -> s
  | exception e ->
    Unix.close s;
    raise e

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off = if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off)) in
  go 0

let last_response = Atomic.make ""

type conn = { fd : Unix.file_descr; ic : in_channel; index : int; mutable sent : int }

let open_conn sock index =
  let fd = connect sock in
  { fd; ic = Unix.in_channel_of_descr fd; index; sent = 0 }

(* Closed loop on one connection: [next ()] yields the next request
   (and whether it is warm) or [None] to stop. *)
let drive c next =
  let replies = ref [] in
  let rec loop () =
    match next () with
    | None -> ()
    | Some (warm, req) ->
      let id = (c.index * 1_000_000) + c.sent in
      c.sent <- c.sent + 1;
      let t_send = Util.now () in
      write_all c.fd (Cells.request_line ~id req ^ "\n");
      let line = input_line c.ic in
      let t_recv = Util.now () in
      let j = Json.parse line in
      let mem k = Json.member k j in
      let stats =
        match Option.map Stats.of_json (mem "stats") with
        | Some (Ok s) -> Cells.stats_string s
        | _ -> ""
      in
      Atomic.set last_response line;
      replies :=
        {
          req;
          warm;
          t_send;
          t_recv;
          id_ok = mem "id" = Some (Json.Int id);
          ok = mem "ok" = Some (Json.Bool true);
          hit = mem "cache_hit" = Some (Json.Bool true);
          key = (match mem "key" with Some (Json.String k) -> k | _ -> "");
          stats;
        }
        :: !replies;
      loop ()
  in
  loop ();
  List.rev !replies

(* Run [script c] on every connection, each in its own domain. *)
let on_conns conns script =
  List.map (fun c -> Domain.spawn (fun () -> drive c (script c.index))) conns
  |> List.concat_map Domain.join

let with_conns sock n f =
  let conns = List.init n (open_conn sock) in
  Fun.protect ~finally:(fun () -> List.iter (fun c -> Unix.close c.fd) conns) (fun () -> f conns)

(* --- the tier ----------------------------------------------------------- *)

type tier = { pid : int; dir : string; sock : string }

let spawn ~disesim ~dir =
  Util.rm_rf dir;
  Util.mkdir_p dir;
  let f name = Filename.concat dir name in
  let log = Unix.openfile (f "serve.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let args =
    [| disesim; "serve"; "--socket"; f "s.sock"; "--workers"; string_of_int workers; "-j"; "1";
       "--cache"; f "cache"; "--manifest"; f "manifest.jsonl" |]
  in
  let pid = Unix.create_process disesim args null log log in
  Unix.close log;
  Unix.close null;
  let t = { pid; dir; sock = f "s.sock" } in
  let deadline = Util.now () +. 30.0 in
  let rec wait () =
    match connect t.sock with
    | fd -> Unix.close fd
    | exception Unix.Unix_error _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "disesim serve exited during start-up (see serve.log)");
      if Util.now () > deadline then failwith "disesim serve did not start listening";
      Unix.sleepf 0.01;
      wait ()
  in
  wait ();
  t

let read_proc pid file =
  match open_in_bin (Printf.sprintf "/proc/%d/%s" pid file) with
  | exception Sys_error _ -> ""
  | ic ->
    let s = try input_line ic with End_of_file -> "" in
    close_in ic;
    s

(* The tier's processes: the coordinator and its re-exec'd workers. *)
let tier_pids t =
  let ppid_of pid =
    let line = read_proc pid "stat" in
    (* the command name may hold spaces; fields resume after ')' *)
    match String.rindex_opt line ')' with
    | Some i -> (
      match String.split_on_char ' ' (String.sub line (i + 2) (String.length line - i - 2)) with
      | _state :: ppid :: _ -> int_of_string_opt ppid
      | _ -> None)
    | None -> None
  in
  let procs = Sys.readdir "/proc" |> Array.to_list |> List.filter_map int_of_string_opt in
  t.pid :: List.filter (fun p -> ppid_of p = Some t.pid) procs

(* Graceful stop (SIGTERM drains the tier and writes its summary); the
   tier is killed if it has not exited after 20 s. *)
let shutdown t =
  let pids = tier_pids t in
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Util.now () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when Util.now () < deadline ->
      Unix.sleepf 0.02;
      wait ()
    | 0, _ ->
      (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] t.pid);
      false
    | _, Unix.WEXITED 0 -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let clean = wait () in
  (* Workers the coordinator failed to reap are not ours to wait for,
     but they must not outlive the run. *)
  let is_disesim p =
    match String.split_on_char '\000' (read_proc p "cmdline") with
    | exe :: _ -> Filename.basename exe = "disesim.exe"
    | [] -> false
  in
  List.iter
    (fun p -> if p <> t.pid && is_disesim p then try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ())
    pids;
  clean

let summary t =
  let file = Filename.concat t.dir "manifest.jsonl" in
  match open_in file with
  | exception Sys_error _ -> None
  | ic ->
    let rec last acc = match input_line ic with l -> last (Some l) | exception End_of_file -> acc in
    let l = last None in
    close_in ic;
    Option.map Json.parse l

(* A histogram's median in ms, interpolated inside its log bucket: the
   bucket's upper bound, which the summary prints as p50, is up to 12.5%
   high, too coarse to subtract from the client's p50. *)
let hist_p50_ms summary name =
  match
    Option.bind summary (fun s ->
        Option.bind (Json.member "metrics" s) (fun m ->
            Option.bind (Json.member "histograms" m) (Json.member name)))
  with
  | None -> 0.0
  | Some h ->
    let module H = Dise_telemetry.Metrics.Histogram in
    let snap = H.of_json h in
    let rank = float_of_int snap.H.count /. 2.0 in
    let rec find before = function
      | [] -> 0.0
      | (lo, hi, c) :: rest ->
        let c = float_of_int c in
        if before +. c >= rank then
          (float_of_int lo +. ((rank -. before) /. c *. float_of_int (hi - lo))) /. 1e6
        else find (before +. c) rest
    in
    find 0.0 (Array.to_list snap.H.buckets)

(* --- the workload ------------------------------------------------------- *)

type segment = {
  replies : reply list;
  raw : float;  (** host seconds *)
  k : float;  (** calibration factor ({!Calib.segment}) *)
  traced : bool;
}

let run ~disesim ~seed ~seconds ~traced =
  let rng = Random.State.make [| seed |] in
  let space = space rng in
  let warm = warm_list space in
  let cold = List.filter (fun r -> not (List.mem r warm)) space in
  let n = conns in
  let warm_arr = Array.of_list warm in
  (* Set up [setups] times; keep the last tier for the measured phase. *)
  let setup i =
    let (t, replies), d =
      Calib.timed (fun () ->
          let t = spawn ~disesim ~dir:(Printf.sprintf ".perfbench/serve-%d-%d" seed i) in
          let queues = Array.init n (fun c -> ref (List.filteri (fun k _ -> k mod n = c) warm)) in
          ( t,
            with_conns t.sock n (fun conns ->
                on_conns conns (fun c () ->
                    match !(queues.(c)) with
                    | r :: rest ->
                      queues.(c) := rest;
                      Some (true, r)
                    | [] -> None)) ))
    in
    if not (List.for_all (fun r -> r.ok) replies) then failwith "serve: a set-up request failed";
    if i < setups - 1 then ignore (shutdown t);
    (t, d)
  in
  let setup_runs = List.init setups setup in
  let tier = fst (List.nth setup_runs (setups - 1)) in
  if traced then Span.enable ();
  let t_start = Util.now () in
  let t_mid = t_start +. (seconds /. 2.0) in
  let colds = Array.init n (fun c -> ref (List.filteri (fun k _ -> k mod n = c) cold)) in
  let rngs = Array.init n (fun c -> Random.State.make [| seed; c |]) in
  let script ~until c () =
    if Util.now () >= until then None
    else
      let pick_warm = Random.State.float rngs.(c) 1.0 < warm_share in
      match !(colds.(c)) with
      | r :: rest when not pick_warm ->
        colds.(c) := rest;
        Some (false, r)
      | _ -> Some (true, warm_arr.(Random.State.int rngs.(c) (Array.length warm_arr)))
  in
  (* The measured phase as calibrated segments of [segment_s]; the
     closed loop drains at each boundary while the kernel runs. *)
  let segments =
    with_conns tier.sock n (fun conns ->
        let rec loop acc =
          let t0 = Util.now () in
          if t0 -. t_start >= seconds then List.rev acc
          else
            let until = Float.min (t0 +. segment_s) (t_start +. seconds) in
            let replies, raw, k =
              Calib.segment (fun () ->
                  let r = on_conns conns (script ~until) in
                  (r, Util.now () -. t0))
            in
            loop ({ replies; raw; k; traced = traced && t0 >= t_mid } :: acc)
        in
        loop [])
  in
  let replies = List.concat_map (fun s -> s.replies) segments in
  List.iter
    (fun s ->
      if s.traced then
        List.iter
          (fun r -> Span.add ~tag:(R.canonical r.req) "client.request" ~start:r.t_send ~stop:r.t_recv)
          s.replies)
    segments;
  let rss = Util.sum (List.map (fun p -> Util.peak_rss_mb (string_of_int p)) (tier_pids tier)) in
  let clean_exit = shutdown tier in
  let summary = summary tier in
  (* Every ok answer must equal a fresh in-process run of its request. *)
  R.clear_memory ();
  let distinct = List.sort_uniq compare (List.map (fun r -> r.req) (List.filter (fun r -> r.ok) replies)) in
  let fresh =
    Dise_service.Pool.run ~jobs:(max 1 (min 2 (Domain.recommended_domain_count ())))
      (Array.of_list
         (List.map
            (fun req () ->
              ( R.canonical req,
                match R.run_ext ~entry:(Cells.entry req) req with
                | Ok (s, _) -> (R.key req, Cells.stats_string s)
                | Error d -> ("", Dise_isa.Diag.to_string d) ))
            distinct))
  in
  let expected = Hashtbl.create 1024 in
  Array.iter (fun (c, v) -> Hashtbl.replace expected c v) fresh;
  let matches r = (not r.ok) || Hashtbl.find_opt expected (R.canonical r.req) = Some (r.key, r.stats) in
  (* Latencies at nominal host speed: each takes its segment's factor. *)
  let lat sel =
    List.concat_map
      (fun s -> List.filter_map (fun r -> if sel r then Some ((r.t_recv -. r.t_send) *. s.k) else None) s.replies)
      segments
  in
  let busy = List.filter (fun s -> s.replies <> []) segments in
  let norm s = s.raw *. s.k in
  let batch_wall s = norm s *. float_of_int batch /. float_of_int (List.length s.replies) in
  let phase = Util.sum (List.map norm segments) in
  let retired =
    List.fold_left
      (fun acc r ->
        if r.ok && not r.hit then
          match Stats.of_json (Json.parse r.stats) with Ok s -> acc + s.Stats.retired | Error _ -> acc
        else acc)
      0 replies
  in
  let counter name =
    match Option.bind summary (fun s -> Option.bind (Json.member "counters" s) (Json.member name)) with
    | Some (Json.Int v) -> v
    | _ -> 0
  in
  let worker_sum field =
    match Option.bind summary (Json.member "workers") with
    | Some (Json.List ws) ->
      Util.sum_int (List.map (fun w -> match Json.member field w with Some (Json.Int v) -> v | _ -> 0) ws)
    | _ -> 0
  in
  let health = [ counter "hedges"; counter "torn_frames"; worker_sum "restarts" ] in
  let tier_p50 = hist_p50_ms summary in
  Ledger.set "service.queue_wait_p50_ms" (tier_p50 "serve_queue_wait_ns");
  Ledger.set "service.execute_p50_ms" (tier_p50 "serve_execute_ns");
  Ledger.set "service.tier_request_p50_ms" (tier_p50 "tier_request_ns");
  Ledger.set "service.request_run_p50_ms" (tier_p50 "request_run_ns");
  (* Raw client time here: the tier's histograms are raw host time. *)
  Ledger.set "service.front_end_p50_ms"
    ((1000.0 *. Util.median (List.map (fun r -> r.t_recv -. r.t_send) replies)) -. tier_p50 "tier_request_ns");
  Ledger.addi "service.cache_hits" (worker_sum "cache_hits");
  Ledger.addi "service.cache_misses" (worker_sum "cache_misses");
  List.iter2 Ledger.addi [ "service.hedges"; "service.torn_frames"; "service.restarts" ] health;
  (* A late pong is not a failure on a saturated host, so heartbeat
     misses are counted but do not fail the run. *)
  Ledger.addi "service.heartbeat_misses" (counter "heartbeat_misses");
  if traced then begin
    let half sel = Util.median (List.map batch_wall (List.filter sel busy)) in
    Ledger.set "trace.overhead_ratio" (half (fun s -> s.traced) /. half (fun s -> not s.traced));
    (* The layer split of the tier's cold cells, laddered in-process. *)
    let cold_done = List.filter (fun r -> not (List.mem r warm)) distinct in
    let stride = max 1 (List.length cold_done / 20) in
    let sample = List.filteri (fun i _ -> i mod stride = 0) cold_done in
    W.Suite.clear_cache ();
    R.clear_memory ();
    Grid.prepare ~record:true sample;
    let outcomes = List.map Grid.run_cell sample in
    Ledger.set "ladder.ok" (if List.for_all Grid.ladder outcomes then 1.0 else 0.0);
    match List.find_opt (fun r -> r.ok) replies with
    | Some r ->
      Ledger.codec_probes ~request_line:(Cells.request_line ~id:1 r.req) ~request:r.req
        ~response_line:(Atomic.get last_response)
    | None -> ()
  end;
  let warm_replies = List.filter (fun r -> r.warm) replies in
  let cold_replies = List.filter (fun r -> not r.warm) replies in
  {
    Report.attempted = List.length replies;
    failed = List.length (List.filter (fun r -> not r.ok) replies);
    checks =
      [
        ("responses come back in order", List.for_all (fun r -> r.id_ok) replies);
        ("ok responses equal a fresh in-process run", List.for_all matches replies);
        ("warm requests hit the result cache", List.for_all (fun r -> r.hit) warm_replies);
        ("cold requests simulate", List.for_all (fun r -> not r.hit) cold_replies);
        ("no hedges, torn frames or restarts", List.for_all (( = ) 0) health);
        ("tier summary written on a clean exit", clean_exit && summary <> None);
      ]
      @ (if traced then [ ("ladder rung 3 reproduces run_ext", Ledger.get "ladder.ok" = 1.0) ] else []);
    e2e =
      [
        ("setup_s", Util.median (List.map snd setup_runs));
        ("wall_s", Util.median (List.map batch_wall busy));
        ("sim_minsn_per_s", float_of_int retired /. phase /. 1e6);
        ("jobs_per_s", float_of_int (List.length replies) /. phase);
      ]
      @ Report.latencies ~all:(lat (fun _ -> true)) ~hits:(lat (fun r -> r.hit)) ~misses:(lat (fun r -> not r.hit))
      @ [ ("peak_rss_mb", rss) ];
    samples =
      [
        ("requests", List.length replies);
        ("hits", List.length (lat (fun r -> r.hit)));
        ("misses", List.length (lat (fun r -> not r.hit)));
        ("segments", List.length busy);
        ("distinct_checked", List.length distinct);
      ];
    notes =
      [
        ("workers", Json.Int workers);
        ("conns", Json.Int n);
        ("warm_share", Json.Float warm_share);
        ( "raw_jobs_per_s",
          Json.Float (float_of_int (List.length replies) /. Util.sum (List.map (fun s -> s.raw) segments)) );
      ];
  }
