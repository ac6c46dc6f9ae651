module Json = Dise_telemetry.Json
module Manifest = Dise_telemetry.Manifest
module Metrics = Dise_telemetry.Metrics
module Diag = Dise_isa.Diag

let env_var = "DISESIM_SERVE_WORKER"

(* The coordinator executes nothing itself, so its latency instruments
   come from the workers: [serve_execute_ns] (pickup -> response
   ready) is recorded inside each worker process. *)
let h_execute = Metrics.Histogram.make "serve_execute_ns"

(* Client-observed latency of every logical request the coordinator
   completes (enqueue to response, respawns and failovers included). *)
let h_tier = Metrics.Histogram.make "tier_request_ns"

(* Supervision and admission events, counted where they happen. *)
let timeouts = Metrics.Counter.make "timeouts"
let shed = Metrics.Counter.make "shed"
let conn_failures = Metrics.Counter.make "conn_failures"
let failovers = Metrics.Counter.make "failovers"
let torn_frames = Metrics.Counter.make "torn_frames"

(* --- frame protocol ----------------------------------------------------- *)

(* Coordinator <-> worker pipes carry 4-byte big-endian length-prefixed
   JSON frames — self-delimiting (JSONL would re-parse request bodies
   to find boundaries) and safe against partial reads on nonblocking
   descriptors.

     C -> W   {"op":"job","seq":N,"enq":T,"id":ID,"req":REQUEST,
               "sleep_ms":M?,"raise":true?}  (scheduled job faults)
              {"op":"ping","t":N}
              {"op":"stop"}
              {"op":"stall","ms":M}        (chaos: sleep M ms)
              {"op":"chaos_torn","cut":K}  (chaos: tear a frame, die)
     W -> C   {"op":"hello","shard":S}     (first frame, always)
              {"op":"resp","seq":N,"tag":"hit"|"fresh"|"error",
               "kind":CATEGORY?,"resp":RESPONSE}
              {"op":"pong","t":N}          (answer to a ping)
              {"op":"pong"}                (keep-alive during a batch)
              {"op":"summary","shard":S,"metrics":{..}}

   [seq] is coordinator-global and monotonic, so a respawned worker can
   be handed the same frame again without ambiguity. [ping] frames are
   the supervision heartbeat. The frame loop answers them between
   batches; while a batch runs, a helper domain in the worker sends
   keep-alive pongs once the batch has outlived half a heartbeat
   interval, so a long legitimate job never looks like a dead worker.
   A frame loop wedged outside any batch (the chaos [stall] op, a
   deadlock) answers nothing — exactly the signal the health machine
   wants. Long jobs are bounded by [deadline_ms] instead.

   [hello] synchronizes the stream: a worker is a re-exec of the host
   executable, and anything linked into that host may write banners to
   stdout during module initialization, before the worker hook runs
   (the test runner's property-test library prints its random seed).
   The coordinator discards bytes until it sees the exact framed hello
   for the expected shard; only after that does a malformed frame mean
   the stream is poisoned. *)

let max_frame = 8 * 1024 * 1024

let frame_string doc =
  let body = Json.to_string doc in
  let n = String.length body in
  let b = Bytes.create (4 + n) in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.blit_string body 0 b 4 n;
  Bytes.unsafe_to_string b

(* The framed hello for [shard], byte-exact on both sides: the worker
   writes it first, the coordinator scans for it to synchronize. *)
let hello_frame shard =
  frame_string
    (Json.Obj [ ("op", Json.String "hello"); ("shard", Json.Int shard) ])

(* Startup pollution beyond this and the worker is not speaking the
   protocol at all. *)
let hello_preamble_limit = 65536

let find_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  if nn = 0 then Some 0 else go 0

let be32 s pos =
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

(* Blocking exact read; [false] on EOF (including EOF mid-item, which
   only a dying peer produces). *)
let rec read_exactly fd buf off len =
  if len = 0 then true
  else
    match Unix.read fd buf off len with
    | 0 -> false
    | n -> read_exactly fd buf (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      read_exactly fd buf off len

(* Blocking whole-frame read. [None] covers EOF and protocol
   corruption alike: in either case the peer is unusable. *)
let read_frame fd =
  let hdr = Bytes.create 4 in
  if not (read_exactly fd hdr 0 4) then None
  else
    let n = be32 (Bytes.unsafe_to_string hdr) 0 in
    if n < 0 || n > max_frame then None
    else
      let body = Bytes.create n in
      if not (read_exactly fd body 0 n) then None
      else
        match Json.parse (Bytes.unsafe_to_string body) with
        | doc -> Some doc
        | exception Json.Parse_error _ -> None

(* Whole-string write for framing that must not tear. The descriptor
   may have been marked nonblocking by someone else (the coordinator
   sets O_NONBLOCK on its pipe ends, and status flags travel with the
   open file description), so a full pipe can surface as
   [EAGAIN]/[EWOULDBLOCK] mid-frame — wait for writability and resume
   at the same offset instead of dropping the tail. *)
let rec write_all fd s off =
  if off < String.length s then
    match Unix.write_substring fd s off (String.length s - off) with
    | n -> write_all fd s (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      (match Unix.select [] [ fd ] [] 1.0 with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      write_all fd s off

let input_ready fd =
  match Unix.select [ fd ] [] [] 0. with
  | [ _ ], _, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(* Incremental frame reader for select-driven reads: bytes accumulate
   in [ibuf] and complete frames are peeled off as they arrive. *)
type instream = { ibuf : Buffer.t }

(* Peel complete frames off the buffer. The second component reports a
   poisoned stream — an impossible length prefix or a frame body that
   is not JSON. Framing never recovers from either (every subsequent
   byte boundary is a guess), so the caller must stop trusting the
   peer entirely: kill it, resubmit its inflight work, never parse the
   tail as data. *)
let extract_frames st =
  let data = Buffer.contents st.ibuf in
  let len = String.length data in
  let pos = ref 0 in
  let out = ref [] in
  let poisoned = ref false in
  let continue = ref true in
  while !continue do
    if len - !pos >= 4 then begin
      let n = be32 data !pos in
      if n < 0 || n > max_frame then begin
        pos := len;
        poisoned := true;
        continue := false
      end
      else if len - !pos - 4 >= n then begin
        (match Json.parse (String.sub data (!pos + 4) n) with
        | doc -> out := doc :: !out
        | exception Json.Parse_error _ -> poisoned := true);
        pos := !pos + 4 + n
      end
      else continue := false
    end
    else continue := false
  done;
  Buffer.clear st.ibuf;
  Buffer.add_substring st.ibuf data !pos (len - !pos);
  (List.rev !out, !poisoned)

(* Outgoing byte queue for one descriptor: strings are pushed whole
   and written as far as the fd will take them. Queued strings are
   coalesced into one write, so frames routed together reach a worker
   together and it batches them as one. *)
type outstream = { oq : string Queue.t; mutable off : int }

let outstream () = { oq = Queue.create (); off = 0 }
let out_pending os = not (Queue.is_empty os.oq)
let out_push os s = Queue.add s os.oq

(* Write until the queue drains or the fd blocks. Raises on hard
   write errors (EPIPE: the peer is gone). *)
let out_write fd os =
  if Queue.length os.oq > 1 then begin
    let head = Queue.pop os.oq in
    let rest = List.of_seq (Queue.to_seq os.oq) in
    Queue.clear os.oq;
    Queue.add
      (String.concat ""
         (String.sub head os.off (String.length head - os.off) :: rest))
      os.oq;
    os.off <- 0
  end;
  try
    while not (Queue.is_empty os.oq) do
      let s = Queue.peek os.oq in
      let n = Unix.write_substring fd s os.off (String.length s - os.off) in
      if os.off + n = String.length s then begin
        ignore (Queue.pop os.oq);
        os.off <- 0
      end
      else os.off <- os.off + n
    done
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    ()

(* --- worker process ----------------------------------------------------- *)

(* The spawn spec a worker finds in [DISESIM_SERVE_WORKER]:
   {"shard":S,"cache":DIR|null,
    "jit":{"enabled":B,"threshold":K}?,"config":SERVE_CONFIG} *)

type wspec = {
  w_shard : int;
  w_cache : string option;
  w_jit : (bool * int) option;
  w_cfg : Serve_config.t;
}

let wspec_of_json doc =
  let ( let* ) = Result.bind in
  let err msg = Error (Diag.Parse { source = env_var; line = 0; msg }) in
  let* w_shard =
    match Json.member "shard" doc with
    | Some (Json.Int i) when i >= 0 -> Ok i
    | _ -> err "missing shard"
  in
  let* w_cache =
    match Json.member "cache" doc with
    | Some (Json.String d) -> Ok (Some d)
    | Some Json.Null | None -> Ok None
    | Some _ -> err "cache must be a string or null"
  in
  let* w_jit =
    match Json.member "jit" doc with
    | None -> Ok None
    | Some j -> (
      match (Json.member "enabled" j, Json.member "threshold" j) with
      | Some (Json.Bool e), Some (Json.Int k) -> Ok (Some (e, k))
      | _ -> err "malformed jit member")
  in
  let* w_cfg =
    match Json.member "config" doc with
    | Some c -> Serve_config.of_json c
    | None -> err "missing config"
  in
  Ok { w_shard; w_cache; w_jit; w_cfg }

let tag_name = function `Hit -> "hit" | `Fresh -> "fresh" | `Error _ -> "error"

(* One decoded job frame, ready for [Server.run_parsed]. *)
type wjob = {
  j_seq : int;
  j_enq : float;
  j_parsed : Server.parsed;
  j_faults : Chaos.action list;
}

(* A job's scheduled chaos rides in every frame of its legs as
   ["sleep_ms"] and ["raise"] members, in schedule order. *)
let fault_members acts =
  List.filter_map
    (function
      | Chaos.Sleep { ms } -> Some ("sleep_ms", Json.Int ms)
      | Chaos.Raise -> Some ("raise", Json.Bool true)
      | Chaos.Kill _ | Chaos.Stall _ | Chaos.Torn _ | Chaos.Drop_ping _ -> None)
    acts

let faults_of_frame = function
  | Json.Obj members ->
    List.filter_map
      (function
        | "sleep_ms", Json.Int ms -> Some (Chaos.Sleep { ms })
        | "raise", Json.Bool true -> Some Chaos.Raise
        | _ -> None)
      members
  | _ -> []

let decode_job doc =
  let id = Option.value (Json.member "id" doc) ~default:Json.Null in
  let j_seq =
    match Json.member "seq" doc with Some (Json.Int s) -> s | _ -> -1
  in
  let j_enq =
    match Json.member "enq" doc with
    | Some (Json.Float f) -> f
    | Some (Json.Int i) -> float_of_int i
    | _ -> Unix.gettimeofday ()
  in
  let req =
    match Json.member "req" doc with
    | Some r -> Request.of_json r
    | None ->
      Error (Diag.Parse { source = "serve-worker"; line = 0; msg = "job frame without req" })
  in
  {
    j_seq;
    j_enq;
    j_parsed = { Server.id; tenant = None; req };
    j_faults = faults_of_frame doc;
  }

(* [metrics0] is snapshotted by the caller before the first frame, so
   the summary frame carries exactly this worker's session. *)
let worker_serve spec ~metrics0 =
  let cfg = spec.w_cfg in
  (* Two writers share stdout (the frame loop and the ponger), so
     every frame is written whole under one lock. *)
  let out_lock = Mutex.create () in
  let write_out s = Mutex.protect out_lock (fun () -> write_all Unix.stdout s 0) in
  let emit_frame doc = write_out (frame_string doc) in
  (* When the running batch started; 0 between batches. *)
  let batch_since = Atomic.make 0. in
  let run_batch batch =
    Atomic.set batch_since (Unix.gettimeofday ());
    let batch = Array.of_list batch in
    let outcomes =
      Pool.run_outcomes ~jobs:cfg.Serve_config.jobs
        ~probe:(fun _i ~domain:_ dur -> Metrics.Histogram.observe_s h_execute dur)
        (Array.map
           (fun wj () ->
             Server.run_parsed ~faults:wj.j_faults
               ~deadline_ms:cfg.Serve_config.deadline_ms ~enqueued_at:wj.j_enq
               wj.j_parsed)
           batch)
    in
    Array.iteri
      (fun i outcome ->
        let resp, tag =
          match outcome with
          | Ok r -> r
          | Error (e, bt) -> Server.isolated_response batch.(i).j_parsed.Server.id e bt
        in
        let kind = match tag with `Error k -> [ ("kind", Json.String k) ] | _ -> [] in
        emit_frame
          (Json.Obj
             ([
                ("op", Json.String "resp");
                ("seq", Json.Int batch.(i).j_seq);
                ("tag", Json.String (tag_name tag));
              ]
             @ kind
             @ [ ("resp", resp) ])))
      outcomes;
    Atomic.set batch_since 0.
  in
  (* Supervision and chaos control frames, answered inline from the
     frame loop between batches. *)
  let handle_ctl doc op =
    match op with
    | "ping" ->
      emit_frame
        (Json.Obj
           [
             ("op", Json.String "pong");
             ("t", Option.value (Json.member "t" doc) ~default:Json.Null);
           ])
    | "stall" -> (
      (* chaos: wedge the frame loop for a while, like a gray-failing
         process that is alive but not making progress *)
      match Json.member "ms" doc with
      | Some (Json.Int ms) when ms > 0 -> Unix.sleepf (float_of_int ms /. 1000.)
      | _ -> ())
    | "chaos_torn" ->
      (* chaos: die mid-write. Emit the first [cut] bytes of a frame
         whose header promises 256 body bytes, then exit — exactly the
         torn tail a worker killed inside [write_all] leaves behind.
         [cut < 4] tears the header itself. *)
      let cut =
        match Json.member "cut" doc with Some (Json.Int c) -> c | _ -> 8
      in
      let promised = 256 in
      let full = Bytes.make (4 + promised) 'x' in
      Bytes.set full 0 '\000';
      Bytes.set full 1 '\000';
      Bytes.set full 2 '\001';
      Bytes.set full 3 '\000';
      let cut = max 1 (min cut (4 + promised - 1)) in
      Mutex.lock out_lock;
      write_all Unix.stdout (Bytes.sub_string full 0 cut) 0;
      Unix._exit 9
    | _ -> ()
  in
  (* Frames arrive one at a time; batch up whatever is already queued
     (up to [queue]) so the domain pool fans out instead of running
     jobs one by one. *)
  let rec loop () =
    match read_frame Unix.stdin with
    | None -> ()
    | Some doc -> (
      match Json.member "op" doc with
      | Some (Json.String "stop") -> ()
      | Some (Json.String (("ping" | "stall" | "chaos_torn") as op)) ->
        handle_ctl doc op;
        loop ()
      | Some (Json.String "job") ->
        let batch = ref [ decode_job doc ] in
        let count = ref 1 in
        let after = ref `Continue in
        while
          !after = `Continue && !count < cfg.Serve_config.queue
          && input_ready Unix.stdin
        do
          match read_frame Unix.stdin with
          | None -> after := `Eof
          | Some doc -> (
            match Json.member "op" doc with
            | Some (Json.String "stop") -> after := `Stop
            | Some (Json.String (("ping" | "stall" | "chaos_torn") as op)) ->
              handle_ctl doc op
            | Some (Json.String "job") ->
              batch := decode_job doc :: !batch;
              incr count
            | _ -> ())
        done;
        run_batch (List.rev !batch);
        if !after = `Continue then loop ()
      | _ -> loop ())
  in
  (* First bytes this incarnation contributes: the sync point the
     coordinator scans for past any module-init stdout pollution. *)
  write_out (hello_frame spec.w_shard);
  (* The ponger never reads stdin: it only keeps a long batch from
     looking like a dead worker. It polls at an eighth of an interval
     and pongs once the batch has run half of one, so a pong lands in
     every heartbeat interval the batch spans, with an eighth to
     spare. The process [_exit]s without joining it. *)
  let finished = Atomic.make false in
  if cfg.Serve_config.heartbeat_ms > 0 then begin
    let half = float_of_int cfg.Serve_config.heartbeat_ms /. 2000. in
    let pong = frame_string (Json.Obj [ ("op", Json.String "pong") ]) in
    ignore
      (Domain.spawn (fun () ->
           while not (Atomic.get finished) do
             Unix.sleepf (half /. 4.);
             let since = Atomic.get batch_since in
             if since > 0. && Unix.gettimeofday () -. since > half then write_out pong
           done))
  end;
  loop ();
  Atomic.set finished true;
  emit_frame
    (Json.Obj
       [
         ("op", Json.String "summary");
         ("shard", Json.Int spec.w_shard);
         ("metrics", Metrics.to_json (Metrics.delta ~since:metrics0 (Metrics.snapshot ())));
       ])

let worker_main spec_text =
  let fail d =
    Format.eprintf "disesim serve worker: %a@." Diag.pp d;
    Diag.exit_code d
  in
  match Json.parse spec_text with
  | exception Json.Parse_error msg ->
    fail (Diag.Parse { source = env_var; line = 0; msg })
  | doc -> (
    match wspec_of_json doc with
    | Error d -> fail d
    | Ok spec -> (
      (* The coordinator orchestrates shutdown with stop frames; a
         terminal's Ctrl-C reaches the whole process group, and
         workers must let the coordinator drain them instead of dying
         mid-batch. *)
      (try
         ignore (Sys.signal Sys.sigint Sys.Signal_ignore);
         ignore (Sys.signal Sys.sigterm Sys.Signal_ignore)
       with Invalid_argument _ | Sys_error _ -> ());
      (match spec.w_jit with
      | None -> ()
      | Some (enabled, threshold) -> Request.set_default_jit ~enabled ~threshold);
      match
        match spec.w_cache with
        | None -> Request.set_disk_cache None
        | Some dir -> Request.set_disk_cache (Some (Cache.create ~dir))
      with
      | exception Cache.Diag_error d -> fail d
      | () ->
        let metrics0 = Metrics.snapshot () in
        (match worker_serve spec ~metrics0 with
        | () -> ()
        | exception e ->
          Format.eprintf "disesim serve worker: fatal: %s@." (Printexc.to_string e);
          exit 7);
        0))

let worker_child_main () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> ()
  | Some spec ->
    let code = try worker_main spec with _ -> 7 in
    (* Frames go straight through [Unix.write]; nothing buffered needs
       flushing, and skipping at_exit keeps the host binary's handlers
       out of the worker's teardown. *)
    Unix._exit code

(* --- coordinator -------------------------------------------------------- *)

(* Supervision constants. A worker is declared dead after this many
   consecutive missed heartbeats, and a shard is failed over after
   this many respawns. *)
let dead_misses = 20
let respawn_cap = 100

(* One logical client request. It has exactly one leg at a time: one
   [seq] in one worker's inflight table. A respawn hands the same
   [seq] to the replacement process; a failover re-routes the request
   through the shrunk ring under a fresh [seq]. Removing the leg from
   its table is what completes the request, so a duplicate answer
   finds nothing and is dropped. *)
type lreq = {
  lr_id : Json.t;
  lr_key : string;  (* functional key: the routing key *)
  lr_req : Json.t;  (* request document, re-framed per leg *)
  lr_faults : (string * Json.t) list;  (* scheduled job chaos, per leg *)
  lr_enq : float;
  lr_complete : tag:string -> Json.t -> unit;
}

type worker = {
  shard : int;
  mutable pid : int;
  mutable to_w : Unix.file_descr;
  mutable from_w : Unix.file_descr;
  mutable wout : outstream;
  win : instream;
  (* seq -> logical request whose leg is on this worker; a respawned
     worker is handed every entry again (re-framed from the lreq,
     byte-identical to the original frame). *)
  inflight : (int, lreq) Hashtbl.t;
  mutable served : int;
  mutable hits : int;
  mutable misses : int;
  mutable errs : int;
  mutable restarts : int;
  mutable alive : bool;
  mutable got_summary : bool;
  mutable health : Resilience.Health.t;
  mutable dead : bool;  (* failed over: off the ring for good *)
  mutable drop_pings : int;  (* chaos: heartbeats to lose in transit *)
  mutable saw_hello : bool;  (* this incarnation's stream is synced *)
}

type t = {
  cfg : Serve_config.t;
  cache_dir : string option;
  jit : (bool * int) option;
  mutable ring : Shard.t;  (* shrinks as workers are failed over *)
  mutable workers : worker array;
  mutable next_seq : int;
  stop : Server.Stop.t;
  manifest : Manifest.t option;
  on_spawn : (shard:int -> pid:int -> unit) option;
  chaos : (requests:int -> Chaos.action list) option;
  mutable chaos_requests : int;
  mutable ping_n : int;
  metrics0 : Metrics.snapshot;
  mutable summaries : (int * Json.t) list;
  mutable shutting_down : bool;
  (* tier-level tallies over every client connection *)
  mutable s_served : int;
  mutable s_errors : int;
  mutable s_hits : int;
  mutable s_timeouts : int;
  mutable s_shed : int;
  mutable s_isolated : int;
  (* live admission state, across connections *)
  mutable inflight_work : int;
  tenant_inflight : (string, int) Hashtbl.t;
  scratch : Bytes.t;
}

let worker_spec t shard =
  let cfg =
    (* Workers must not double-write the manifest; everything else
       (jobs, queue, deadline, heartbeat) is theirs. *)
    { t.cfg with Serve_config.manifest = None }
  in
  Json.to_string
    (Json.Obj
       ([
          ("shard", Json.Int shard);
          ( "cache",
            match t.cache_dir with
            | None -> Json.Null
            | Some d -> Json.String d );
        ]
       @ (match t.jit with
         | None -> []
         | Some (enabled, threshold) ->
           [
             ( "jit",
               Json.Obj
                 [
                   ("enabled", Json.Bool enabled);
                   ("threshold", Json.Int threshold);
                 ] );
           ])
       @ [ ("config", Serve_config.to_json cfg) ]))

let spawn_env spec =
  let prefix = env_var ^ "=" in
  let kept =
    List.filter
      (fun s ->
        not
          (String.length s >= String.length prefix
          && String.sub s 0 (String.length prefix) = prefix))
      (Array.to_list (Unix.environment ()))
  in
  Array.of_list (kept @ [ prefix ^ spec ])

(* Spawn the worker process for [w.shard] and (re)wire its pipes. The
   child inherits stderr, so worker diagnostics (isolation backtraces,
   cache warnings) land on the server's stderr. Pipe fds are
   created close-on-exec: the ends meant for the child are passed
   through [create_process_env]'s dup2 (which clears the flag on the
   child's copies), and nothing leaks into sibling workers — vital,
   or a dead worker's pipe would never read EOF while a sibling still
   held its write end. *)
let fresh_health cfg =
  Resilience.Health.create
    ~interval_s:(float_of_int cfg.Serve_config.heartbeat_ms /. 1000.)
    ~dead_misses ()

let spawn_into t w =
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let stdout_r, stdout_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process_env exe [| exe |]
      (spawn_env (worker_spec t w.shard))
      stdin_r stdout_w Unix.stderr
  in
  Unix.close stdin_r;
  Unix.close stdout_w;
  Unix.set_nonblock stdin_w;
  Unix.set_nonblock stdout_r;
  w.pid <- pid;
  w.to_w <- stdin_w;
  w.from_w <- stdout_r;
  w.wout <- outstream ();
  Buffer.clear w.win.ibuf;
  w.alive <- true;
  w.got_summary <- false;
  w.saw_hello <- false;
  (* A fresh process starts with a clean bill of health: accumulated
     misses belonged to its predecessor. *)
  w.health <- fresh_health t.cfg;
  (match t.on_spawn with None -> () | Some f -> f ~shard:w.shard ~pid)

let rec reap pid =
  match Unix.waitpid [] pid with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | _ -> ()

let stop_frame = lazy (frame_string (Json.Obj [ ("op", Json.String "stop") ]))

(* Every leg of a logical request is framed from the lreq, so a
   respawned (or failover) worker receives bytes identical to the
   original frame apart from [seq] — its scheduled faults included. *)
let job_frame lr ~seq =
  frame_string
    (Json.Obj
       ([
          ("op", Json.String "job");
          ("seq", Json.Int seq);
          ("enq", Json.Float lr.lr_enq);
          ("id", lr.lr_id);
          ("req", lr.lr_req);
        ]
       @ lr.lr_faults))

(* Give [lr] its leg: route it by functional key through the current
   ring under a fresh [seq]. Every machine and controller variant of a
   stream reaches the worker that holds its tape, and identical
   requests reach the same worker, whose result cache owns them. *)
let route_lreq t lr =
  let w = t.workers.(Shard.route t.ring lr.lr_key) in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Hashtbl.replace w.inflight seq lr;
  out_push w.wout (job_frame lr ~seq)

let submit t (p : Server.parsed) req ~faults ~enq ~complete =
  route_lreq t
    {
      lr_id = p.Server.id;
      lr_key = Request.functional_key req;
      lr_req = Request.to_json req;
      lr_faults = fault_members faults;
      lr_enq = enq;
      lr_complete = complete;
    }

let create ?stop ?manifest ?on_spawn ?chaos ?cache_dir ?jit cfg =
  let workers_n = max 1 cfg.Serve_config.workers in
  let cfg = { cfg with Serve_config.workers = workers_n } in
  let t =
    {
      cfg;
      cache_dir;
      jit;
      ring = Shard.ring ~workers:workers_n ();
      workers = [||];
      next_seq = 0;
      stop = (match stop with Some s -> s | None -> Server.Stop.create ());
      manifest;
      on_spawn;
      chaos;
      chaos_requests = 0;
      ping_n = 0;
      metrics0 = Metrics.snapshot ();
      summaries = [];
      shutting_down = false;
      s_served = 0;
      s_errors = 0;
      s_hits = 0;
      s_timeouts = 0;
      s_shed = 0;
      s_isolated = 0;
      inflight_work = 0;
      tenant_inflight = Hashtbl.create 8;
      scratch = Bytes.create 65536;
    }
  in
  t.workers <-
    Array.init workers_n (fun shard ->
        {
          shard;
          pid = -1;
          to_w = Unix.stdin;
          from_w = Unix.stdin;
          wout = outstream ();
          win = { ibuf = Buffer.create 4096 };
          inflight = Hashtbl.create 32;
          served = 0;
          hits = 0;
          misses = 0;
          errs = 0;
          restarts = 0;
          alive = false;
          got_summary = false;
          health = fresh_health cfg;
          dead = false;
          drop_pings = 0;
          saw_hello = false;
        });
  Array.iter (fun w -> spawn_into t w) t.workers;
  t

(* Tier-level outcome bookkeeping, including the timeout/shed counter
   bumps (workers don't bump those themselves, so the merged counters
   count each event exactly once). *)
let tally t ~tag ~kind =
  t.s_served <- t.s_served + 1;
  match tag with
  | "hit" -> t.s_hits <- t.s_hits + 1
  | "fresh" -> ()
  | _ -> (
    t.s_errors <- t.s_errors + 1;
    match kind with
    | Some "timeout" ->
      t.s_timeouts <- t.s_timeouts + 1;
      Metrics.Counter.incr timeouts
    | Some "overloaded" ->
      t.s_shed <- t.s_shed + 1;
      Metrics.Counter.incr shed
    | Some "internal" -> t.s_isolated <- t.s_isolated + 1
    | _ -> ())

(* Deliver the client response of a logical request whose leg the
   worker [w] answered (the caller has removed the leg). *)
let complete_lreq t w lr ~tag ~kind resp =
  w.served <- w.served + 1;
  (match tag with
  | "hit" -> w.hits <- w.hits + 1
  | "fresh" -> w.misses <- w.misses + 1
  | _ -> w.errs <- w.errs + 1);
  Metrics.Histogram.observe_s h_tier (Unix.gettimeofday () -. lr.lr_enq);
  tally t ~tag ~kind;
  lr.lr_complete ~tag resp

(* [w]'s inflight legs in submission order. *)
let inflight_legs w =
  Hashtbl.fold (fun seq lr acc -> (seq, lr) :: acc) w.inflight []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* Shutdown straggler path: there is no respawn to hand work to, so
   every pending request on [w] is answered with an internal error. *)
let abort_pending w =
  let legs = inflight_legs w in
  Hashtbl.reset w.inflight;
  List.iter
    (fun (_, lr) ->
      lr.lr_complete ~tag:"error"
        (Server.error_response lr.lr_id
           (Diag.Internal "worker exited during shutdown")))
    legs

(* Terminal failover: [w] is gone for good (heartbeat death or respawn
   cap). Shrink the ring so only the dead worker's keys move, re-route
   its outstanding legs through the survivors, and keep serving
   degraded. [w]'s pipes must already be closed and the process
   reaped. With no survivors there is nothing to fail over to and the
   tier gives up. *)
let fail_over t w ~reason =
  w.dead <- true;
  Resilience.Health.force_dead w.health ~reason;
  let survivors = List.filter (fun s -> s <> w.shard) (Shard.alive t.ring) in
  if survivors = [] then begin
    abort_pending w;
    raise
      (Cache.Diag_error
         (Diag.Internal
            (Printf.sprintf "worker %d is gone (%s) and no workers remain"
               w.shard reason)))
  end;
  Metrics.Counter.incr failovers;
  Format.eprintf
    "disesim serve: worker %d failed over (%s); serving degraded on %d \
     shard%s@."
    w.shard reason (List.length survivors)
    (if List.length survivors = 1 then "" else "s");
  t.ring <- Shard.remove t.ring w.shard;
  let legs = inflight_legs w in
  Hashtbl.reset w.inflight;
  List.iter (fun (_, lr) -> route_lreq t lr) legs

(* Supervision-initiated death of a live process: heartbeat loss means
   the worker may be wedged rather than exited, so it is killed before
   the blocking reap. *)
let declare_dead t w ~reason =
  Format.eprintf "disesim serve: worker %d (pid %d) declared dead: %s@."
    w.shard w.pid reason;
  (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try Unix.close w.to_w with Unix.Unix_error _ -> ());
  (try Unix.close w.from_w with Unix.Unix_error _ -> ());
  w.alive <- false;
  reap w.pid;
  fail_over t w ~reason

(* A worker died (its output pipe reached EOF) or poisoned its frame stream
   with work outstanding. Reap it, spawn a replacement on the same
   shard, and resubmit every inflight leg. A resubmitted job that had
   already stored its result before the crash comes back as a cache
   hit; one that had not is recomputed bit for bit — every result is
   a deterministic function of its request.
   Past the respawn cap the shard is failed over instead; during
   shutdown there is no respawn and stragglers are answered with an
   internal error. *)
let handle_crash t w reason =
  (* The poisoned-stream path arrives here with the process still
     running; the kill is a no-op for a worker that already exited. *)
  (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try Unix.close w.to_w with Unix.Unix_error _ -> ());
  (try Unix.close w.from_w with Unix.Unix_error _ -> ());
  w.alive <- false;
  reap w.pid;
  if t.shutting_down then abort_pending w
  else begin
    w.restarts <- w.restarts + 1;
    if w.restarts > respawn_cap then
      fail_over t w
        ~reason:
          (Printf.sprintf "%s; respawn cap exhausted (%d respawns)" reason
             w.restarts)
    else begin
      Format.eprintf
        "disesim serve: worker %d (pid %d) exited unexpectedly (%s); \
         respawning@."
        w.shard w.pid reason;
      spawn_into t w;
      List.iter
        (fun (seq, lr) -> out_push w.wout (job_frame lr ~seq))
        (inflight_legs w)
    end
  end

let dispatch t w doc =
  match Json.member "op" doc with
  | Some (Json.String "resp") -> (
    let seq = match Json.member "seq" doc with Some (Json.Int s) -> s | _ -> -1 in
    match Hashtbl.find_opt w.inflight seq with
    | None -> () (* a duplicate after a respawn race *)
    | Some lr ->
      Hashtbl.remove w.inflight seq;
      let tag =
        match Json.member "tag" doc with Some (Json.String s) -> s | _ -> "error"
      in
      let kind =
        match Json.member "kind" doc with Some (Json.String s) -> Some s | _ -> None
      in
      let resp =
        match Json.member "resp" doc with
        | Some r -> r
        | None ->
          Server.error_response lr.lr_id
            (Diag.Internal "worker response without body")
      in
      complete_lreq t w lr ~tag ~kind resp)
  | Some (Json.String "pong") -> Resilience.Health.pong w.health
  | Some (Json.String "summary") ->
    w.got_summary <- true;
    t.summaries <- (w.shard, doc) :: t.summaries
  | _ -> ()

(* Pump one readable worker pipe: pull whatever bytes are there,
   dispatch the complete frames, respawn on EOF. A torn frame at pipe
   EOF (a worker died mid-write) is discarded, never parsed — the
   respawn resubmits the affected requests. A poisoned stream (bad
   length prefix, non-JSON body) means the byte boundary is lost for
   good: the worker is killed and crash-handled the same way. *)
let pump_worker t w =
  match Unix.read w.from_w t.scratch 0 (Bytes.length t.scratch) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error (e, _, _) ->
    handle_crash t w (Unix.error_message e)
  | 0 ->
    if Buffer.length w.win.ibuf > 0 then begin
      Metrics.Counter.incr torn_frames;
      Buffer.clear w.win.ibuf
    end;
    handle_crash t w "pipe closed"
  | n -> (
    Buffer.add_subbytes w.win.ibuf t.scratch 0 n;
    (* Sync on the hello frame before trusting the stream: a fresh
       incarnation's first bytes may be module-init stdout pollution
       from whatever is linked into the host executable. *)
    let synced =
      w.saw_hello
      ||
      let data = Buffer.contents w.win.ibuf in
      let magic = hello_frame w.shard in
      match find_sub data magic with
      | Some i ->
        Buffer.clear w.win.ibuf;
        let start = i + String.length magic in
        Buffer.add_substring w.win.ibuf data start (String.length data - start);
        w.saw_hello <- true;
        true
      | None ->
        if String.length data > hello_preamble_limit then begin
          Metrics.Counter.incr torn_frames;
          handle_crash t w "no hello from worker"
        end;
        false
    in
    if synced then begin
      let frames, poisoned = extract_frames w.win in
      List.iter (dispatch t w) frames;
      if poisoned then begin
        Metrics.Counter.incr torn_frames;
        handle_crash t w "corrupt frame stream"
      end
    end)

(* A failed write means the worker is dead or dying, but the frames it
   wrote before it died may still sit in its output pipe. Kill it, then
   read that pipe as [pump_worker] does, blocking, up to the EOF that
   comes once the process is gone: answered requests complete instead
   of running again, a torn tail is counted, and the EOF crash-handles
   the worker. *)
let flush_worker t w =
  if w.alive && out_pending w.wout then
    match out_write w.to_w w.wout with
    | () -> ()
    | exception Unix.Unix_error (_, _, _) ->
      (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
      Unix.clear_nonblock w.from_w;
      let pid = w.pid in
      while w.alive && w.pid = pid do
        pump_worker t w
      done

(* --- supervision -------------------------------------------------------- *)

(* One supervision pass, run from the event loop between selects:
   send due heartbeats and fail Dead workers over. A worker is pinged
   only once its hello has synced the stream: start-up (exec, module
   initialization) is not a missed heartbeat. *)
let supervise t =
  if (not t.shutting_down) && t.cfg.Serve_config.heartbeat_ms > 0 then
    Array.iter
      (fun w ->
        if w.alive && not w.dead then begin
          let h = w.health in
          if w.saw_hello && Resilience.Health.due h then begin
            if w.drop_pings > 0 then
              (* chaos: the ping is lost in transit — never queued, so
                 it can only ever count as a miss *)
              w.drop_pings <- w.drop_pings - 1
            else begin
              t.ping_n <- t.ping_n + 1;
              out_push w.wout
                (frame_string
                   (Json.Obj
                      [ ("op", Json.String "ping"); ("t", Json.Int t.ping_n) ]))
            end;
            Resilience.Health.ping_sent h
          end;
          match Resilience.Health.reason h with
          | None -> ()
          | Some reason -> declare_dead t w ~reason
        end)
      t.workers

(* --- chaos -------------------------------------------------------------- *)

let apply_chaos t act =
  let live shard =
    if shard >= 0 && shard < Array.length t.workers then
      let w = t.workers.(shard) in
      if w.alive && not w.dead then Some w else None
    else None
  in
  match act with
  | Chaos.Kill { shard; permanent } -> (
    match live shard with
    | None -> ()
    | Some w ->
      (* The EOF on its pipe reaches [handle_crash], which respawns
         the shard — or, with the cap pre-exhausted for a permanent
         kill, fails it over. *)
      if permanent then w.restarts <- max w.restarts respawn_cap;
      (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ()))
  | Chaos.Stall { shard; ms } -> (
    match live shard with
    | None -> ()
    | Some w ->
      out_push w.wout
        (frame_string
           (Json.Obj [ ("op", Json.String "stall"); ("ms", Json.Int ms) ])))
  | Chaos.Torn { shard; cut } -> (
    match live shard with
    | None -> ()
    | Some w ->
      out_push w.wout
        (frame_string
           (Json.Obj
              [ ("op", Json.String "chaos_torn"); ("cut", Json.Int cut) ])))
  | Chaos.Drop_ping { shard } -> (
    match live shard with
    | None -> ()
    | Some w -> w.drop_pings <- w.drop_pings + 1)
  | Chaos.Raise | Chaos.Sleep _ -> ()  (* job faults travel in the frame *)

(* Count one admitted client request against the chaos schedule and
   return the faults it releases. Called at the front door, never for
   internal resubmissions — "kill worker 2 after 40 requests" means
   client requests. *)
let chaos_tick t =
  match t.chaos with
  | None -> []
  | Some f ->
    t.chaos_requests <- t.chaos_requests + 1;
    f ~requests:t.chaos_requests

(* --- merged summary ----------------------------------------------------- *)

let merged_summary t =
  let metrics =
    List.fold_left
      (fun acc (_, doc) ->
        match Json.member "metrics" doc with
        | Some m -> Metrics.merge acc (Metrics.of_json m)
        | None -> acc)
      (Metrics.delta ~since:t.metrics0 (Metrics.snapshot ()))
      t.summaries
  in
  let workers_json =
    Array.to_list
      (Array.map
         (fun w ->
           Json.Obj
             [
               ("shard", Json.Int w.shard);
               ("pid", Json.Int w.pid);
               ("served", Json.Int w.served);
               ("cache_hits", Json.Int w.hits);
               ("cache_misses", Json.Int w.misses);
               ("errors", Json.Int w.errs);
               ("restarts", Json.Int w.restarts);
               ( "health",
                 Json.String
                   (Resilience.Health.state_name (Resilience.Health.state w.health))
               );
             ])
         t.workers)
  in
  (* The post-failover topology: which shards still hold ring points.
     [degraded] flags that at least one shard was failed over and its
     keys now live with the survivors. *)
  let alive_shards = Shard.alive t.ring in
  let dead_shards =
    List.filter
      (fun s -> not (List.mem s alive_shards))
      (List.init (Array.length t.workers) Fun.id)
  in
  let topology =
    Json.Obj
      [
        ("workers", Json.Int (Array.length t.workers));
        ("alive", Json.List (List.map (fun s -> Json.Int s) alive_shards));
        ("dead", Json.List (List.map (fun s -> Json.Int s) dead_shards));
        ("degraded", Json.Bool (dead_shards <> []));
      ]
  in
  let summary =
    {
      Server.served = t.s_served;
      errors = t.s_errors;
      cache_hits = t.s_hits;
      timeouts = t.s_timeouts;
      shed = t.s_shed;
      isolated = t.s_isolated;
    }
  in
  let fields =
    [
      ("record", Json.String "serve_summary");
      ("served", Json.Int t.s_served);
      ("errors", Json.Int t.s_errors);
      ("cache_hits", Json.Int t.s_hits);
      ("timeouts", Json.Int t.s_timeouts);
      ("shed", Json.Int t.s_shed);
      ("isolated", Json.Int t.s_isolated);
      ("workers", Json.List workers_json);
      ("topology", topology);
      (* the counters section of [metrics], on its own for readers
         that want only the event counts *)
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) metrics.Metrics.counters) );
      ("metrics", Metrics.to_json metrics);
    ]
  in
  (match t.manifest with None -> () | Some m -> Manifest.emit m fields);
  summary

(* Graceful tier teardown: queue a stop frame for every live worker,
   drain their summary frames (collecting late responses on the way),
   then reap. A worker that neither summarizes nor exits within the
   deadline is killed — shutdown must terminate even if a job is
   wedged. *)
let shutdown t =
  t.shutting_down <- true;
  Array.iter
    (fun w -> if w.alive then out_push w.wout (Lazy.force stop_frame))
    t.workers;
  let deadline = Unix.gettimeofday () +. 10. in
  let outstanding () =
    Array.exists
      (fun w -> w.alive && (not w.got_summary || out_pending w.wout))
      t.workers
  in
  let rec drain () =
    if outstanding () && Unix.gettimeofday () < deadline then begin
      Array.iter (fun w -> flush_worker t w) t.workers;
      let rs =
        Array.to_list t.workers
        |> List.filter_map (fun w ->
               if w.alive && not w.got_summary then Some w.from_w else None)
      in
      let ws =
        Array.to_list t.workers
        |> List.filter_map (fun w ->
               if w.alive && out_pending w.wout then Some w.to_w else None)
      in
      if rs <> [] || ws <> [] then begin
        (match Unix.select rs ws [] 0.25 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | rready, _, _ ->
          Array.iter
            (fun w ->
              if w.alive && List.mem w.from_w rready then pump_worker t w)
            t.workers);
        drain ()
      end
    end
  in
  drain ();
  Array.iter
    (fun w ->
      if w.alive then begin
        if not w.got_summary then (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try Unix.close w.to_w with Unix.Unix_error _ -> ());
        (try Unix.close w.from_w with Unix.Unix_error _ -> ());
        reap w.pid;
        w.alive <- false
      end)
    t.workers;
  merged_summary t

(* --- the front end ------------------------------------------------------ *)

(* A client connection: the CLI's stdin/stdout pair, or one accepted
   socket. Input is framed into lines as it is read; at most [queue]
   of a connection's lines are in flight at once (its window), and
   the rest wait in [lines] until slots free. *)
type line = Line of string | Oversized

type conn = {
  ifd : Unix.file_descr;
  ofd : Unix.file_descr;
  owned : bool;  (* an accepted socket, closed when done; stdio is the caller's *)
  cid : int;
  cbuf : Buffer.t;  (* partial input line *)
  mutable oversized : bool;  (* discarding an over-long line's tail *)
  lines : line Queue.t;  (* framed, not yet admitted *)
  cout : outstream;
  mutable lineno : int;
  mutable next_slot : int;
  mutable next_emit : int;
  ready : (int, Json.t) Hashtbl.t;
  (* slot -> admission release for jobs currently in flight; drained
     eagerly when the connection dies so a failed client cannot pin
     its tenant's quota (or the shed budget) until its jobs finish. *)
  releases : (int, unit -> unit) Hashtbl.t;
  mutable pending : int;
  mutable eof : bool;
  mutable closed : bool;
  mutable cserved : int;
  mutable cerrors : int;
  mutable chits : int;
}

let new_conn ~ifd ~ofd ~owned cid =
  {
    ifd;
    ofd;
    owned;
    cid;
    cbuf = Buffer.create 256;
    oversized = false;
    lines = Queue.create ();
    cout = outstream ();
    lineno = 0;
    next_slot = 0;
    next_emit = 0;
    ready = Hashtbl.create 16;
    releases = Hashtbl.create 16;
    pending = 0;
    eof = false;
    closed = false;
    cserved = 0;
    cerrors = 0;
    chits = 0;
  }

let conn_tally c ~tag =
  c.cserved <- c.cserved + 1;
  match tag with
  | "hit" -> c.chits <- c.chits + 1
  | "fresh" -> ()
  | _ -> c.cerrors <- c.cerrors + 1

(* Complete one slot and flush the in-order prefix to the
   connection's output queue. A closed connection still completes
   (admission state must be released) but the response is dropped. *)
let finish_slot c slot resp =
  c.pending <- c.pending - 1;
  if not c.closed then begin
    Hashtbl.replace c.ready slot resp;
    let continue = ref true in
    while !continue do
      match Hashtbl.find_opt c.ready c.next_emit with
      | None -> continue := false
      | Some r ->
        Hashtbl.remove c.ready c.next_emit;
        out_push c.cout (Json.to_string r ^ "\n");
        c.next_emit <- c.next_emit + 1
    done
  end

(* Admission against what is in flight across all connections: the
   per-tenant quota first, then the cumulative [dyn_target] budget.
   The first job admitted into an empty tier always runs, however
   large: shedding must bound latency, not deadlock a
   heavy-but-legitimate job. *)
let admit_live t (p : Server.parsed) req =
  let cfg = t.cfg in
  let tenant = Option.value p.Server.tenant ~default:"" in
  let quota_ok =
    match cfg.Serve_config.tenant_quota with
    | None -> Ok ()
    | Some q ->
      let q = max 1 q in
      let n = Option.value (Hashtbl.find_opt t.tenant_inflight tenant) ~default:0 in
      if n >= q then
        Error
          (Diag.Overloaded
             (Printf.sprintf
                "tenant quota: %s already has %d jobs in flight (quota %d)"
                (if tenant = "" then "the anonymous tenant"
                 else Printf.sprintf "tenant %S" tenant)
                n q))
      else Ok ()
  in
  match quota_ok with
  | Error d -> Error d
  | Ok () -> (
    let w = req.Request.dyn_target in
    match cfg.Serve_config.shed_above with
    | Some hw when t.inflight_work > 0 && t.inflight_work + w > hw ->
      Error
        (Diag.Overloaded
           (Printf.sprintf
              "load shed: job of %d dynamic instructions would push the \
               in-flight work past the high-water mark of %d"
              w hw))
    | _ ->
      Hashtbl.replace t.tenant_inflight tenant
        (Option.value (Hashtbl.find_opt t.tenant_inflight tenant) ~default:0 + 1);
      t.inflight_work <- t.inflight_work + w;
      (* Idempotent: a dead connection's releases run eagerly from
         [fail_conn] and again when the worker's response arrives. *)
      let released = ref false in
      Ok
        (fun () ->
          if not !released then begin
            released := true;
            t.inflight_work <- t.inflight_work - w;
            match Hashtbl.find_opt t.tenant_inflight tenant with
            | Some 1 | None -> Hashtbl.remove t.tenant_inflight tenant
            | Some n -> Hashtbl.replace t.tenant_inflight tenant (n - 1)
          end))

let handle_parsed t c slot (p : Server.parsed) =
  let direct d =
    tally t ~tag:"error" ~kind:(Some (Diag.category d));
    conn_tally c ~tag:"error";
    finish_slot c slot (Server.error_response p.Server.id d)
  in
  match p.Server.req with
  | Error d -> direct d
  | Ok req -> (
    match admit_live t p req with
    | Error d -> direct d
    | Ok release ->
      Hashtbl.replace c.releases slot release;
      (* The schedule ticks before the request is framed: its job
         faults ride in this request's frame, and the worker faults go
         out behind it. *)
      let acts = chaos_tick t in
      submit t p req ~faults:acts ~enq:(Unix.gettimeofday ())
        ~complete:(fun ~tag resp ->
          Hashtbl.remove c.releases slot;
          release ();
          conn_tally c ~tag;
          finish_slot c slot resp);
      List.iter (apply_chaos t) acts)

(* Split freshly read bytes into lines, honoring the 1 MiB line bound:
   an over-long line is discarded up to its newline and costs one
   parse-error slot. *)
let feed_conn c data =
  let len = String.length data in
  let start = ref 0 in
  for i = 0 to len - 1 do
    if data.[i] = '\n' then begin
      let seg = i - !start in
      if c.oversized then begin
        c.oversized <- false;
        Queue.add Oversized c.lines
      end
      else if Buffer.length c.cbuf + seg > Server.max_line_bytes then begin
        Buffer.clear c.cbuf;
        Queue.add Oversized c.lines
      end
      else begin
        Queue.add (Line (Buffer.contents c.cbuf ^ String.sub data !start seg)) c.lines;
        Buffer.clear c.cbuf
      end;
      start := i + 1
    end
  done;
  if !start < len then
    if c.oversized then ()
    else if Buffer.length c.cbuf + (len - !start) > Server.max_line_bytes then begin
      Buffer.clear c.cbuf;
      c.oversized <- true
    end
    else Buffer.add_substring c.cbuf data !start (len - !start)

(* End of input: a trailing line without its newline still gets an
   answer. *)
let end_input c =
  c.eof <- true;
  if c.oversized then begin
    c.oversized <- false;
    Queue.add Oversized c.lines
  end
  else if Buffer.length c.cbuf > 0 then begin
    Queue.add (Line (Buffer.contents c.cbuf)) c.lines;
    Buffer.clear c.cbuf
  end

(* Admit framed lines in input order while the connection's window
   has a free slot. Runs after every read and on every event-loop
   pass, so lines that arrived together are admitted as slots free,
   not only when the fd turns readable again. Blank lines take no
   slot but still count for line numbers. *)
let admit_lines t c =
  while c.pending < t.cfg.Serve_config.queue && not (Queue.is_empty c.lines) do
    c.lineno <- c.lineno + 1;
    match Queue.pop c.lines with
    | Line l when String.trim l = "" -> ()
    | item ->
      let slot = c.next_slot in
      c.next_slot <- slot + 1;
      c.pending <- c.pending + 1;
      handle_parsed t c slot
        (match item with
        | Line l -> Server.parse_job ~lineno:c.lineno l
        | Oversized -> Server.oversized_line ~lineno:c.lineno)
  done

(* A client that hangs up mid-response must surface as a write error
   on its connection, not as a process-killing SIGPIPE. *)
let with_sigpipe_ignored f =
  let prev =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  Fun.protect
    ~finally:(fun () ->
      match prev with
      | Some b -> ( try Sys.set_signal Sys.sigpipe b with _ -> ())
      | None -> ())
    f

type front_end =
  | Stdio of { input : Unix.file_descr; output : Unix.file_descr }
  | Socket of string

let run ?stop ?manifest ?on_spawn ?chaos ?cache_dir ?jit cfg front_end =
  with_sigpipe_ignored @@ fun () ->
  let listener =
    match front_end with
    | Stdio _ -> None
    | Socket path ->
      let sock = Server.listen_socket ~path in
      Unix.set_nonblock sock;
      (* Workers are spawned (and respawned) while connections are
         open; any fd not marked cloexec leaks into them. A worker
         holding a duplicate of a client's socket keeps that client
         from ever seeing EOF after the coordinator closes its copy. *)
      Unix.set_close_on_exec sock;
      Some (sock, path)
  in
  let finally () =
    match listener with
    | None -> ()
    | Some (sock, path) -> (
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  in
  Fun.protect ~finally @@ fun () ->
  let t = create ?stop ?manifest ?on_spawn ?chaos ?cache_dir ?jit cfg in
  (* The select deadline bounds the supervision tick: a quarter of the
     heartbeat interval, so every ping leaves on time, and at most
     0.25 s. *)
  let tick =
    match t.cfg.Serve_config.heartbeat_ms with
    | 0 -> 0.25
    | hb -> Float.min 0.25 (float_of_int hb /. 4000.)
  in
  let conns =
    ref
      (match front_end with
      | Stdio { input; output } -> [ new_conn ~ifd:input ~ofd:output ~owned:false 0 ]
      | Socket _ -> [])
  in
  let next_cid = ref (List.length !conns) in
  let close_conn c =
    if not c.closed then begin
      c.closed <- true;
      if c.owned then begin
        (try Unix.close c.ifd with Unix.Unix_error _ -> ());
        Format.eprintf
          "disesim serve: connection %d done: served %d job%s (%d error%s, %d \
           cache hit%s)@."
          c.cid c.cserved
          (if c.cserved = 1 then "" else "s")
          c.cerrors
          (if c.cerrors = 1 then "" else "s")
          c.chits
          (if c.chits = 1 then "" else "s")
      end
    end
  in
  let fail_conn c reason =
    if not c.closed then begin
      Metrics.Counter.incr conn_failures;
      Format.eprintf "disesim serve: connection %d failed (isolated): %s@."
        c.cid reason;
      c.closed <- true;
      if c.owned then (try Unix.close c.ifd with Unix.Unix_error _ -> ());
      Queue.clear c.lines;
      (* The peer is gone for good (a half-closed client keeps its
         admission until each job completes; this path is hard
         failure), so holding quota for work whose answers can never
         be delivered would starve the tenant's later connections.
         Releases are idempotent, so the worker responses that still
         arrive for these slots release nothing twice. *)
      Hashtbl.iter (fun _ release -> release ()) c.releases;
      Hashtbl.reset c.releases
    end
  in
  let accept_all sock =
    let continue = ref true in
    while !continue do
      match Unix.accept sock with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> continue := false
      | exception Unix.Unix_error (e, _, _) ->
        Format.eprintf "disesim serve: accept failed: %s@."
          (Unix.error_message e);
        continue := false
      | fd, _ ->
        Unix.set_nonblock fd;
        Unix.set_close_on_exec fd;
        conns := new_conn ~ifd:fd ~ofd:fd ~owned:true !next_cid :: !conns;
        incr next_cid
    done
  in
  let read_conn c =
    match Unix.read c.ifd t.scratch 0 (Bytes.length t.scratch) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
    | exception Unix.Unix_error (e, _, _) -> fail_conn c (Unix.error_message e)
    | 0 ->
      end_input c;
      admit_lines t c
    | n ->
      feed_conn c (Bytes.sub_string t.scratch 0 n);
      admit_lines t c
  in
  let write_conn c =
    match out_write c.ofd c.cout with
    | () -> ()
    | exception Unix.Unix_error (e, _, _) -> fail_conn c (Unix.error_message e)
  in
  let rec loop () =
    let stopping = Server.Stop.signalled t.stop in
    List.iter
      (fun c ->
        if stopping then begin
          (* Graceful drain: nothing more is read or admitted; admitted
             work completes and flushes, then the loop exits. *)
          c.eof <- true;
          Queue.clear c.lines
        end;
        if not c.closed then admit_lines t c;
        if (not c.closed) && c.eof && c.pending = 0 && Queue.is_empty c.lines
           && not (out_pending c.cout)
        then close_conn c)
      !conns;
    conns := List.filter (fun c -> not c.closed) !conns;
    if not (!conns = [] && (listener = None || stopping)) then begin
      supervise t;
      Array.iter (fun w -> flush_worker t w) t.workers;
      let rs =
        (match listener with
        | Some (sock, _) when not stopping -> [ sock ]
        | _ -> [])
        @ List.filter_map
            (fun c ->
              (* Per-connection backpressure: read only while the
                 window has room and every framed line is admitted;
                 further bytes wait in the kernel buffer. *)
              if (not c.eof) && c.pending < t.cfg.Serve_config.queue
                 && Queue.is_empty c.lines
              then Some c.ifd
              else None)
            !conns
        @ (Array.to_list t.workers
          |> List.filter_map (fun w -> if w.alive then Some w.from_w else None))
      in
      let ws =
        List.filter_map
          (fun c -> if out_pending c.cout then Some c.ofd else None)
          !conns
        @ (Array.to_list t.workers
          |> List.filter_map (fun w ->
                 if w.alive && out_pending w.wout then Some w.to_w else None))
      in
      (match Unix.select rs ws [] tick with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | rready, wready, _ ->
        (match listener with
        | Some (sock, _) when List.mem sock rready -> accept_all sock
        | _ -> ());
        Array.iter
          (fun w -> if w.alive && List.mem w.from_w rready then pump_worker t w)
          t.workers;
        List.iter
          (fun c -> if (not c.closed) && List.mem c.ifd rready then read_conn c)
          !conns;
        Array.iter
          (fun w -> if w.alive && List.mem w.to_w wready then flush_worker t w)
          t.workers;
        List.iter
          (fun c -> if (not c.closed) && List.mem c.ofd wready then write_conn c)
          !conns);
      loop ()
    end
  in
  match loop () with
  | () -> shutdown t
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    ignore (shutdown t);
    Printexc.raise_with_backtrace e bt
