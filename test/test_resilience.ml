(* Tests for the fault-tolerant serve layer: retry, chaos schedules,
   per-job isolation, deadlines, admission shedding, a sick result
   cache, worker SIGKILL and respawn, heartbeat health, the serve
   counters, and the supervised socket loop. *)

module Json = Dise_telemetry.Json
module Metrics = Dise_telemetry.Metrics
module Diag = Dise_isa.Diag
module Cache = Dise_service.Cache
module Request = Dise_service.Request
module Server = Dise_service.Server
module Coordinator = Dise_service.Coordinator
module Serve_config = Dise_service.Serve_config
module Pool = Dise_service.Pool
module Resilience = Dise_service.Resilience
module Chaos = Dise_service.Chaos
module Json_schema = Dise_telemetry.Json_schema

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

let tmp_counter = ref 0

let with_temp_dir f =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dise-resilience-test-%d-%d" (Unix.getpid ())
         !tmp_counter)
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

(* --- bounded retry ------------------------------------------------------- *)

exception Flaky

let counter name = Metrics.Counter.get (Option.get (Metrics.find_counter name))

let test_retries () =
  let before = counter "retries" in
  let calls = ref 0 in
  let v =
    Resilience.with_retries ~base_delay_s:0.0001 ~max_delay_s:0.001
      ~transient:(function Flaky -> true | _ -> false)
      (fun () ->
        incr calls;
        if !calls < 3 then raise Flaky else 42)
  in
  check int_ "third try succeeds" 42 v;
  check int_ "two retries performed" 3 !calls;
  check bool_ "retries counted" true
    (counter "retries" >= before + 2);
  (* non-transient: no retry *)
  let calls = ref 0 in
  (try
     ignore
       (Resilience.with_retries
          ~transient:(function Flaky -> true | _ -> false)
          (fun () ->
            incr calls;
            failwith "hard"))
   with Failure _ -> ());
  check int_ "non-transient fails on first try" 1 !calls;
  (* exhaustion: last exception propagates *)
  let calls = ref 0 in
  (try
     ignore
       (Resilience.with_retries ~attempts:3 ~base_delay_s:0.0001
          ~max_delay_s:0.001
          ~transient:(function Flaky -> true | _ -> false)
          (fun () ->
            incr calls;
            raise Flaky))
   with Flaky -> ());
  check int_ "exhaustion after [attempts] tries" 3 !calls

(* --- chaos schedules ------------------------------------------------------ *)

let load_schema name =
  Json.parse (Serve_harness.read_file (Filename.concat "../doc/schema" name))

let assert_valid ~schema doc =
  match Json_schema.validate ~schema doc with
  | [] -> ()
  | errs ->
    Alcotest.failf "document fails schema: %a"
      (Format.pp_print_list Json_schema.pp_error)
      errs

(* The schedule files the CI smokes write, as they write them. *)
let ci_schedules =
  [
    (* resilience smoke *)
    {|{"record": "chaos_schedule", "seed": 1, "events": [
        {"after": 2, "action": "raise"},
        {"after": 3, "action": "sleep", "ms": 2000}]}|};
    {|{"record": "chaos_schedule", "seed": 1, "events": [
        {"after": 1, "action": "kill", "shard": 0, "permanent": true}]}|};
    (* serve-tier smoke *)
    {|{"record": "chaos_schedule", "seed": 1, "events": [
        {"after": 1, "action": "sleep", "ms": 3000}]}|};
    (* chaos smoke *)
    {|{"record": "chaos_schedule", "seed": 11, "events": [
        {"after": 5,  "action": "stall", "shard": 0, "ms": 400},
        {"after": 10, "action": "torn",  "shard": 2},
        {"after": 20, "action": "kill",  "shard": 1, "permanent": true}]}|};
  ]

let test_chaos_schedule_parsing () =
  let schema = load_schema "chaos_schedule.schema.json" in
  List.iter
    (fun text ->
      let doc = Json.parse text in
      assert_valid ~schema doc;
      match Chaos.of_json doc with
      | Ok _ -> ()
      | Error d -> Alcotest.fail ("CI schedule rejected: " ^ Diag.to_string d))
    ci_schedules;
  (* job actions fire once each, at their admission count, in file
     order *)
  let fire =
    Serve_harness.schedule
      {|[{"after": 2, "action": "raise"},
         {"after": 1, "action": "sleep", "ms": 50},
         {"after": 2, "action": "sleep", "ms": 7}]|}
  in
  check bool_ "nothing before the first admission" true (fire ~requests:0 = []);
  check bool_ "the sleep at 1" true (fire ~requests:1 = [ Chaos.Sleep { ms = 50 } ]);
  check bool_ "both actions at 2, in file order" true
    (fire ~requests:2 = [ Chaos.Raise; Chaos.Sleep { ms = 7 } ]);
  check bool_ "each event fires once" true (fire ~requests:3 = []);
  (match Chaos.inject Chaos.Raise with
  | () -> Alcotest.fail "raise did not raise"
  | exception Chaos.Injected -> ());
  let t0 = Unix.gettimeofday () in
  Chaos.inject (Chaos.Sleep { ms = 50 });
  check bool_ "sleep stalls" true (Unix.gettimeofday () -. t0 >= 0.04);
  (* a worker action is the coordinator's: nothing happens in a job *)
  Chaos.inject (Chaos.Kill { shard = 0; permanent = true });
  List.iter
    (fun (event, want) ->
      match Chaos.of_json (Json.parse (Printf.sprintf {|{"events": [%s]}|} event)) with
      | Error (Diag.Parse { msg; _ }) -> check string_ event want msg
      | Error d -> Alcotest.fail ("wrong diag: " ^ Diag.to_string d)
      | Ok _ -> Alcotest.fail (event ^ " accepted"))
    [
      ( {|{"after": 1, "action": "raise", "shard": 0}|},
        {|event 0: job action "raise" takes no "shard"|} );
      ( {|{"after": 1, "action": "sleep", "ms": 5, "shard": 1}|},
        {|event 0: job action "sleep" takes no "shard"|} );
      ({|{"after": 1, "action": "sleep"}|}, {|event 0: "sleep" needs a positive integer "ms"|});
      ( {|{"after": 1, "action": "sleep", "ms": 0}|},
        {|event 0: "sleep" needs a positive integer "ms"|} );
      ({|{"after": 1, "action": "kill"}|}, {|event 0: missing or non-integer "shard"|});
      ( {|{"after": 1, "action": "kill", "shard": 0, "permanant": true}|},
        {|event 0: unknown member "permanant"|} );
    ];
  match Chaos.of_json (Json.parse {|{"sede": 3, "events": []}|}) with
  | Error (Diag.Parse { msg; _ }) -> check string_ "top-level typo" {|unknown member "sede"|} msg
  | _ -> Alcotest.fail "a misspelled seed was accepted"

(* --- per-task isolation in the pool -------------------------------------- *)

exception Poison of int

let test_pool_outcomes () =
  let tasks =
    Array.init 6 (fun i () -> if i = 2 then raise (Poison i) else i * 10)
  in
  let outcomes = Pool.run_outcomes ~jobs:3 tasks in
  check int_ "every task has an outcome" 6 (Array.length outcomes);
  Array.iteri
    (fun i o ->
      match o with
      | Ok v ->
        check bool_ "slot holds its own value" true (i <> 2 && v = i * 10)
      | Error (Poison 2, _) -> check int_ "poison confined to its slot" 2 i
      | Error (e, _) -> Alcotest.fail (Printexc.to_string e))
    outcomes;
  (* run (the raising variant) still re-raises the lowest failure *)
  match Pool.run ~jobs:3 tasks with
  | _ -> Alcotest.fail "run did not re-raise"
  | exception Poison 2 -> ()

(* --- serve protocol under faults ----------------------------------------- *)

let member name j = Option.get (Json.member name j)
let kind_of r = Json.member "kind" (member "error" r)

let job ?(dyn = 22_000) id =
  Printf.sprintf {|{"id":%d,"bench":"tiny","dyn_target":%d}|} id dyn

(* The acceptance chunk: one poisoned job (a scheduled [raise]), one
   oversized line, N good jobs -> exactly N+2 responses, in order,
   with kinds internal / parse / ok, every one schema-valid, and the
   server survives to serve the whole stream. The raise costs only
   its own slot: its batch-mates answer ok. *)
let test_serve_mixed_chunk () =
  let big =
    {|{"id":3,"bench":"tiny","pad":"|}
    ^ String.make (Server.max_line_bytes + 32) 'x'
    ^ {|"}|}
  in
  let lines =
    [ job ~dyn:22_001 1; job ~dyn:22_002 2; big; job ~dyn:22_003 4;
      job ~dyn:22_004 5 ]
  in
  let summary, rs =
    Serve_harness.serve
      ~cfg:Serve_config.(override (default ()) ~jobs:2 ~queue:8 ())
      ~chaos:(Serve_harness.schedule {|[{"after": 2, "action": "raise"}]|})
      lines
  in
  check int_ "N+2 responses" 5 (List.length rs);
  check int_ "summary served" 5 summary.Server.served;
  check int_ "summary errors" 2 summary.Server.errors;
  check int_ "summary isolated" 1 summary.Server.isolated;
  (match rs with
  | [ r1; r2; r3; r4; r5 ] ->
    check bool_ "good jobs ok, in order" true
      (member "ok" r1 = Json.Bool true
      && member "id" r1 = Json.Int 1
      && member "ok" r4 = Json.Bool true
      && member "id" r4 = Json.Int 4
      && member "ok" r5 = Json.Bool true
      && member "id" r5 = Json.Int 5);
    check bool_ "poisoned job answered internal, id echoed" true
      (member "ok" r2 = Json.Bool false
      && member "id" r2 = Json.Int 2
      && kind_of r2 = Some (Json.String "internal"));
    check bool_ "oversized line answered parse" true
      (member "ok" r3 = Json.Bool false
      && kind_of r3 = Some (Json.String "parse"))
  | _ -> Alcotest.fail "wrong response count");
  let schema = load_schema "serve_response.schema.json" in
  List.iter (assert_valid ~schema) rs

let test_serve_truncated_line_number () =
  let big =
    {|{"id":2,"pad":"|} ^ String.make (Server.max_line_bytes + 32) 'x' ^ {|"}|}
  in
  let _, rs =
    Serve_harness.serve
      ~cfg:Serve_config.(override (default ()) ~jobs:1 ~queue:4 ())
      [ job 1; big; job 3 ]
  in
  match rs with
  | [ _; r2; _ ] -> (
    match Json.member "message" (member "error" r2) with
    | Some (Json.String msg) ->
      check bool_
        (Printf.sprintf "truncation message names line 2 (got %S)" msg)
        true
        (let sub = "line 2 " in
         let rec find i =
           i + String.length sub <= String.length msg
           && (String.sub msg i (String.length sub) = sub || find (i + 1))
         in
         find 0)
    | _ -> Alcotest.fail "no error message")
  | _ -> Alcotest.fail "wrong response count"

let test_serve_deadline () =
  Request.clear_memory ();
  (* upfront expiry: already-spent budget fails fast as timeout *)
  (match
     Request.run_ext
       ~deadline:(Unix.gettimeofday () -. 1.0)
       (Request.v ~dyn_target:22_011 "tiny")
   with
  | Error (Diag.Timeout _) -> ()
  | Error d -> Alcotest.fail ("wrong diag: " ^ Diag.to_string d)
  | Ok _ -> Alcotest.fail "expired deadline did not time out");
  (* mid-simulation: the cooperative poll aborts a fresh run *)
  let req = Request.v ~dyn_target:400_000 "tiny" in
  (match Request.run_ext ~deadline:(Unix.gettimeofday () +. 0.0002) req with
  | Error (Diag.Timeout _) -> ()
  | Error d -> Alcotest.fail ("wrong diag: " ^ Diag.to_string d)
  | Ok _ -> Alcotest.fail "simulation finished inside 0.2ms");
  check int_ "timeout exit-code class is 5" 5
    (Diag.exit_code (Diag.Timeout "x"));
  (* the aborted run left no poisoned memo claim behind *)
  match Request.run_ext req with
  | Ok _ -> ()
  | Error d -> Alcotest.fail ("deadline-free rerun failed: " ^ Diag.to_string d)

let test_serve_shed_first_job_admitted () =
  (* a single job heavier than the high-water mark still runs: the
     mark bounds queued work, it must not starve legitimate jobs *)
  let summary, rs =
    Serve_harness.serve
      ~cfg:
        Serve_config.(override (default ()) ~jobs:1 ~queue:4 ~shed_above:10_000 ())
      [ job ~dyn:22_021 1 ]
  in
  check int_ "nothing shed" 0 summary.Server.shed;
  match rs with
  | [ r ] -> check bool_ "heavy first job served" true (member "ok" r = Json.Bool true)
  | _ -> Alcotest.fail "wrong response count"

let test_serve_manifest_record () =
  let buf = Buffer.create 256 in
  let manifest = Dise_telemetry.Manifest.to_buffer buf in
  let _ =
    Serve_harness.serve
      ~cfg:Serve_config.(override (default ()) ~jobs:1 ~queue:2 ())
      ~manifest [ job 1 ]
  in
  let record = Json.parse (String.trim (Buffer.contents buf)) in
  check bool_ "record tagged serve_summary" true
    (Json.member "record" record = Some (Json.String "serve_summary"));
  check bool_ "served count present" true
    (Json.member "served" record = Some (Json.Int 1));
  match Json.member "counters" record with
  | Some (Json.Obj counters) ->
    check bool_ "resilience counters embedded" true
      (List.mem_assoc "isolated" counters
      && List.mem_assoc "store_drops" counters)
  | _ -> Alcotest.fail "no counters object"

(* A job whose scheduled sleep overruns its wall-clock budget is
   answered [timeout], in order, without losing its slot or its
   batch-mates. The budget is over 5x a batch-mate's cold run in a
   fresh worker (46-138 ms measured, workload generation included) and
   the sleep 5x the budget, so the check holds on a loaded machine
   too. *)
let test_serve_deadline_overrun () =
  let _, rs =
    Serve_harness.serve
      ~cfg:Serve_config.(override (default ()) ~jobs:2 ~queue:4 ~deadline_ms:750 ())
      ~chaos:(Serve_harness.schedule {|[{"after": 2, "action": "sleep", "ms": 3750}]|})
      [ job ~dyn:41_011 1; job ~dyn:41_012 2; job ~dyn:41_013 3 ]
  in
  check (Alcotest.list string_) "outcomes" [ "1 ok"; "2 timeout"; "3 ok" ]
    (Serve_harness.outcomes rs)

(* With the high-water mark below the chunk's cumulative work, the
   first job is admitted and the rest are answered [overloaded]
   without executing. *)
let test_serve_shedding () =
  let summary, rs =
    Serve_harness.serve
      ~cfg:Serve_config.(override (default ()) ~jobs:2 ~queue:4 ~shed_above:2_500 ())
      (List.init 4 (fun i -> job ~dyn:2_000 (i + 1)))
  in
  check int_ "three jobs shed" 3 summary.Server.shed;
  check (Alcotest.list string_) "outcomes"
    [ "1 ok"; "2 overloaded"; "3 overloaded"; "4 overloaded" ]
    (Serve_harness.outcomes rs)

(* Read [n] newline-terminated lines from [fd], giving up after
   [timeout_s] without progress; [None] on timeout or EOF. *)
let read_lines fd n ~timeout_s =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    let lines = String.split_on_char '\n' (Buffer.contents buf) in
    if List.length lines > n then Some (List.filteri (fun i _ -> i < n) lines)
    else
      match Unix.select [ fd ] [] [] timeout_s with
      | [], _, _ -> None
      | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> None
        | k ->
          Buffer.add_subbytes buf chunk 0 k;
          go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* A sick result cache must not fail jobs. A regular file planted
   where the cache wants each request's two-hex-char fan-out
   directory makes every store fail (works for root too, unlike a
   chmod). One tier serves the whole check over pipes: six jobs while
   the cache is sick must all answer ok, each dropping its store
   after the bounded retries (the merged [store_drops] counter); then
   the cache is healed and a seventh job's result must land in it. *)
let test_sick_cache_degrades () =
  with_temp_dir (fun dir ->
      let cdir = Filename.concat dir "cache" in
      let c = Cache.create ~dir:cdir in
      let key_of d = Request.key (Request.v ~dyn_target:d "tiny") in
      let dyns = List.init 6 (fun i -> 41_021 + i) in
      let healed_dyn = 41_031 in
      let blocks =
        List.sort_uniq compare
          (List.map (fun d -> Filename.dirname (Cache.path c ~key:(key_of d))) dyns)
      in
      List.iter (fun p -> Serve_harness.write_file p "not a directory") blocks;
      let buf = Buffer.create 256 in
      let manifest = Dise_telemetry.Manifest.to_buffer buf in
      let cfg = Serve_config.(override (default ()) ~jobs:2 ~queue:6 ()) in
      let in_r, in_w = Unix.pipe ~cloexec:true () in
      let out_r, out_w = Unix.pipe ~cloexec:true () in
      let tier =
        Domain.spawn (fun () ->
            Fun.protect
              ~finally:(fun () ->
                Unix.close in_r;
                Unix.close out_w)
              (fun () ->
                Coordinator.run ~manifest ~cache_dir:cdir cfg
                  (Coordinator.Stdio { input = in_r; output = out_w })))
      in
      let answers lines =
        Option.map (fun ls -> Serve_harness.outcomes (List.map Json.parse ls)) lines
      in
      let sick, healed =
        Fun.protect
          ~finally:(fun () -> Unix.close in_w)
          (fun () ->
            Coordinator.write_all in_w
              (String.concat "" (List.mapi (fun i d -> job ~dyn:d (i + 1) ^ "\n") dyns))
              0;
            let sick = answers (read_lines out_r (List.length dyns) ~timeout_s:60.) in
            List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) blocks;
            Coordinator.write_all in_w (job ~dyn:healed_dyn 7 ^ "\n") 0;
            (sick, answers (read_lines out_r 1 ~timeout_s:60.)))
      in
      let summary = Domain.join tier in
      Unix.close out_r;
      check
        Alcotest.(option (list string_))
        "every job ok while the cache was sick"
        (Some (List.mapi (fun i _ -> Printf.sprintf "%d ok" (i + 1)) dyns))
        sick;
      check Alcotest.(option (list string_)) "the job after healing ok" (Some [ "7 ok" ])
        healed;
      check int_ "no errors" 0 summary.Server.errors;
      let record =
        List.find
          (fun r -> Json.member "record" r = Some (Json.String "serve_summary"))
          (String.split_on_char '\n' (Buffer.contents buf)
          |> List.filter (fun l -> l <> "")
          |> List.map Json.parse)
      in
      (match Option.bind (Json.member "counters" record) (Json.member "store_drops") with
      | Some (Json.Int drops) ->
        check bool_
          (Printf.sprintf "%d stores dropped, one per sick job at least" drops)
          true
          (drops >= List.length dyns)
      | _ -> Alcotest.fail "serve_summary counters carry no store_drops");
      check bool_ "the healed cache stored the next result" true
        (Cache.find c ~key:(key_of healed_dyn) <> None))

(* Serve [lines] on one worker and SIGKILL it 0.4 s after it spawns,
   while [chaos] holds its batch open with a sleep. The coordinator
   respawns the shard and hands the replacement every in-flight frame
   again. Returns the spawn count, the summary and the responses. *)
let serve_killing_the_worker ~chaos ?cache_dir lines =
  let first = Atomic.make (-1) in
  let spawns = Atomic.make 0 in
  let on_spawn ~shard:_ ~pid =
    if Atomic.fetch_and_add spawns 1 = 0 then Atomic.set first pid
  in
  let killer =
    Domain.spawn (fun () ->
        let deadline = Unix.gettimeofday () +. 10. in
        while Atomic.get first < 0 && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.005
        done;
        Unix.sleepf 0.4;
        (* never kill (-1): that would signal every process *)
        let pid = Atomic.get first in
        if pid > 0 then try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
  in
  let summary, rs =
    Serve_harness.serve ~on_spawn ~chaos ?cache_dir
      ~cfg:Serve_config.(override (default ()) ~jobs:1 ~queue:4 ())
      lines
  in
  Domain.join killer;
  (Atomic.get spawns, summary, rs)

(* Every in-flight job survives the kill: each answers ok exactly
   once, in order, and its result is in the cache afterwards. *)
let test_worker_sigkill_resubmits () =
  with_temp_dir (fun dir ->
      let cache_dir = Filename.concat dir "cache" in
      let dyns = [ 41_041; 41_042; 41_043 ] in
      let spawns, summary, rs =
        serve_killing_the_worker ~cache_dir
          ~chaos:(Serve_harness.schedule {|[{"after": 1, "action": "sleep", "ms": 1500}]|})
          (List.mapi (fun i d -> job ~dyn:d (i + 1)) dyns)
      in
      check bool_ "the worker was respawned" true (spawns >= 2);
      check (Alcotest.list string_) "each job ok once, in order"
        [ "1 ok"; "2 ok"; "3 ok" ] (Serve_harness.outcomes rs);
      check int_ "summary served" 3 summary.Server.served;
      let c = Cache.create ~dir:cache_dir in
      List.iter
        (fun d ->
          check bool_
            (Printf.sprintf "dyn %d resubmitted and cached" d)
            true
            (Cache.find c ~key:(Request.key (Request.v ~dyn_target:d "tiny")) <> None))
        dyns)

(* A job fault travels in the job's frame, so it is applied again on
   every leg: the respawned worker raises job 2 once more, and the
   client sees exactly one [internal] answer for it, in order. *)
let test_scheduled_raise_survives_respawn () =
  let spawns, summary, rs =
    serve_killing_the_worker
      ~chaos:
        (Serve_harness.schedule
           {|[{"after": 1, "action": "sleep", "ms": 1500},
              {"after": 2, "action": "raise"}]|})
      [ job ~dyn:41_051 1; job ~dyn:41_052 2; job ~dyn:41_053 3 ]
  in
  check bool_ "the worker was respawned" true (spawns >= 2);
  check (Alcotest.list string_) "outcomes" [ "1 ok"; "2 internal"; "3 ok" ]
    (Serve_harness.outcomes rs);
  check int_ "summary served" 3 summary.Server.served;
  check int_ "one isolated job" 1 summary.Server.isolated

(* --- the socket loop ----------------------------------------------------- *)

let connect_client path lines =
  let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close s with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect s (Unix.ADDR_UNIX path);
      (match lines with
      | [] -> ()
      | _ ->
        let msg = Bytes.of_string (String.concat "\n" lines ^ "\n") in
        let rec send off =
          if off < Bytes.length msg then
            send (off + Unix.write s msg off (Bytes.length msg - off))
        in
        send 0);
      Unix.shutdown s Unix.SHUTDOWN_SEND;
      let buf = Buffer.create 256 in
      let chunk = Bytes.create 4096 in
      let rec recv () =
        match Unix.read s chunk 0 4096 with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          recv ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
      in
      recv ();
      Buffer.contents buf)

let wait_until_live path =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect s (Unix.ADDR_UNIX path) with
    | () ->
      Unix.shutdown s Unix.SHUTDOWN_SEND;
      Unix.close s
    | exception Unix.Unix_error _ ->
      (try Unix.close s with Unix.Unix_error _ -> ());
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "socket server never came up"
      else begin
        Unix.sleepf 0.01;
        go ()
      end
  in
  go ()

let test_socket_supervision () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "serve.sock" in
      (* Plant a STALE socket: bound then closed without unlink — the
         server must reclaim it rather than refuse to start. *)
      let stale = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind stale (Unix.ADDR_UNIX path);
      Unix.close stale;
      check bool_ "stale socket file exists" true (Sys.file_exists path);
      let stop = Server.Stop.create () in
      let server =
        Domain.spawn (fun () ->
            Coordinator.run ~stop
              Serve_config.(override (default ()) ~jobs:1 ~queue:2 ())
              (Coordinator.Socket path))
      in
      Fun.protect
        ~finally:(fun () -> Server.Stop.signal stop)
        (fun () ->
          wait_until_live path;
          (* Two concurrent connections: both must get their own
             correct responses. *)
          let c1 =
            Domain.spawn (fun () -> connect_client path [ job ~dyn:22_031 1 ])
          in
          let c2 =
            Domain.spawn (fun () -> connect_client path [ job ~dyn:22_032 2 ])
          in
          let r1 = Json.parse (String.trim (Domain.join c1)) in
          let r2 = Json.parse (String.trim (Domain.join c2)) in
          check bool_ "connection 1 answered its own job" true
            (member "ok" r1 = Json.Bool true && member "id" r1 = Json.Int 1);
          check bool_ "connection 2 answered its own job" true
            (member "ok" r2 = Json.Bool true && member "id" r2 = Json.Int 2);
          (* A second server on the same live socket must refuse with
             the busy diagnostic (exit-code class 6), not steal it. *)
          (match Coordinator.run (Serve_config.default ()) (Coordinator.Socket path) with
          | _ -> Alcotest.fail "second server started on a live socket"
          | exception Cache.Diag_error (Diag.Overloaded _ as d) ->
            check int_ "busy socket refusal is exit-code 6" 6
              (Diag.exit_code d)
          | exception e -> Alcotest.fail (Printexc.to_string e));
          (* Drain: stop flag + one wake-up connection. *)
          Server.Stop.signal stop;
          ignore (connect_client path []);
          ignore (Domain.join server);
          check bool_ "socket unlinked on shutdown" false
            (Sys.file_exists path)))

(* --- counters ------------------------------------------------------------ *)

(* --- heartbeat health state machine -------------------------------------- *)

(* Driven entirely by an injected clock: no sleeps, no real time. *)
let test_health_states () =
  let open Resilience.Health in
  let t = ref 0.0 in
  let h = create ~now:(fun () -> !t) ~interval_s:1.0 ~dead_misses:4 () in
  check string_ "fresh worker healthy" "healthy" (state_name (state h));
  check bool_ "no reason while healthy" true (reason h = None);
  check bool_ "first ping due immediately" true (due h);
  ping_sent h;
  check bool_ "not due inside the interval" false (due h);
  t := 0.5;
  pong h;
  check int_ "answered ping clears misses" 0 (misses h);
  t := 1.6;
  check bool_ "due again after the interval" true (due h);
  (* unanswered pings: each due+ping_sent with the previous ping
     still outstanding counts a miss *)
  ping_sent h;
  t := 2.7;
  ping_sent h;
  check int_ "one miss" 1 (misses h);
  t := 3.8;
  ping_sent h;
  check int_ "two misses" 2 (misses h);
  check string_ "misses below dead_misses stay healthy" "healthy"
    (state_name (state h));
  check bool_ "healthy worker has no reason" true (reason h = None);
  (* a pong clears the run *)
  pong h;
  check int_ "pong clears the miss run" 0 (misses h);
  (* ride the misses all the way to dead *)
  t := 10.0;
  for _ = 1 to 5 do
    if due h then ping_sent h;
    t := !t +. 1.1
  done;
  check string_ "dead_misses reached" "dead" (state_name (state h));
  check bool_ "death carries a reason" true (reason h <> None);
  check bool_ "dead is sticky: no more pings" false (due h);
  pong h;
  check string_ "dead ignores a late pong" "dead" (state_name (state h));
  (* force_dead is immediate regardless of history *)
  let h2 = create ~now:(fun () -> 0.0) ~interval_s:1.0 ~dead_misses:4 () in
  force_dead h2 ~reason:"respawn cap";
  check string_ "force_dead immediate" "dead" (state_name (state h2));
  check bool_ "force_dead keeps its reason" true
    (reason h2 = Some "respawn cap")

(* The serve counters live in the metrics registry, declared by the
   modules that bump them; the retired breaker, journal and hedging
   counters are gone. *)
let test_counters () =
  let snap = (Metrics.snapshot ()).Metrics.counters in
  let serve_counters =
    [
      "isolated"; "timeouts"; "shed"; "retries"; "store_drops";
      "conn_failures"; "jit_compiles"; "jit_hits"; "jit_invalidations";
      "tape_records"; "tape_replays"; "tape_abandoned";
      "tape_evicted_unreplayed"; "heartbeat_misses"; "failovers";
      "torn_frames";
    ]
  in
  check int_ "sixteen serve counters" 16 (List.length serve_counters);
  List.iter
    (fun name ->
      check bool_ (name ^ " present") true (List.mem_assoc name snap))
    serve_counters;
  List.iter
    (fun name ->
      check bool_ (name ^ " retired") false (List.mem_assoc name snap))
    [
      "breaker_trips"; "breaker_probes"; "breaker_closes"; "journal_replayed";
      "hedges"; "hedge_wins";
    ];
  let shed = Option.get (Metrics.find_counter "shed") in
  let before = Metrics.Counter.get shed in
  Metrics.Counter.incr shed;
  Metrics.Counter.add shed 2;
  check int_ "incr/add" (before + 3) (Metrics.Counter.get shed)

let suite =
  [
    Alcotest.test_case "bounded retry with backoff" `Quick test_retries;
    Alcotest.test_case "chaos schedule parsing" `Quick test_chaos_schedule_parsing;
    Alcotest.test_case "pool outcome isolation" `Quick test_pool_outcomes;
    Alcotest.test_case "serve mixed fault chunk" `Quick test_serve_mixed_chunk;
    Alcotest.test_case "serve truncated line number" `Quick
      test_serve_truncated_line_number;
    Alcotest.test_case "deadlines" `Quick test_serve_deadline;
    Alcotest.test_case "shed admits first job" `Quick
      test_serve_shed_first_job_admitted;
    Alcotest.test_case "serve manifest record" `Quick
      test_serve_manifest_record;
    Alcotest.test_case "serve deadline overrun" `Quick test_serve_deadline_overrun;
    Alcotest.test_case "serve load shedding" `Quick test_serve_shedding;
    Alcotest.test_case "sick cache degrades to ok" `Quick test_sick_cache_degrades;
    Alcotest.test_case "worker SIGKILL resubmits in-flight jobs" `Quick
      test_worker_sigkill_resubmits;
    Alcotest.test_case "scheduled raise survives a respawn" `Quick
      test_scheduled_raise_survives_respawn;
    Alcotest.test_case "socket supervision" `Quick test_socket_supervision;
    Alcotest.test_case "heartbeat health states" `Quick test_health_states;
    Alcotest.test_case "resilience counters" `Quick test_counters;
  ]
