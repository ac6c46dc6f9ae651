(* Tests for the fault-tolerant serve layer: retry, chaos directives,
   per-job isolation, deadlines, admission shedding, heartbeat health,
   the serve counters, and the supervised socket loop. The
   whole-system chaos matrix (SIGKILL resubmission, a sick cache under
   load) lives in lib/fuzz/faults.ml; these are the deterministic
   unit and protocol tests. *)

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
module Chaos = Resilience.Chaos

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

let with_chaos spec f =
  Unix.putenv Chaos.env_var spec;
  Fun.protect ~finally:(fun () -> Unix.putenv Chaos.env_var "") f

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

(* --- chaos directives ---------------------------------------------------- *)

let test_chaos_parse () =
  let t = Chaos.parse "raise=2,sleep=3:50,bogus,raise=x,sleep=4,sleep=5:-1" in
  (* only raise=2 and sleep=3:50 are well-formed *)
  (try
     Chaos.apply t ~id:(Json.Int 2);
     Alcotest.fail "raise directive did not raise"
   with Chaos.Injected _ -> ());
  Chaos.apply t ~id:(Json.Int 1);
  Chaos.apply t ~id:(Json.Int 4);
  Chaos.apply t ~id:(Json.Int 5);
  Chaos.apply t ~id:(Json.String "2");
  (* sleep=3:50 stalls ~50ms *)
  let t0 = Unix.gettimeofday () in
  Chaos.apply t ~id:(Json.Int 3);
  check bool_ "sleep directive stalls" true (Unix.gettimeofday () -. t0 >= 0.04);
  let none = Chaos.parse "" in
  Chaos.apply none ~id:(Json.Int 2)

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

let load_schema () =
  Json.parse
    (let ic = open_in "../doc/schema/serve_response.schema.json" in
     Fun.protect
       ~finally:(fun () -> close_in_noerr ic)
       (fun () -> really_input_string ic (in_channel_length ic)))

let job ?(dyn = 22_000) id =
  Printf.sprintf {|{"id":%d,"bench":"tiny","dyn_target":%d}|} id dyn

(* The acceptance chunk: one poisoned job, one oversized line, N good
   jobs -> exactly N+2 responses, in order, with kinds internal /
   parse / ok, every one schema-valid, and the server survives to
   serve the whole stream. *)
let test_serve_mixed_chunk () =
  with_chaos "raise=2" (fun () ->
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
          ~cfg:(Serve_config.of_flags ~jobs:2 ~queue:8 ())
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
      let schema = load_schema () in
      List.iter
        (fun r ->
          match Dise_telemetry.Json_schema.validate ~schema r with
          | [] -> ()
          | errs ->
            Alcotest.fail
              (Format.asprintf "response fails schema: %a"
                 (Format.pp_print_list Dise_telemetry.Json_schema.pp_error)
                 errs))
        rs)

let test_serve_truncated_line_number () =
  let big =
    {|{"id":2,"pad":"|} ^ String.make (Server.max_line_bytes + 32) 'x' ^ {|"}|}
  in
  let _, rs =
    Serve_harness.serve
      ~cfg:(Serve_config.of_flags ~jobs:1 ~queue:4 ())
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
      ~cfg:(Serve_config.of_flags ~jobs:1 ~queue:4 ~shed_above:10_000 ())
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
      ~cfg:(Serve_config.of_flags ~jobs:1 ~queue:2 ())
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
            Coordinator.run ~stop (Serve_config.of_flags ~jobs:1 ~queue:2 ())
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
  let h =
    create ~now:(fun () -> !t) ~interval_s:1.0 ~suspect_misses:2
      ~dead_misses:4 ()
  in
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
  check string_ "one miss still healthy" "healthy" (state_name (state h));
  t := 3.8;
  ping_sent h;
  check int_ "two misses" 2 (misses h);
  check string_ "suspect_misses reached" "suspect" (state_name (state h));
  check bool_ "suspicion carries a reason" true (reason h <> None);
  (* a pong heals suspicion *)
  pong h;
  check string_ "pong heals suspect" "healthy" (state_name (state h));
  check bool_ "healed worker has no reason" true (reason h = None);
  (* explicit suspicion (latency) also heals *)
  suspect h ~reason:"slow";
  check string_ "latency suspicion" "suspect" (state_name (state h));
  check bool_ "latency reason kept" true (reason h = Some "slow");
  pong h;
  check string_ "pong heals latency suspicion" "healthy"
    (state_name (state h));
  (* ride the misses all the way to dead *)
  t := 10.0;
  for _ = 1 to 5 do
    if due h then ping_sent h;
    t := !t +. 1.1
  done;
  check string_ "dead_misses reached" "dead" (state_name (state h));
  check bool_ "dead is sticky: no more pings" false (due h);
  pong h;
  check string_ "dead ignores a late pong" "dead" (state_name (state h));
  (* force_dead is immediate regardless of history *)
  let h2 =
    create ~now:(fun () -> 0.0) ~interval_s:1.0 ~suspect_misses:2
      ~dead_misses:4 ()
  in
  force_dead h2 ~reason:"respawn cap";
  check string_ "force_dead immediate" "dead" (state_name (state h2));
  check bool_ "force_dead keeps its reason" true
    (reason h2 = Some "respawn cap")

(* The serve counters live in the metrics registry, declared by the
   modules that bump them; the retired breaker and journal counters
   are gone. *)
let test_counters () =
  let snap = (Metrics.snapshot ()).Metrics.counters in
  let serve_counters =
    [
      "isolated"; "timeouts"; "shed"; "retries"; "store_drops";
      "conn_failures"; "jit_compiles"; "jit_hits"; "jit_invalidations";
      "hedges"; "hedge_wins"; "heartbeat_misses"; "failovers"; "torn_frames";
    ]
  in
  check int_ "fourteen serve counters" 14 (List.length serve_counters);
  List.iter
    (fun name ->
      check bool_ (name ^ " present") true (List.mem_assoc name snap))
    serve_counters;
  List.iter
    (fun name ->
      check bool_ (name ^ " retired") false (List.mem_assoc name snap))
    [ "breaker_trips"; "breaker_probes"; "breaker_closes"; "journal_replayed" ];
  let shed = Option.get (Metrics.find_counter "shed") in
  let before = Metrics.Counter.get shed in
  Metrics.Counter.incr shed;
  Metrics.Counter.add shed 2;
  check int_ "incr/add" (before + 3) (Metrics.Counter.get shed)

let suite =
  [
    Alcotest.test_case "bounded retry with backoff" `Quick test_retries;
    Alcotest.test_case "chaos directive parsing" `Quick test_chaos_parse;
    Alcotest.test_case "pool outcome isolation" `Quick test_pool_outcomes;
    Alcotest.test_case "serve mixed fault chunk" `Quick test_serve_mixed_chunk;
    Alcotest.test_case "serve truncated line number" `Quick
      test_serve_truncated_line_number;
    Alcotest.test_case "deadlines" `Quick test_serve_deadline;
    Alcotest.test_case "shed admits first job" `Quick
      test_serve_shed_first_job_admitted;
    Alcotest.test_case "serve manifest record" `Quick
      test_serve_manifest_record;
    Alcotest.test_case "socket supervision" `Quick test_socket_supervision;
    Alcotest.test_case "heartbeat health states" `Quick test_health_states;
    Alcotest.test_case "resilience counters" `Quick test_counters;
  ]
