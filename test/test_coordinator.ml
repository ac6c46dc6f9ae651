(* Tests for the sharded serve tier and its redesigned API surface:
   the serializable Serve_config, the consistent-hash ring, the
   versioned wire envelope, tier-wide admission, and the coordinator
   end to end (including worker crash recovery). The coordinator
   spawns real worker processes — re-executions of this test binary,
   dispatched by the Coordinator.worker_child_main hook at the top of
   test_main.ml. *)

module Json = Dise_telemetry.Json
module Metrics = Dise_telemetry.Metrics
module Json_schema = Dise_telemetry.Json_schema
module Manifest = Dise_telemetry.Manifest
module Diag = Dise_isa.Diag
module Request = Dise_service.Request
module Server = Dise_service.Server
module Serve_config = Dise_service.Serve_config
module Shard = Dise_service.Shard
module Coordinator = Dise_service.Coordinator
module Chaos = Dise_service.Chaos

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let tmp_counter = ref 0

let with_temp_dir f =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dise-coordinator-test-%d-%d" (Unix.getpid ())
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

let load_schema name =
  let path = Filename.concat "../doc/schema" name in
  let ic = open_in path in
  Json.parse
    (Fun.protect
       ~finally:(fun () -> close_in_noerr ic)
       (fun () -> really_input_string ic (in_channel_length ic)))

let assert_valid ~schema v =
  match Json_schema.validate ~schema v with
  | [] -> ()
  | errs ->
    Alcotest.fail
      (Format.asprintf "document fails schema: %a"
         (Format.pp_print_list Json_schema.pp_error)
         errs)

let member name j = Option.get (Json.member name j)
let counter name = Metrics.Counter.get (Option.get (Metrics.find_counter name))
let kind_of r = Json.member "kind" (member "error" r)

(* --- Serve_config -------------------------------------------------------- *)

let test_serve_config_roundtrip () =
  let cfg =
    Serve_config.(
      override (default ()) ~workers:3 ~jobs:2 ~deadline_ms:500 ~shed_above:9_000
        ~tenant_quota:4 ~heartbeat_ms:250 ())
  in
  check int_ "jobs-only queue default is 4x" 8 cfg.Serve_config.queue;
  let j = Serve_config.to_json cfg in
  assert_valid ~schema:(load_schema "serve_config.schema.json") j;
  (match Serve_config.of_json j with
  | Ok cfg' -> check bool_ "canonical JSON round-trips" true (cfg = cfg')
  | Error d -> Alcotest.fail ("canonical form rejected: " ^ Diag.to_string d));
  (* defaults validate too, and an empty document means the defaults *)
  assert_valid
    ~schema:(load_schema "serve_config.schema.json")
    (Serve_config.to_json (Serve_config.default ()));
  (match Serve_config.of_json (Json.Obj []) with
  | Ok cfg' ->
    check bool_ "empty config is the default" true
      (cfg' = Serve_config.default ())
  | Error d -> Alcotest.fail ("empty config rejected: " ^ Diag.to_string d));
  (* flags override a file config; --jobs re-derives the queue *)
  let over = Serve_config.override cfg ~jobs:5 ~workers:2 () in
  check int_ "override jobs" 5 over.Serve_config.jobs;
  check int_ "a tier has at least one worker" 1
    Serve_config.(override (default ()) ~workers:0 ()).workers;
  check int_ "override re-derives queue" 20 over.Serve_config.queue;
  check bool_ "untouched members survive override" true
    (over.Serve_config.deadline_ms = Some 500
    && over.Serve_config.tenant_quota = Some 4);
  (* defects are parse errors, not crashes *)
  (match Serve_config.of_json (Json.Obj [ ("worker", Json.Int 2) ]) with
  | Error (Diag.Parse _) -> ()
  | _ -> Alcotest.fail "unknown member accepted");
  match Serve_config.of_json (Json.Obj [ ("jobs", Json.String "2") ]) with
  | Error (Diag.Parse _) -> ()
  | _ -> Alcotest.fail "mistyped member accepted"

(* The crash journal, the cache breaker, hedging and the Suspect state
   are gone, and the supervision thresholds are constants; a config
   file or schedule that still names any of them is rejected, never
   silently ignored. *)
let test_retired_inputs_rejected () =
  List.iter
    (fun (name, v) ->
      match Serve_config.of_json (Json.Obj [ (name, v) ]) with
      | Error (Diag.Parse { msg; _ }) ->
        check bool_
          (Printf.sprintf "%s rejected by name (got %S)" name msg)
          true
          (msg = Printf.sprintf "unknown member %S" name)
      | Error d -> Alcotest.fail ("wrong diag: " ^ Diag.to_string d)
      | Ok _ -> Alcotest.fail (name ^ " accepted"))
    [
      ("journal", Json.String "/tmp/j");
      ("breaker", Json.Int 8);
      ("breaker_cooldown_ms", Json.Int 5000);
      ("suspect_misses", Json.Int 2);
      ("hedge_p95x", Json.Float 8.0);
      ("dead_misses", Json.Int 20);
      ("respawn_cap", Json.Int 100);
    ];
  List.iter
    (fun action ->
      let sched =
        Json.Obj
          [
            ("seed", Json.Int 1);
            ( "events",
              Json.List
                [
                  Json.Obj
                    [
                      ("after", Json.Int 0);
                      ("action", Json.String action);
                      ("shard", Json.Int 0);
                    ];
                ] );
          ]
      in
      match Chaos.of_json sched with
      | Error (Diag.Parse { msg; _ }) ->
        check bool_
          (Printf.sprintf "the retired action %s is unknown (got %S)" action msg)
          true
          (msg = Printf.sprintf "event 0: unknown action %S" action)
      | Error d -> Alcotest.fail ("wrong diag: " ^ Diag.to_string d)
      | Ok _ -> Alcotest.fail ("the retired chaos action " ^ action ^ " was accepted"))
    [ "truncate_journal"; "suspect" ]

(* --- the consistent-hash ring -------------------------------------------- *)

let test_shard_routing () =
  let keys = List.init 1000 (fun i -> Printf.sprintf "key-%d" i) in
  let ring = Shard.ring ~workers:4 () in
  let ring' = Shard.ring ~workers:4 () in
  check int_ "ring knows its width" 4 (Shard.workers ring);
  (* determinism: routing is a pure function of (workers, key) *)
  List.iter
    (fun k ->
      check int_ (k ^ " routes identically on a rebuilt ring")
        (Shard.route ring k) (Shard.route ring' k))
    keys;
  (* coverage: every worker owns a live slice of the keyspace *)
  let counts = Array.make 4 0 in
  List.iter (fun k -> counts.(Shard.route ring k) <- counts.(Shard.route ring k) + 1) keys;
  Array.iteri
    (fun w c ->
      check bool_ (Printf.sprintf "worker %d owns a nonempty slice (%d)" w c)
        true (c > 0))
    counts;
  (* consistency: growing the tier only moves keys onto the new
     worker — nothing reshuffles between the survivors *)
  let grown = Shard.ring ~workers:5 () in
  let moved = ref 0 in
  List.iter
    (fun k ->
      let before = Shard.route ring k and after = Shard.route grown k in
      if before <> after then begin
        incr moved;
        check int_ (k ^ " may only move to the new worker") 4 after
      end)
    keys;
  check bool_
    (Printf.sprintf "a minority of keys moved (%d/1000)" !moved)
    true
    (!moved > 0 && !moved < 500);
  (* The coordinator's routing key is the functional key: every
     machine and controller variant of a stream shares it (so they
     meet the worker holding the stream's tape), while their
     result-cache keys differ; another length or ACF is another
     stream. *)
  let base = Request.v ~dyn_target:26_001 "tiny" in
  let variants =
    [
      { base with Request.machine = Dise_uarch.Config.with_width 8 base.Request.machine };
      { base with Request.controller = Some Dise_core.Controller.default_config };
    ]
  in
  List.iter
    (fun r ->
      check bool_ "a variant shares the functional key" true
        (Request.functional_key r = Request.functional_key base);
      check bool_ "but not the result-cache key" true
        (Request.key r <> Request.key base))
    variants;
  List.iter
    (fun r ->
      check bool_ "another stream has another functional key" true
        (Request.functional_key r <> Request.functional_key base))
    [
      Request.v ~dyn_target:26_002 "tiny";
      Request.v ~dyn_target:26_001 ~acf:(Request.Mfi_dise Dise_acf.Mfi.Dise3) "tiny";
    ]

(* The shard a serve line routes to on a fresh ring of [workers]. *)
let shard_of ~workers line =
  match Request.of_json (Json.parse line) with
  | Ok r -> Shard.route (Shard.ring ~workers ()) (Request.functional_key r)
  | Error d -> Alcotest.fail (Diag.to_string d)

(* A fault aimed at [shard] once [after] requests are admitted tests
   something only if the shard has work: some line from the [after]th
   on routes to it. *)
let check_aim ~workers ~after ~shard lines =
  check bool_
    (Printf.sprintf "shard %d gets a request from request %d on" shard after)
    true
    (List.exists
       (fun l -> shard_of ~workers l = shard)
       (List.filteri (fun i _ -> i + 1 >= after) lines))

(* --- the versioned wire envelope ----------------------------------------- *)

let test_envelope_versions () =
  (* Both dialects are answered in v1. *)
  let answer p =
    fst
      (Server.run_parsed ~deadline_ms:None ~enqueued_at:(Unix.gettimeofday ()) p)
  in
  let p =
    Server.parse_job ~lineno:1 {|{"id":1,"bench":"tiny","dyn_target":23000}|}
  in
  check bool_ "v0 line decodes" true (Result.is_ok p.Server.req);
  check bool_ "unversioned line answered in v1" true
    (Json.member "v" (answer p) = Some (Json.Int 1));
  let p =
    Server.parse_job ~lineno:1
      {|{"v":1,"id":1,"bench":"tiny","dyn_target":23000}|}
  in
  check bool_ "v1 line decodes" true (Result.is_ok p.Server.req);
  let r = answer p in
  check bool_ "v:1 line answered in v1" true
    (Json.member "v" r = Some (Json.Int 1));
  check bool_ "v:1 line served" true (member "ok" r = Json.Bool true);
  check bool_ "tenant defaults to anonymous" true (p.Server.tenant = None);
  let p =
    Server.parse_job ~lineno:1
      {|{"v":1,"tenant":"acme","id":1,"bench":"tiny","dyn_target":23000}|}
  in
  check bool_ "tenant member decoded" true (p.Server.tenant = Some "acme");
  (* anything but an absent v or v:1 is a parse error, including an
     explicit v:0 — v0 clients are recognized by saying nothing *)
  List.iter
    (fun line ->
      match (Server.parse_job ~lineno:1 line).Server.req with
      | Error (Diag.Parse _) -> ()
      | _ -> Alcotest.fail ("accepted bad envelope: " ^ line))
    [
      {|{"v":2,"id":1,"bench":"tiny","dyn_target":23000}|};
      {|{"v":0,"id":1,"bench":"tiny","dyn_target":23000}|};
      {|{"v":"1","id":1,"bench":"tiny","dyn_target":23000}|};
      {|{"tenant":3,"id":1,"bench":"tiny","dyn_target":23000}|};
    ]

let job ?v ?tenant ?(dyn = 23_000) id =
  let v = match v with None -> "" | Some v -> Printf.sprintf {|"v":%d,|} v in
  let tenant =
    match tenant with
    | None -> ""
    | Some t -> Printf.sprintf {|"tenant":"%s",|} t
  in
  Printf.sprintf {|{%s%s"id":%d,"bench":"tiny","dyn_target":%d}|} v tenant id
    dyn

let test_v0_compat () =
  (* one legacy line and one v1 line in the same stream: both served,
     and every response speaks v1 *)
  let _, rs =
    Serve_harness.serve [ job ~dyn:23_001 1; job ~v:1 ~dyn:23_002 2 ]
  in
  check int_ "both dialects served" 2 (List.length rs);
  let schema = load_schema "serve_response.schema.json" in
  List.iter
    (fun r ->
      check bool_ "response leads with v:1" true
        (Json.member "v" r = Some (Json.Int 1));
      check bool_ "response ok" true (member "ok" r = Json.Bool true);
      assert_valid ~schema r)
    rs

(* --- tenant quotas ------------------------------------------------------- *)

let test_tenant_quota_order () =
  let lines =
    [
      job ~tenant:"acme" ~dyn:23_011 1;
      job ~tenant:"acme" ~dyn:23_012 2;
      job ~tenant:"acme" ~dyn:23_013 3;
      job ~tenant:"globex" ~dyn:23_014 4;
      job ~dyn:23_015 5;
    ]
  in
  let summary, rs =
    Serve_harness.serve
      ~cfg:Serve_config.(override (default ()) ~jobs:1 ~queue:8 ~tenant_quota:1 ())
      lines
  in
  check int_ "five responses" 5 (List.length rs);
  check int_ "two acme jobs over quota" 2 summary.Server.shed;
  match rs with
  | [ r1; r2; r3; r4; r5 ] ->
    (* input order is preserved even though 2 and 3 never ran *)
    List.iteri
      (fun i r ->
        check bool_
          (Printf.sprintf "response %d keeps its slot" (i + 1))
          true
          (member "id" r = Json.Int (i + 1)))
      [ r1; r2; r3; r4; r5 ];
    check bool_ "first acme job admitted" true (member "ok" r1 = Json.Bool true);
    List.iter
      (fun r ->
        check bool_ "over-quota job answered overloaded" true
          (member "ok" r = Json.Bool false
          && kind_of r = Some (Json.String "overloaded"));
        match Json.member "message" (member "error" r) with
        | Some (Json.String msg) ->
          let contains sub =
            let n = String.length sub in
            let rec find i =
              i + n <= String.length msg
              && (String.sub msg i n = sub || find (i + 1))
            in
            find 0
          in
          check bool_
            (Printf.sprintf "quota message names the policy (got %S)" msg)
            true
            (contains "tenant quota")
        | _ -> Alcotest.fail "no quota message")
      [ r2; r3 ];
    check bool_ "other tenant unaffected" true (member "ok" r4 = Json.Bool true);
    check bool_ "anonymous tenant unaffected" true
      (member "ok" r5 = Json.Bool true)
  | _ -> Alcotest.fail "wrong response count"

(* --- the coordinator, end to end ----------------------------------------- *)

(* Run [lines] through a real worker tier and return
   (summary, responses, manifest records). *)
let serve_sharded ?on_spawn ?chaos ?heartbeat_ms ?(cache = true) ~workers lines =
  with_temp_dir (fun dir ->
      let mbuf = Buffer.create 4096 in
      let manifest = Manifest.to_buffer mbuf in
      let cfg =
        Serve_config.(override (default ()) ~workers ~jobs:1 ~queue:16 ?heartbeat_ms ())
      in
      let cache_dir = if cache then Some (Filename.concat dir "cache") else None in
      let summary, responses =
        Serve_harness.serve ~cfg ?on_spawn ?chaos ~manifest ?cache_dir lines
      in
      let records =
        String.split_on_char '\n' (Buffer.contents mbuf)
        |> List.filter (fun l -> l <> "")
        |> List.map Json.parse
      in
      (summary, responses, records))

let merged_record records =
  match
    List.find_opt
      (fun r -> Json.member "record" r = Some (Json.String "serve_summary"))
      records
  with
  | Some r -> r
  | None -> Alcotest.fail "no serve_summary record in manifest"

let test_coordinator_end_to_end () =
  let lines = List.init 8 (fun i -> job ~dyn:(24_001 + i) (i + 1)) in
  let summary, rs, records = serve_sharded ~workers:2 lines in
  check int_ "all jobs served" 8 summary.Server.served;
  check int_ "no errors" 0 summary.Server.errors;
  check int_ "eight responses" 8 (List.length rs);
  let schema = load_schema "serve_response.schema.json" in
  List.iteri
    (fun i r ->
      check bool_
        (Printf.sprintf "response %d in input order" (i + 1))
        true
        (member "id" r = Json.Int (i + 1) && member "ok" r = Json.Bool true);
      assert_valid ~schema r)
    rs;
  let record = merged_record records in
  assert_valid ~schema:(load_schema "serve_summary.schema.json") record;
  check bool_ "merged record counts the stream" true
    (Json.member "served" record = Some (Json.Int 8));
  match Json.member "workers" record with
  | Some (Json.List ws) ->
    check int_ "one breakdown entry per worker" 2 (List.length ws);
    let served_by w =
      match Json.member "served" w with Some (Json.Int n) -> n | _ -> 0
    in
    check int_ "every job reached exactly one shard" 8
      (List.fold_left (fun acc w -> acc + served_by w) 0 ws);
    (* 8 distinct keys over 64 vnodes/worker: both shards should see
       work — the balance test above makes a pathological split
       vanishingly unlikely *)
    check bool_ "work spread across shards" true
      (List.for_all (fun w -> served_by w > 0) ws)
  | _ -> Alcotest.fail "merged record lacks a workers array"

let merged_counter record name =
  match Json.member "counters" record with
  | Some c -> (
    match Json.member name c with Some (Json.Int n) -> n | _ -> -1)
  | None -> Alcotest.fail "merged record lacks counters"

(* Two streams (tiny at two lengths) in four machine widths each,
   interleaved, through two workers and no result cache. Routing by
   functional key sends every variant of a stream to one worker, so
   each stream runs live once, records once and replays twice. *)
let test_stream_meets_its_tape () =
  let line id r =
    match Request.to_json r with
    | Json.Obj kvs -> Json.to_string (Json.Obj (("id", Json.Int id) :: kvs))
    | _ -> assert false
  in
  let lines =
    List.concat_map
      (fun width ->
        List.map
          (fun dyn_target ->
            { (Request.v ~dyn_target "tiny") with
              Request.machine =
                Dise_uarch.Config.with_width width Dise_uarch.Config.default })
          [ 26_101; 26_102 ])
      [ 1; 2; 4; 8 ]
    |> List.mapi (fun i r -> line (i + 1) r)
  in
  let summary, rs, records = serve_sharded ~cache:false ~workers:2 lines in
  check int_ "all jobs served" 8 summary.Server.served;
  List.iteri
    (fun i r ->
      check bool_
        (Printf.sprintf "response %d ok and in order" (i + 1))
        true
        (member "id" r = Json.Int (i + 1) && member "ok" r = Json.Bool true))
    rs;
  let record = merged_record records in
  List.iter
    (fun (name, want) -> check int_ name want (merged_counter record name))
    [ ("tape_records", 2); ("tape_replays", 4); ("tape_evicted_unreplayed", 0) ]

let test_coordinator_crash_recovery () =
  (* Stall job 1 in its worker, then SIGKILL every initially-spawned
     worker mid-batch: the coordinator must respawn them and hand the
     replacements their in-flight frames again, and every job must
     still get its answer in order. *)
  let initial = ref [] in
  let spawns = ref 0 in
  let m = Mutex.create () in
  let on_spawn ~shard:_ ~pid =
    Mutex.lock m;
    incr spawns;
    if !spawns <= 2 then initial := pid :: !initial;
    Mutex.unlock m
  in
  let killer =
    Domain.spawn (fun () ->
        Unix.sleepf 0.4;
        Mutex.lock m;
        let victims = !initial in
        Mutex.unlock m;
        List.iter
          (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
          victims)
  in
  let lines = List.init 6 (fun i -> job ~dyn:(24_101 + i) (i + 1)) in
  List.iter (fun shard -> check_aim ~workers:2 ~after:1 ~shard lines) [ 0; 1 ];
  let summary, rs, records =
    serve_sharded ~on_spawn ~workers:2
      ~chaos:(Serve_harness.schedule {|[{"after": 1, "action": "sleep", "ms": 1500}]|})
      lines
  in
  Domain.join killer;
  check int_ "all jobs answered despite the kill" 6 summary.Server.served;
  check int_ "no errors surfaced" 0 summary.Server.errors;
  List.iteri
    (fun i r ->
      check bool_
        (Printf.sprintf "response %d ok and in order" (i + 1))
        true
        (member "id" r = Json.Int (i + 1) && member "ok" r = Json.Bool true))
    rs;
  let record = merged_record records in
  assert_valid ~schema:(load_schema "serve_summary.schema.json") record;
  match Json.member "workers" record with
  | Some (Json.List ws) ->
    let restarts =
      List.fold_left
        (fun acc w ->
          match Json.member "restarts" w with
          | Some (Json.Int n) -> acc + n
          | _ -> acc)
        0 ws
    in
    check bool_
      (Printf.sprintf "the tier restarted workers (%d)" restarts)
      true (restarts >= 1)
  | _ -> Alcotest.fail "merged record lacks a workers array"

(* --- socket-mode harness ------------------------------------------------- *)

(* Run the socket front end on a background domain and hand the test
   body a connector; stop and join on the way out. *)
let with_socket_tier ?chaos
    ?(cfg = Serve_config.(override (default ()) ~workers:1 ~jobs:1 ())) body =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "tier.sock" in
      let stop = Server.Stop.create () in
      let tier =
        Domain.spawn (fun () ->
            Coordinator.run ~stop ?chaos ~cache_dir:(Filename.concat dir "cache")
              cfg (Coordinator.Socket path))
      in
      let rec wait_sock n =
        if n = 0 then Alcotest.fail "socket never appeared";
        if not (Sys.file_exists path) then begin
          Unix.sleepf 0.05;
          wait_sock (n - 1)
        end
      in
      let connect () =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        fd
      in
      let send fd line = ignore (Unix.write_substring fd (line ^ "\n") 0 (String.length line + 1)) in
      let recv_line fd =
        let buf = Buffer.create 256 in
        let b = Bytes.create 1 in
        let rec go () =
          match Unix.read fd b 0 1 with
          | 0 -> None
          | _ ->
            if Bytes.get b 0 = '\n' then Some (Buffer.contents buf)
            else begin
              Buffer.add_char buf (Bytes.get b 0);
              go ()
            end
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        in
        go ()
      in
      Fun.protect
        ~finally:(fun () ->
          Server.Stop.signal stop;
          ignore (Domain.join tier))
        (fun () ->
          wait_sock 100;
          body ~connect ~send ~recv_line))

(* A connection that dies {e hard} (write failure, not a polite EOF)
   while a slow job is in flight must not pin its tenant's quota for
   the rest of the job's lifetime. Job 7 stalls in its worker for
   seconds; planting a parse-error line just before closing makes the
   coordinator's response write fail, so the connection takes the
   [fail_conn] path with job 7 still holding acme's only quota slot.
   Pre-fix, client B's same-tenant job is answered [overloaded]. *)
let test_quota_released_on_conn_failure () =
  (* The parse-error line is never admitted, so job 7 is the first
     admitted request. *)
  with_socket_tier
    ~chaos:(Serve_harness.schedule {|[{"after": 1, "action": "sleep", "ms": 2500}]|})
    ~cfg:
      Serve_config.(override (default ()) ~workers:1 ~jobs:1 ~tenant_quota:1 ())
    (fun ~connect ~send ~recv_line ->
      let a = connect () in
      (* Shut the receive side down first, then pipeline a
         parse-error line ahead of the slow job. The parse error
         is answered immediately (it is slot 0, so the in-order
         emitter flushes it without waiting on a worker), the
         write raises EPIPE against the shut-down reader, and the
         connection takes the hard-failure path while job 7 still
         holds acme's quota inside its worker. *)
      Unix.shutdown a Unix.SHUTDOWN_RECEIVE;
      send a ("{\n" ^ job ~v:1 ~tenant:"acme" ~dyn:23_500 7);
      Unix.sleepf 0.5;
      Unix.close a;
      let b = connect () in
      send b (job ~v:1 ~tenant:"acme" ~dyn:23_501 8);
      (match recv_line b with
      | Some l ->
        let r = Json.parse l in
        check bool_
          (Printf.sprintf
             "same-tenant job admitted after the hard disconnect (got %s)"
             l)
          true
          (member "ok" r = Json.Bool true)
      | None -> Alcotest.fail "no response to job 8");
      Unix.close b)

(* --- write_all on a nonblocking descriptor -------------------------------- *)

(* The coordinator marks its pipe ends O_NONBLOCK, and status flags
   belong to the open file description — so [write_all] must survive a
   full pipe (EAGAIN mid-frame) without tearing or dropping bytes.
   1 MiB through a ~64 KiB pipe against a deliberately slow reader
   guarantees the writer sees EAGAIN many times; pre-fix the
   Unix_error escapes and the test fails. *)
let test_write_all_nonblocking_pipe () =
  let r, w = Unix.pipe () in
  Unix.set_nonblock w;
  let total = 1 lsl 20 in
  let payload = String.init total (fun i -> Char.chr (i land 0xff)) in
  let reader =
    Domain.spawn (fun () ->
        let buf = Bytes.create 4096 in
        let count = ref 0 in
        let ok = ref true in
        let continue = ref true in
        while !continue do
          (* throttle so the pipe stays full on the writer's side *)
          Unix.sleepf 0.001;
          match Unix.read r buf 0 (Bytes.length buf) with
          | 0 -> continue := false
          | n ->
            for i = 0 to n - 1 do
              if Bytes.get buf i <> Char.chr ((!count + i) land 0xff) then
                ok := false
            done;
            count := !count + n
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        done;
        (!count, !ok))
  in
  Coordinator.write_all w payload 0;
  Unix.close w;
  let count, ok = Domain.join reader in
  Unix.close r;
  check int_ "every byte arrived" total count;
  check bool_ "bytes arrived in order, untorn" true ok

(* --- ring shrink: the failover movement property -------------------------- *)

let test_shard_shrink () =
  let keys = List.init 1000 (fun i -> Printf.sprintf "shrink-key-%d" i) in
  let ring = Shard.ring ~workers:4 () in
  check bool_ "fresh ring lists every worker" true
    (Shard.alive ring = [ 0; 1; 2; 3 ]);
  let dead = 2 in
  let shrunk = Shard.remove ring dead in
  check bool_ "survivors only" true (Shard.alive shrunk = [ 0; 1; 3 ]);
  let moved = ref 0 in
  List.iter
    (fun k ->
      let before = Shard.route ring k in
      let after = Shard.route shrunk k in
      if before = dead then begin
        incr moved;
        check bool_ (k ^ " moves off the dead worker") true (after <> dead)
      end
      else
        check int_ (k ^ " stays put when its owner survives") before after)
    keys;
  check bool_
    (Printf.sprintf "only the dead worker's slice moved (%d/1000)" !moved)
    true
    (!moved > 0 && !moved < 500);
  (* removing an absent worker is the identity *)
  let again = Shard.remove shrunk dead in
  List.iter
    (fun k ->
      check int_ (k ^ " unchanged by removing an absent worker")
        (Shard.route shrunk k) (Shard.route again k))
    keys;
  (* the ring refuses to become empty *)
  let one = Shard.remove (Shard.remove shrunk 0) 1 in
  check bool_ "one survivor owns everything" true
    (List.for_all (fun k -> Shard.route one k = 3) keys);
  match Shard.remove one 3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "removing the last worker must raise"

(* --- live failover: a permanent kill leaves a degraded tier --------------- *)

let test_failover_degraded () =
  let failovers0 = counter "failovers" in
  (* kill shard 1 for good once the stream is flowing *)
  let chaos =
    Serve_harness.schedule
      {|[{"after": 3, "action": "kill", "shard": 1, "permanent": true}]|}
  in
  let lines = List.init 10 (fun i -> job ~dyn:(25_101 + i) (i + 1)) in
  check_aim ~workers:3 ~after:3 ~shard:1 lines;
  let summary, rs, records =
    serve_sharded ~workers:3 ~heartbeat_ms:100 ~chaos lines
  in
  check int_ "all jobs served degraded" 10 summary.Server.served;
  check int_ "no client-visible errors" 0 summary.Server.errors;
  List.iteri
    (fun i r ->
      check bool_
        (Printf.sprintf "response %d ok and in order" (i + 1))
        true
        (member "id" r = Json.Int (i + 1) && member "ok" r = Json.Bool true))
    rs;
  check bool_ "a failover was recorded" true
    (counter "failovers" - failovers0 >= 1);
  let record = merged_record records in
  assert_valid ~schema:(load_schema "serve_summary.schema.json") record;
  match Json.member "topology" record with
  | Some topo ->
    check bool_ "tier reports degraded" true
      (member "degraded" topo = Json.Bool true);
    check bool_ "shard 1 listed dead" true
      (match member "dead" topo with
      | Json.List l -> List.mem (Json.Int 1) l
      | _ -> false);
    check bool_ "shard 1 off the alive list" true
      (match member "alive" topo with
      | Json.List l -> not (List.mem (Json.Int 1) l)
      | _ -> false)
  | None -> Alcotest.fail "merged record lacks a topology member"

(* --- torn frames: discarded and resubmitted, never parsed ----------------- *)

let test_torn_frame_resubmit () =
  let torn0 = counter "torn_frames" in
  let chaos ~requests =
    (* cut = 2: the worker dies two bytes into a frame header *)
    if requests = 2 then [ Chaos.Torn { shard = 0; cut = 2 } ] else []
  in
  let lines = List.init 6 (fun i -> job ~dyn:(25_201 + i) (i + 1)) in
  check_aim ~workers:2 ~after:2 ~shard:0 lines;
  let summary, rs, _ = serve_sharded ~workers:2 ~chaos lines in
  check int_ "all jobs served across the tear" 6 summary.Server.served;
  check int_ "no errors from the torn stream" 0 summary.Server.errors;
  List.iteri
    (fun i r ->
      check bool_
        (Printf.sprintf "response %d ok and in order" (i + 1))
        true
        (member "id" r = Json.Int (i + 1) && member "ok" r = Json.Bool true))
    rs;
  check bool_ "the tear was counted" true
    (counter "torn_frames" - torn0 >= 1)

(* The same tear, with the coordinator writing to the dead worker before
   it reads the worker's pipe. A stall holds the tear back while the
   chaos hook feeds the one shard a third job and then blocks until the
   worker has torn its frame and died, so the write of that job is the
   coordinator's first contact with the dead worker. The bytes the
   worker wrote must still be read: the tear counted, every job
   answered. *)
let test_torn_frame_write_first () =
  let torn0 = counter "torn_frames" in
  let input_r, input_w = Unix.pipe ~cloexec:true () in
  let send l = ignore (Unix.write_substring input_w l 0 (String.length l)) in
  let chaos ~requests =
    match requests with
    | 2 ->
      send (job ~dyn:25_303 3 ^ "\n");
      Unix.close input_w;
      [ Chaos.Stall { shard = 0; ms = 500 }; Chaos.Torn { shard = 0; cut = 2 } ]
    | 3 ->
      Unix.sleepf 1.5;
      []
    | _ -> []
  in
  send (job ~dyn:25_301 1 ^ "\n" ^ job ~dyn:25_302 2 ^ "\n");
  let summary, rs =
    with_temp_dir (fun dir ->
        let out = Filename.concat dir "out.jsonl" in
        let ofd =
          Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644
        in
        let cfg =
          Serve_config.(
            override (default ()) ~workers:1 ~jobs:1 ~queue:16 ~heartbeat_ms:0 ())
        in
        let summary =
          Fun.protect
            ~finally:(fun () ->
              Unix.close input_r;
              Unix.close ofd)
            (fun () ->
              Coordinator.run ~chaos ~cache_dir:(Filename.concat dir "cache")
                cfg
                (Coordinator.Stdio { input = input_r; output = ofd }))
        in
        let ic = open_in out in
        let lines =
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> In_channel.input_all ic)
          |> String.split_on_char '\n'
          |> List.filter (fun l -> l <> "")
        in
        (summary, List.map Json.parse lines))
  in
  check int_ "all jobs served across the tear" 3 summary.Server.served;
  check int_ "no errors from the torn stream" 0 summary.Server.errors;
  List.iteri
    (fun i r ->
      check bool_
        (Printf.sprintf "response %d ok and in order" (i + 1))
        true
        (member "id" r = Json.Int (i + 1) && member "ok" r = Json.Bool true))
    rs;
  check bool_ "the tear was counted" true (counter "torn_frames" - torn0 >= 1)

(* --- one front end: stdio and socket admit alike ------------------------- *)

let outcome r =
  ( member "id" r,
    member "ok" r,
    match Option.bind (Json.member "error" r) (Json.member "kind") with
    | Some (Json.String k) -> k
    | _ -> "" )

(* With a window of one line, each job is admitted only after the one
   before it has answered, so three jobs just over the shed mark all
   run — whether they arrive on stdin or in one socket write. Before
   the window was enforced on sockets, the write put all three in
   flight and shed the last two. *)
let test_admission_window_parity () =
  let cfg =
    Serve_config.(
      override (default ()) ~workers:1 ~jobs:1 ~queue:1 ~shed_above:50_000 ())
  in
  let lines = List.init 3 (fun i -> job ~dyn:(50_001 + i) (i + 1)) in
  let _, stdio = Serve_harness.serve ~cfg lines in
  let socket =
    with_socket_tier ~cfg (fun ~connect ~send ~recv_line ->
        let fd = connect () in
        send fd (String.concat "\n" lines);
        Unix.shutdown fd Unix.SHUTDOWN_SEND;
        let rs =
          List.init 3 (fun _ ->
              match recv_line fd with
              | Some l -> Json.parse l
              | None -> Alcotest.fail "socket closed early")
        in
        Unix.close fd;
        rs)
  in
  let want = List.init 3 (fun i -> (Json.Int (i + 1), Json.Bool true, "")) in
  check bool_ "stdin: all three admitted" true (List.map outcome stdio = want);
  check bool_ "socket: all three admitted" true (List.map outcome socket = want)

(* A legitimate job that outlives many heartbeat intervals must not
   miss a heartbeat or get its worker declared dead: the worker keeps
   ponging while the batch runs. *)
let test_long_job_keeps_heartbeat () =
  let summary, rs, records =
    serve_sharded ~workers:2 ~heartbeat_ms:50
      ~chaos:(Serve_harness.schedule {|[{"after": 1, "action": "sleep", "ms": 1000}]|})
      [ job ~dyn:25_301 1; job ~dyn:25_302 2 ]
  in
  check int_ "both jobs served" 2 summary.Server.served;
  check bool_ "both ok, in order" true
    (List.map (fun r -> (member "id" r, member "ok" r)) rs
    = [ (Json.Int 1, Json.Bool true); (Json.Int 2, Json.Bool true) ]);
  let record = merged_record records in
  List.iter
    (fun name -> check int_ (name ^ " during the long job") 0 (merged_counter record name))
    [ "failovers"; "heartbeat_misses" ]

(* The keep-alive covers batches only: a frame loop wedged outside
   one (the chaos stall op) still stops answering, so supervision
   still counts misses. The event loop ticks at a quarter of the
   50 ms interval, so a 600 ms stall of both workers costs each about
   eleven misses. *)
let test_stall_still_detected () =
  let chaos ~requests =
    if requests = 1 then
      [ Chaos.Stall { shard = 0; ms = 600 }; Chaos.Stall { shard = 1; ms = 600 } ]
    else []
  in
  let summary, rs, records =
    serve_sharded ~workers:2 ~heartbeat_ms:50 ~chaos
      (List.init 4 (fun i -> job ~dyn:(25_311 + i) (i + 1)))
  in
  check int_ "all jobs served" 4 summary.Server.served;
  check bool_ "all ok" true (List.for_all (fun r -> member "ok" r = Json.Bool true) rs);
  let record = merged_record records in
  let misses = merged_counter record "heartbeat_misses" in
  check bool_ (Printf.sprintf "stall missed heartbeats (%d)" misses) true (misses >= 10)

(* --- one leg per request ------------------------------------------------- *)

(* A healthy tier runs every request exactly once, however long it
   takes: a job held for 1.5 s behind 64 short ones (eight keys, so
   most are cache hits and the tier's latency quantiles are small) is
   not run a second time on the other worker. Each worker records one
   [request_run_ns] sample per execution, hit or miss. *)
let test_execute_once () =
  let summary, rs, records =
    serve_sharded ~workers:2
      ~chaos:(Serve_harness.schedule {|[{"after": 65, "action": "sleep", "ms": 1500}]|})
      (List.init 64 (fun i -> job ~dyn:(25_401 + (i mod 8)) (i + 1))
      @ [ job ~dyn:25_409 65 ])
  in
  check int_ "all jobs served" 65 summary.Server.served;
  check bool_ "all ok" true
    (List.for_all (fun r -> member "ok" r = Json.Bool true) rs);
  let metrics = member "metrics" (merged_record records) in
  match member "count" (member "request_run_ns" (member "histograms" metrics)) with
  | Json.Int runs -> check int_ "executions" summary.Server.served runs
  | _ -> Alcotest.fail "request_run_ns has no count"

(* --- scheduled chaos: exactly-once under kill+stall+torn, twice ----------- *)

(* One replayable chaos run against a 3-worker tier: lose a heartbeat,
   gray-stall one worker (missed heartbeats), tear a frame mid-stream
   (torn-tail respawn), then kill a worker permanently (failover). The
   tier's contract under all of it: every request answered exactly
   once, in order, all ok, with no summary errors. Run twice: two
   exactly-once runs of one schedule are also one deterministic
   replay, since their (id, outcome) streams must both equal the
   input's. *)
let test_scheduled_chaos () =
  let n = 60 in
  (* distinct dyn targets: distinct streams, so jobs spread across the
     ring instead of collapsing onto one shard *)
  let lines = List.init n (fun i -> job ~dyn:(50_000 + i) (i + 1)) in
  List.iter
    (fun (after, shard) -> check_aim ~workers:3 ~after ~shard lines)
    [ (2, 1); (10, 1); (20, 2); (40, 0) ];
  let cfg = Serve_config.(override (default ()) ~workers:3 ~jobs:1 ~heartbeat_ms:100 ()) in
  for run = 1 to 2 do
    let summary, rs =
      Serve_harness.serve ~cfg
        ~chaos:
          (Serve_harness.schedule ~seed:5
             {|[{"after": 2,  "action": "drop_ping", "shard": 1},
                {"after": 10, "action": "stall", "shard": 1, "ms": 500},
                {"after": 20, "action": "torn",  "shard": 2},
                {"after": 40, "action": "kill",  "shard": 0, "permanent": true}]|})
        lines
    in
    check (Alcotest.list Alcotest.string)
      (Printf.sprintf "run %d: each request ok once, in order" run)
      (List.init n (fun i -> Printf.sprintf "%d ok" (i + 1)))
      (Serve_harness.outcomes rs);
    check int_ (Printf.sprintf "run %d: summary served" run) n summary.Server.served;
    check int_ (Printf.sprintf "run %d: summary errors" run) 0 summary.Server.errors
  done

let suite =
  [
    Alcotest.test_case "serve_config round-trip" `Quick
      test_serve_config_roundtrip;
    Alcotest.test_case "retired serve inputs rejected" `Quick
      test_retired_inputs_rejected;
    Alcotest.test_case "shard routing" `Quick test_shard_routing;
    Alcotest.test_case "wire envelope versions" `Quick test_envelope_versions;
    Alcotest.test_case "v0 client compatibility" `Quick test_v0_compat;
    Alcotest.test_case "tenant quota preserves order" `Quick
      test_tenant_quota_order;
    Alcotest.test_case "sharded tier end to end" `Quick
      test_coordinator_end_to_end;
    Alcotest.test_case "a stream's variants meet one worker" `Quick
      test_stream_meets_its_tape;
    Alcotest.test_case "worker crash recovery" `Quick
      test_coordinator_crash_recovery;
    Alcotest.test_case "write_all vs nonblocking full pipe" `Quick
      test_write_all_nonblocking_pipe;
    Alcotest.test_case "quota released on connection failure" `Quick
      test_quota_released_on_conn_failure;
    Alcotest.test_case "ring shrink moves only the dead shard" `Quick
      test_shard_shrink;
    Alcotest.test_case "live failover serves degraded" `Quick
      test_failover_degraded;
    Alcotest.test_case "torn frame discarded and resubmitted" `Quick
      test_torn_frame_resubmit;
    Alcotest.test_case "torn frame read after a failed write" `Quick
      test_torn_frame_write_first;
    Alcotest.test_case "scheduled chaos exactly-once" `Quick
      test_scheduled_chaos;
    Alcotest.test_case "stdio and socket admit alike" `Quick
      test_admission_window_parity;
    Alcotest.test_case "long job keeps its heartbeat" `Quick
      test_long_job_keeps_heartbeat;
    Alcotest.test_case "stalled frame loop still detected" `Quick
      test_stall_still_detected;
    Alcotest.test_case "every request executes once on a healthy tier" `Quick
      test_execute_once;
  ]
