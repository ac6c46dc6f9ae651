module Json = Dise_telemetry.Json
module Cache = Dise_service.Cache
module Server = Dise_service.Server
module Coordinator = Dise_service.Coordinator
module Serve_config = Dise_service.Serve_config
module Request = Dise_service.Request
module Resilience = Dise_service.Resilience
module Rng = Dise_workload.Rng

type report = { passed : int; failures : (string * string) list }

let run_checks checks =
  let passed = ref 0 and failures = ref [] in
  List.iter
    (fun (name, f) ->
      match f () with
      | Ok () -> incr passed
      | Error detail -> failures := (name, detail) :: !failures
      | exception ex ->
        failures := (name, "raised " ^ Printexc.to_string ex) :: !failures)
    checks;
  { passed = !passed; failures = List.rev !failures }

let merge a b =
  { passed = a.passed + b.passed; failures = a.failures @ b.failures }

let pp_report ppf r =
  if r.failures = [] then
    Format.fprintf ppf "%d fault-injection checks passed" r.passed
  else begin
    Format.fprintf ppf "%d passed, %d FAILED:" r.passed
      (List.length r.failures);
    List.iter
      (fun (name, detail) -> Format.fprintf ppf "@\n  [%s] %s" name detail)
      r.failures
  end

(* --- helpers ------------------------------------------------------------ *)

let temp_dir stem =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s.%d.%d" stem (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir d 0o755;
  d

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
    end
    else try Sys.remove path with Sys_error _ -> ()

let write_raw path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let read_raw path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- cache faults ------------------------------------------------------- *)

let payload = Json.Obj [ ("v", Json.Int 42) ]
let request = Json.Obj [ ("probe", Json.Bool true) ]

let payload_ok = function
  | None -> true
  | Some p -> p = payload

(* Corruptions exercised against every entry. Each returns the bytes
   to plant in place of a valid entry. *)
let corruptions valid =
  [
    ("truncated", String.sub valid 0 (String.length valid / 2));
    ("empty", "");
    ("garbage", "{\"salt\": not json at all");
    ( "first-byte-flip",
      "X" ^ String.sub valid 1 (String.length valid - 1) );
    ( "stale-salt",
      Printf.sprintf
        "{\"salt\":\"bogus\",\"key\":\"k\",\"request\":{},\"payload\":{}}\n" );
  ]

let cache_recovery () =
  let dir = temp_dir "dise-fuzz-cache" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let c = Cache.create ~dir in
      let k = Cache.key "fuzz-probe" in
      Cache.store c ~key:k ~request ~payload;
      if Cache.find c ~key:k <> Some payload then
        Error "fresh entry does not read back"
      else begin
        let valid = read_raw (Cache.path c ~key:k) in
        let rec go = function
          | [] -> Ok ()
          | (name, bytes) :: rest -> (
            write_raw (Cache.path c ~key:k) bytes;
            match Cache.find c ~key:k with
            | exception ex ->
              Error
                (Printf.sprintf "%s corruption: find raised %s" name
                   (Printexc.to_string ex))
            | Some p when p <> payload && name <> "first-byte-flip" ->
              Error (Printf.sprintf "%s corruption: wrong payload" name)
            | _ ->
              (* recovery must be idempotent and must not block a
                 subsequent store+find round trip *)
              if Cache.find c ~key:k <> None then
                Error
                  (Printf.sprintf "%s corruption: entry not retired" name)
              else begin
                Cache.store c ~key:k ~request ~payload;
                if Cache.find c ~key:k <> Some payload then
                  Error
                    (Printf.sprintf "%s corruption: cannot re-store" name)
                else go rest
              end)
        in
        go (corruptions valid)
      end)

let cache_invalidate_idempotent () =
  let dir = temp_dir "dise-fuzz-cache" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let c = Cache.create ~dir in
      let k = Cache.key "fuzz-invalidate" in
      Cache.store c ~key:k ~request ~payload;
      Cache.invalidate c ~key:k;
      Cache.invalidate c ~key:k;
      (* twice: second is a no-op *)
      if Cache.find c ~key:k <> None then Error "entry survived invalidate"
      else begin
        Cache.store c ~key:k ~request ~payload;
        if Cache.find c ~key:k <> Some payload then
          Error "cannot store after invalidate"
        else Ok ()
      end)

(* Several domains hammer one key with find/store/invalidate while
   corruption is injected underneath them: the documented contract is
   that no call ever raises and every find returns either a miss or
   the valid payload. *)
let cache_hammer ~seed () =
  let dir = temp_dir "dise-fuzz-cache" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let c = Cache.create ~dir in
      let k = Cache.key "fuzz-hammer" in
      Cache.store c ~key:k ~request ~payload;
      let worker d =
        Domain.spawn (fun () ->
            let rng = Rng.create (seed + (d * 1_000_003)) in
            let bad = ref None in
            for i = 1 to 250 do
              match
                match Rng.int rng 4 with
                | 0 -> Cache.store c ~key:k ~request ~payload
                | 1 -> write_raw (Cache.path c ~key:k) "{garbage"
                | 2 -> Cache.invalidate c ~key:k
                | _ ->
                  if not (payload_ok (Cache.find c ~key:k)) then
                    failwith "wrong payload observed"
              with
              | () -> ()
              | exception ex ->
                if !bad = None then
                  bad :=
                    Some
                      (Printf.sprintf "domain %d iteration %d: %s" d i
                         (Printexc.to_string ex))
            done;
            !bad)
      in
      let domains = List.init 4 worker in
      let errors = List.filter_map Domain.join domains in
      match errors with
      | [] ->
        Cache.store c ~key:k ~request ~payload;
        if Cache.find c ~key:k <> Some payload then
          Error "cache unusable after hammer"
        else Ok ()
      | e :: _ -> Error e)

let cache_faults ~seed =
  run_checks
    [
      ("cache corrupt-entry recovery", cache_recovery);
      ("cache invalidate idempotent", cache_invalidate_idempotent);
      ("cache multi-domain hammer", cache_hammer ~seed);
    ]

(* --- serve faults ------------------------------------------------------- *)

let job ?(dyn = 2_000) id =
  match Request.to_json (Request.v ~dyn_target:dyn "tiny") with
  | Json.Obj members -> Json.to_string (Json.Obj (("id", Json.Int id) :: members))
  | _ -> assert false

(* Run one JSONL stream through the serve tier via temp files, exactly
   as [disesim serve] does over stdin/stdout. [input] is raw bytes
   (some checks need missing newlines). The workers are re-execs of
   the host executable, so it must call
   [Coordinator.worker_child_main] first thing. *)
let serve_raw ?cfg ?stop ?manifest ?on_spawn ?chaos ?cache_dir input =
  let inp = Filename.temp_file "dise-fuzz-serve-in" ".jsonl" in
  let out = Filename.temp_file "dise-fuzz-serve-out" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove inp with Sys_error _ -> ());
      try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      write_raw inp input;
      (* close-on-exec, or every worker would inherit the stream *)
      let ifd = Unix.openfile inp [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
      let ofd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0 in
      let summary =
        Fun.protect
          ~finally:(fun () ->
            Unix.close ifd;
            Unix.close ofd)
          (fun () ->
            let cfg =
              match cfg with Some c -> c | None -> Serve_config.default ()
            in
            Coordinator.run ?stop ?manifest ?on_spawn ?chaos ?cache_dir cfg
              (Coordinator.Stdio { input = ifd; output = ofd }))
      in
      let contents = read_raw out in
      let lines =
        String.split_on_char '\n' contents
        |> List.filter (fun l -> String.trim l <> "")
      in
      (summary, lines))

let response_shape line =
  match Json.parse line with
  | exception Json.Parse_error msg -> Error ("response not JSON: " ^ msg)
  | doc -> (
    let id = Json.member "id" doc in
    match Json.member "ok" doc with
    | Some (Json.Bool true) -> Ok (id, None)
    | Some (Json.Bool false) -> (
      match Option.bind (Json.member "error" doc) (Json.member "kind") with
      | Some (Json.String kind) -> Ok (id, Some kind)
      | _ -> Error "error response without kind")
    | _ -> Error "response without ok")

let expect_stream ?cfg input expected =
  let _, lines = serve_raw ?cfg input in
  if List.length lines <> List.length expected then
    Error
      (Printf.sprintf "%d responses for %d jobs" (List.length lines)
         (List.length expected))
  else
    let rec go i = function
      | [], [] -> Ok ()
      | line :: ls, (want_id, want_kind) :: ws -> (
        match response_shape line with
        | Error e -> Error (Printf.sprintf "response %d: %s" i e)
        | Ok (id, kind) ->
          if want_id <> None && id <> want_id then
            Error (Printf.sprintf "response %d: out of order (wrong id)" i)
          else if kind <> want_kind then
            Error
              (Printf.sprintf "response %d: kind %s, wanted %s" i
                 (Option.value kind ~default:"ok")
                 (Option.value want_kind ~default:"ok"))
          else go (i + 1) (ls, ws)
        | exception ex -> Error (Printexc.to_string ex))
      | _ -> assert false
    in
    go 0 (lines, expected)

let serve_malformed () =
  expect_stream
    (String.concat "\n" [ job 1; "{this is not json"; job 3 ] ^ "\n")
    [
      (Some (Json.Int 1), None);
      (None, Some "parse");
      (Some (Json.Int 3), None);
    ]

let serve_oversized () =
  let big =
    "{\"id\":2,\"bench\":\"tiny\",\"pad\":\""
    ^ String.make (Server.max_line_bytes + 64) 'x'
    ^ "\"}"
  in
  expect_stream
    (String.concat "\n" [ job 1; big; job 3 ] ^ "\n")
    [
      (Some (Json.Int 1), None);
      (None, Some "parse");
      (Some (Json.Int 3), None);
    ]

let serve_partial_valid () =
  (* final line lacks its newline but is complete JSON: a normal job *)
  expect_stream
    (job 1 ^ "\n" ^ job 2)
    [ (Some (Json.Int 1), None); (Some (Json.Int 2), None) ]

let serve_partial_truncated () =
  (* stream ends mid-job: that line still gets its (error) response *)
  expect_stream
    (job 1 ^ "\n" ^ "{\"id\":2,\"bench\":\"ti")
    [ (Some (Json.Int 1), None); (None, Some "parse") ]

let serve_sigint_drain () =
  let jobs = List.init 40 (fun i -> job ~dyn:(30_000 + i) (i + 1)) in
  let input = String.concat "\n" jobs ^ "\n" in
  let stop = Server.Stop.create () in
  let prev =
    Sys.signal Sys.sigint
      (Sys.Signal_handle (fun _ -> Server.Stop.signal stop))
  in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigint prev)
    (fun () ->
      let pid = Unix.getpid () in
      let killer =
        Domain.spawn (fun () ->
            Unix.sleepf 0.02;
            Unix.kill pid Sys.sigint)
      in
      let summary, lines =
        serve_raw ~stop
          ~cfg:Serve_config.(override (default ()) ~jobs:2 ~queue:4 ())
          input
      in
      Domain.join killer;
      (* The drain contract: no exception, every emitted response line
         is complete JSON, and responses were emitted in order. The
         signal may land after the last chunk on a fast machine, so
         served <= jobs is the strongest count claim available. *)
      if summary.Server.served <> List.length lines then
        Error
          (Printf.sprintf "summary says %d served but %d lines written"
             summary.Server.served (List.length lines))
      else if summary.Server.served > List.length jobs then
        Error "served more responses than jobs"
      else
        let rec go i = function
          | [] -> Ok ()
          | line :: rest -> (
            match response_shape line with
            | Error e -> Error (Printf.sprintf "response %d: %s" i e)
            | Ok (Some (Json.Int id), _) when id <> i + 1 ->
              Error (Printf.sprintf "response %d carries id %d" i id)
            | Ok _ -> go (i + 1) rest)
        in
        go 0 lines)

let serve_faults ~seed:_ =
  run_checks
    [
      ("serve malformed line", serve_malformed);
      ("serve oversized line", serve_oversized);
      ("serve partial final line (valid)", serve_partial_valid);
      ("serve partial final line (truncated)", serve_partial_truncated);
      ("serve SIGINT drain", serve_sigint_drain);
    ]

(* --- resilience faults --------------------------------------------------- *)

(* Set a chaos directive for the duration of one check. There is no
   unsetenv in the stdlib; the empty string parses to "no chaos". *)
let with_chaos spec f =
  Unix.putenv Resilience.Chaos.env_var spec;
  Fun.protect
    ~finally:(fun () -> Unix.putenv Resilience.Chaos.env_var "")
    f

(* A poisoned job — one that raises an exception the request layer
   does not recognize — must cost exactly its own slot: one in-order
   [internal] response, batch-mates unharmed, server still serving. *)
let serve_poisoned_job () =
  with_chaos "raise=2" (fun () ->
      expect_stream
        ~cfg:Serve_config.(override (default ()) ~jobs:2 ~queue:4 ())
        (String.concat "\n" [ job ~dyn:41_001 1; job ~dyn:41_002 2; job ~dyn:41_003 3 ] ^ "\n")
        [
          (Some (Json.Int 1), None);
          (Some (Json.Int 2), Some "internal");
          (Some (Json.Int 3), None);
        ])

(* A stalled job overruns its wall-clock budget and is answered
   [timeout], in order, without losing its slot or its batch-mates.
   The chaos stall burns the budget before the simulator starts. The
   budget is over 5x a batch-mate's cold run in a fresh worker
   (46-138 ms measured, workload generation included) and the stall
   5x the budget, so the check holds on a loaded machine too. *)
let serve_deadline_overrun () =
  with_chaos "sleep=2:3750" (fun () ->
      expect_stream
        ~cfg:
          Serve_config.(override (default ()) ~jobs:2 ~queue:4 ~deadline_ms:750 ())
        (String.concat "\n" [ job ~dyn:41_011 1; job ~dyn:41_012 2; job ~dyn:41_013 3 ] ^ "\n")
        [
          (Some (Json.Int 1), None);
          (Some (Json.Int 2), Some "timeout");
          (Some (Json.Int 3), None);
        ])

(* Admission shedding: with the high-water mark below the chunk's
   cumulative work, the first job is admitted and the rest are
   answered [overloaded] without executing. *)
let serve_shedding () =
  let input = String.concat "\n" (List.init 4 (fun i -> job ~dyn:2_000 (i + 1))) ^ "\n" in
  let summary, _ =
    serve_raw
      ~cfg:
        Serve_config.(override (default ()) ~jobs:2 ~queue:4 ~shed_above:2_500 ())
      input
  in
  if summary.Server.shed <> 3 then
    Error (Printf.sprintf "%d jobs shed, wanted 3" summary.Server.shed)
  else
    expect_stream
      ~cfg:
        Serve_config.(override (default ()) ~jobs:2 ~queue:4 ~shed_above:2_500 ())
      input
      [
        (Some (Json.Int 1), None);
        (Some (Json.Int 2), Some "overloaded");
        (Some (Json.Int 3), Some "overloaded");
        (Some (Json.Int 4), Some "overloaded");
      ]

(* Read [n] newline-terminated lines from [fd], giving up after
   [timeout_s] without progress; [None] on timeout or EOF. *)
let read_lines fd n ~timeout_s =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let count () =
    String.fold_left (fun c ch -> if ch = '\n' then c + 1 else c) 0 (Buffer.contents buf)
  in
  let rec go () =
    if count () >= n then
      Some
        (String.split_on_char '\n' (Buffer.contents buf)
        |> List.filter (fun l -> l <> ""))
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
let serve_sick_cache_degrades () =
  let dir = temp_dir "dise-fuzz-sick-cache" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let cdir = Filename.concat dir "cache" in
      let c = Cache.create ~dir:cdir in
      let key_of d = Request.key (Request.v ~dyn_target:d "tiny") in
      let dyns = List.init 6 (fun i -> 41_021 + i) in
      let healed_dyn = 41_031 in
      let block_paths =
        List.sort_uniq compare
          (List.map (fun d -> Filename.dirname (Cache.path c ~key:(key_of d))) dyns)
      in
      List.iter (fun p -> write_raw p "not a directory") block_paths;
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
      let all_ok lines =
        List.for_all
          (fun l -> match response_shape l with Ok (_, None) -> true | _ -> false)
          lines
      in
      let phases =
        Fun.protect
          ~finally:(fun () -> Unix.close in_w)
          (fun () ->
            Coordinator.write_all in_w
              (String.concat "\n" (List.mapi (fun i d -> job ~dyn:d (i + 1)) dyns)
              ^ "\n")
              0;
            match read_lines out_r (List.length dyns) ~timeout_s:60. with
            | None -> Error "no answers while the cache was sick"
            | Some lines when not (all_ok lines) ->
              Error "server did not keep answering ok while the cache was sick"
            | Some _ -> (
              List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) block_paths;
              Coordinator.write_all in_w (job ~dyn:healed_dyn 7 ^ "\n") 0;
              match read_lines out_r 1 ~timeout_s:60. with
              | Some [ l ] when all_ok [ l ] -> Ok ()
              | _ -> Error "job after healing did not succeed"))
      in
      let summary = Domain.join tier in
      Unix.close out_r;
      let store_drops =
        match
          List.filter_map
            (fun l ->
              match Json.parse l with
              | r when Json.member "record" r = Some (Json.String "serve_summary") ->
                Some r
              | _ -> None
              | exception Json.Parse_error _ -> None)
            (String.split_on_char '\n' (Buffer.contents buf))
        with
        | [ r ] -> (
          match Option.bind (Json.member "counters" r) (Json.member "store_drops") with
          | Some (Json.Int n) -> Ok n
          | _ -> Error "serve_summary counters carry no store_drops")
        | _ -> Error "no serve_summary manifest record"
      in
      match (phases, store_drops) with
      | Error e, _ | _, Error e -> Error e
      | Ok (), Ok drops ->
        if summary.Server.errors <> 0 then
          Error "server did not keep answering ok while the cache was sick"
        else if drops < List.length dyns then
          Error
            (Printf.sprintf "%d stores dropped, wanted at least %d" drops
               (List.length dyns))
        else if Cache.find c ~key:(key_of healed_dyn) = None then
          Error "the healed cache did not store the next result"
        else Ok ())

(* Crash recovery: SIGKILL the only worker while a chaos stall holds
   its batch open. The coordinator respawns it and hands the
   replacement every in-flight frame again, so each job still answers
   ok exactly once, in order, and its result is in the cache
   afterwards. *)
let serve_worker_sigkill_resubmits () =
  let root = temp_dir "dise-fuzz-sigkill" in
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      let cdir = Filename.concat root "cache" in
      let dyns = [ 41_041; 41_042; 41_043 ] in
      let input =
        String.concat "\n" (List.mapi (fun i d -> job ~dyn:d (i + 1)) dyns) ^ "\n"
      in
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
            if pid > 0 then
              try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
      in
      let summary, lines =
        with_chaos "sleep=1:1500" (fun () ->
            serve_raw ~on_spawn ~cache_dir:cdir
              ~cfg:Serve_config.(override (default ()) ~jobs:1 ~queue:4 ())
              input)
      in
      Domain.join killer;
      let expected = List.mapi (fun i _ -> (Some (Json.Int (i + 1)), None)) dyns in
      let shapes = List.map response_shape lines in
      let c = Cache.create ~dir:cdir in
      let uncached =
        List.filter
          (fun d -> Cache.find c ~key:(Request.key (Request.v ~dyn_target:d "tiny")) = None)
          dyns
      in
      if Atomic.get spawns < 2 then Error "the worker was never respawned"
      else if shapes <> List.map (fun e -> Ok e) expected then
        Error
          (Printf.sprintf "%d responses, not each job ok once and in order"
             (List.length lines))
      else if summary.Server.served <> List.length dyns then
        Error
          (Printf.sprintf "summary served %d, wanted %d" summary.Server.served
             (List.length dyns))
      else if uncached <> [] then
        Error
          (Printf.sprintf "%d resubmitted jobs missing from the result cache"
             (List.length uncached))
      else Ok ())

let resilience_faults ~seed:_ =
  run_checks
    [
      ("serve poisoned job isolated", serve_poisoned_job);
      ("serve deadline overrun", serve_deadline_overrun);
      ("serve load shedding", serve_shedding);
      ("sick cache degrades to ok", serve_sick_cache_degrades);
      ("worker SIGKILL resubmits in-flight jobs", serve_worker_sigkill_resubmits);
    ]

(* --- chaos faults ------------------------------------------------------- *)

(* One replayable chaos run against a 3-worker tier: lose a heartbeat,
   gray-stall one worker (missed heartbeats), tear a frame mid-stream
   (torn-tail respawn), then kill a worker permanently (failover). The tier's
   contract under all of it: every request answered exactly once, in
   order, all ok — and the whole run deterministic, so two executions
   of the same schedule produce the same normalized response stream
   and the same degraded topology. *)
let chaos_jobs = 60

let chaos_run ~seed () =
  let sched =
    match
      Chaos_sched.of_json
        (Json.Obj
           [
             ("record", Json.String "chaos_schedule");
             ("seed", Json.Int seed);
             ( "events",
               Json.List
                 [
                   Json.Obj
                     [
                       ("after", Json.Int 2);
                       ("action", Json.String "drop_ping");
                       ("shard", Json.Int 1);
                     ];
                   Json.Obj
                     [
                       ("after", Json.Int 10);
                       ("action", Json.String "stall");
                       ("shard", Json.Int 1);
                       ("ms", Json.Int 500);
                     ];
                   Json.Obj
                     [
                       ("after", Json.Int 20);
                       ("action", Json.String "torn");
                       ("shard", Json.Int 2);
                     ];
                   Json.Obj
                     [
                       ("after", Json.Int 40);
                       ("action", Json.String "kill");
                       ("shard", Json.Int 0);
                       ("permanent", Json.Bool true);
                     ];
                 ] );
           ])
    with
    | Ok s -> s
    | Error d -> failwith (Dise_isa.Diag.to_string d)
  in
  (* distinct dyn targets: distinct cache keys, so jobs spread across
     the ring instead of collapsing onto one shard *)
  let input =
    String.concat "\n"
      (List.init chaos_jobs (fun i -> job ~dyn:(50_000 + i) (i + 1)))
    ^ "\n"
  in
  let cfg =
    Serve_config.(override (default ()) ~workers:3 ~jobs:1 ~heartbeat_ms:100 ())
  in
  let summary, lines = serve_raw ~cfg ~chaos:(Chaos_sched.hook sched) input in
  (* The normalized projection: (id, outcome) in emission order.
     Timings vary run to run; identity and order must not. *)
  let normalized =
    List.map
      (fun line ->
        match response_shape line with
        | Ok (id, kind) -> (id, kind)
        | Error e -> failwith e)
      lines
  in
  (summary, normalized)

let serve_chaos_exactly_once ~seed () =
  let summary, normalized = chaos_run ~seed () in
  let expected =
    List.init chaos_jobs (fun i -> (Some (Json.Int (i + 1)), None))
  in
  if List.length normalized <> chaos_jobs then
    Error
      (Printf.sprintf "%d responses for %d jobs" (List.length normalized)
         chaos_jobs)
  else if normalized <> expected then Error "responses out of order or not ok"
  else if summary.Server.served <> chaos_jobs then
    Error
      (Printf.sprintf "summary served %d, wanted %d" summary.Server.served
         chaos_jobs)
  else if summary.Server.errors <> 0 then
    Error (Printf.sprintf "summary reports %d errors" summary.Server.errors)
  else Ok ()

let serve_chaos_deterministic ~seed () =
  let _, first = chaos_run ~seed () in
  let _, second = chaos_run ~seed () in
  if first <> second then
    Error "two runs of the same schedule diverged (normalized responses)"
  else Ok ()

let chaos_faults ~seed =
  run_checks
    [
      ("serve chaos exactly-once", serve_chaos_exactly_once ~seed);
      ("serve chaos deterministic replay", serve_chaos_deterministic ~seed);
    ]

let run_all ~seed =
  merge
    (merge (cache_faults ~seed) (serve_faults ~seed))
    (resilience_faults ~seed)
