module Json = Dise_telemetry.Json
module Diag = Dise_isa.Diag

type t = {
  workers : int;
  jobs : int;
  queue : int;
  deadline_ms : int option;
  shed_above : int option;
  tenant_quota : int option;
  manifest : string option;
  heartbeat_ms : int;
  suspect_misses : int;
  dead_misses : int;
  hedge_p95x : float;
  respawn_cap : int;
}

let default () =
  let jobs = Pool.default_jobs () in
  {
    workers = 1;
    jobs;
    queue = 4 * jobs;
    deadline_ms = None;
    shed_above = None;
    tenant_quota = None;
    manifest = None;
    heartbeat_ms = 500;
    suspect_misses = 3;
    dead_misses = 20;
    hedge_p95x = 8.0;
    respawn_cap = 100;
  }

(* Clamps mirror the historical Server.opts smart constructor: the
   record is total over any integers a config file may carry. *)
let normalize c =
  {
    c with
    workers = max 1 c.workers;
    jobs = max 1 c.jobs;
    queue = max 1 c.queue;
    heartbeat_ms = max 0 c.heartbeat_ms;
    suspect_misses = max 1 c.suspect_misses;
    dead_misses = max 2 c.dead_misses;
    hedge_p95x = (if c.hedge_p95x < 0. then 0. else c.hedge_p95x);
    respawn_cap = max 0 c.respawn_cap;
  }

let of_flags ?workers ?jobs ?queue ?deadline_ms ?shed_above ?tenant_quota
    ?manifest ?heartbeat_ms ?suspect_misses ?dead_misses ?hedge_p95x ?respawn_cap () =
  let d = default () in
  let jobs = match jobs with Some j -> max 1 j | None -> Pool.default_jobs () in
  let queue = match queue with Some q -> max 1 q | None -> 4 * jobs in
  normalize
    {
      workers = Option.value workers ~default:d.workers;
      jobs;
      queue;
      deadline_ms;
      shed_above;
      tenant_quota;
      manifest;
      heartbeat_ms = Option.value heartbeat_ms ~default:d.heartbeat_ms;
      suspect_misses = Option.value suspect_misses ~default:d.suspect_misses;
      dead_misses = Option.value dead_misses ~default:d.dead_misses;
      hedge_p95x = Option.value hedge_p95x ~default:d.hedge_p95x;
      respawn_cap = Option.value respawn_cap ~default:d.respawn_cap;
    }

let override cfg ?workers ?jobs ?queue ?deadline_ms ?shed_above ?tenant_quota
    ?manifest ?heartbeat_ms ?suspect_misses ?dead_misses ?hedge_p95x ?respawn_cap () =
  let v keep = function Some x -> Some x | None -> keep in
  normalize
    {
      workers = Option.value workers ~default:cfg.workers;
      jobs = Option.value jobs ~default:cfg.jobs;
      queue =
        (match queue with
        | Some q -> q
        (* [--jobs] without [--queue] re-derives the 4x default, as
           the flag-only path always has. *)
        | None -> ( match jobs with Some j -> 4 * max 1 j | None -> cfg.queue));
      deadline_ms = v cfg.deadline_ms deadline_ms;
      shed_above = v cfg.shed_above shed_above;
      tenant_quota = v cfg.tenant_quota tenant_quota;
      manifest = v cfg.manifest manifest;
      heartbeat_ms = Option.value heartbeat_ms ~default:cfg.heartbeat_ms;
      suspect_misses = Option.value suspect_misses ~default:cfg.suspect_misses;
      dead_misses = Option.value dead_misses ~default:cfg.dead_misses;
      hedge_p95x = Option.value hedge_p95x ~default:cfg.hedge_p95x;
      respawn_cap = Option.value respawn_cap ~default:cfg.respawn_cap;
    }

(* Canonical form: fixed member order, [None] members omitted —
   doc/schema/serve_config.schema.json marks every member optional,
   so the canonical text of any config validates. *)
let to_json c =
  let opt_int name = function
    | None -> []
    | Some v -> [ (name, Json.Int v) ]
  in
  let opt_str name = function
    | None -> []
    | Some v -> [ (name, Json.String v) ]
  in
  Json.Obj
    ([
       ("workers", Json.Int c.workers);
       ("jobs", Json.Int c.jobs);
       ("queue", Json.Int c.queue);
     ]
    @ opt_int "deadline_ms" c.deadline_ms
    @ opt_int "shed_above" c.shed_above
    @ opt_int "tenant_quota" c.tenant_quota
    @ opt_str "manifest" c.manifest
    @ [
        ("heartbeat_ms", Json.Int c.heartbeat_ms);
        ("suspect_misses", Json.Int c.suspect_misses);
        ("dead_misses", Json.Int c.dead_misses);
        ("hedge_p95x", Json.Float c.hedge_p95x);
        ("respawn_cap", Json.Int c.respawn_cap);
      ])

let parse_error msg = Error (Diag.Parse { source = "serve_config"; line = 0; msg })

let known_members =
  [
    "workers"; "jobs"; "queue"; "deadline_ms"; "shed_above"; "tenant_quota";
    "manifest"; "heartbeat_ms"; "suspect_misses"; "dead_misses";
    "hedge_p95x"; "respawn_cap";
  ]

let of_json j =
  match j with
  | Json.Obj members -> (
    match
      List.find_opt (fun (k, _) -> not (List.mem k known_members)) members
    with
    | Some (k, _) -> parse_error (Printf.sprintf "unknown member %S" k)
    | None -> (
      let d = default () in
      let int_m name dflt =
        match List.assoc_opt name members with
        | None | Some Json.Null -> Ok dflt
        | Some (Json.Int i) -> Ok i
        | Some _ -> parse_error (name ^ " must be an integer")
      in
      let opt_int_m name dflt =
        match List.assoc_opt name members with
        | None -> Ok dflt
        | Some Json.Null -> Ok None
        | Some (Json.Int i) -> Ok (Some i)
        | Some _ -> parse_error (name ^ " must be an integer or null")
      in
      let opt_str_m name dflt =
        match List.assoc_opt name members with
        | None -> Ok dflt
        | Some Json.Null -> Ok None
        | Some (Json.String s) -> Ok (Some s)
        | Some _ -> parse_error (name ^ " must be a string or null")
      in
      let float_m name dflt =
        match List.assoc_opt name members with
        | None | Some Json.Null -> Ok dflt
        | Some (Json.Float f) -> Ok f
        | Some (Json.Int i) -> Ok (float_of_int i)
        | Some _ -> parse_error (name ^ " must be a number")
      in
      let ( let* ) = Result.bind in
      let* workers = int_m "workers" d.workers in
      let* jobs = int_m "jobs" d.jobs in
      let* queue =
        (* like the flag path, an explicit [jobs] re-derives the
           queue default when the file leaves [queue] out *)
        int_m "queue"
          (match List.assoc_opt "jobs" members with
          | Some (Json.Int j) -> 4 * max 1 j
          | _ -> d.queue)
      in
      let* deadline_ms = opt_int_m "deadline_ms" d.deadline_ms in
      let* shed_above = opt_int_m "shed_above" d.shed_above in
      let* tenant_quota = opt_int_m "tenant_quota" d.tenant_quota in
      let* manifest = opt_str_m "manifest" d.manifest in
      let* heartbeat_ms = int_m "heartbeat_ms" d.heartbeat_ms in
      let* suspect_misses = int_m "suspect_misses" d.suspect_misses in
      let* dead_misses = int_m "dead_misses" d.dead_misses in
      let* hedge_p95x = float_m "hedge_p95x" d.hedge_p95x in
      let* respawn_cap = int_m "respawn_cap" d.respawn_cap in
      Ok
        (normalize
           {
             workers;
             jobs;
             queue;
             deadline_ms;
             shed_above;
             tenant_quota;
             manifest;
             heartbeat_ms;
             suspect_misses;
             dead_misses;
             hedge_p95x;
             respawn_cap;
           })))
  | _ -> parse_error "serve config must be a JSON object"

let of_file path =
  match open_in_bin path with
  | exception Sys_error msg -> parse_error msg
  | ic -> (
    let text =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Json.parse text with
    | exception Json.Parse_error msg ->
      Error (Diag.Parse { source = path; line = 0; msg })
    | doc -> of_json doc)
