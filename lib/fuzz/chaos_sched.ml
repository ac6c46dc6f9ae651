module Json = Dise_telemetry.Json
module Diag = Dise_isa.Diag
module Rng = Dise_workload.Rng
module Coordinator = Dise_service.Coordinator

type action =
  | Kill of { shard : int; permanent : bool }
  | Stall of { shard : int; ms : int }
  | Torn of { shard : int }
  | Drop_ping of { shard : int }

type event = { after : int; action : action }

type t = {
  seed : int;
  events : event list;
  rng : Rng.t;  (* drawn in event order: the replay determinism anchor *)
  mutable fired : bool array;  (* indexed like [events] *)
}

let seed t = t.seed
let events t = t.events

let parse_error msg =
  Error (Diag.Parse { source = "chaos_schedule"; line = 0; msg })

let event_of_json i j =
  let err msg = parse_error (Printf.sprintf "event %d: %s" i msg) in
  let int_m name =
    match Json.member name j with Some (Json.Int v) -> Some v | _ -> None
  in
  match int_m "after" with
  | None -> err "missing or non-integer \"after\""
  | Some after when after < 0 -> err "\"after\" must be >= 0"
  | Some after -> (
    match int_m "shard" with
    | None -> err "missing or non-integer \"shard\""
    | Some shard when shard < 0 -> err "\"shard\" must be >= 0"
    | Some shard -> (
      match Json.member "action" j with
      | Some (Json.String "kill") ->
        let permanent =
          match Json.member "permanent" j with
          | Some (Json.Bool b) -> b
          | _ -> false
        in
        Ok { after; action = Kill { shard; permanent } }
      | Some (Json.String "stall") -> (
        match int_m "ms" with
        | Some ms when ms > 0 -> Ok { after; action = Stall { shard; ms } }
        | _ -> err "\"stall\" needs a positive integer \"ms\"")
      | Some (Json.String "torn") -> Ok { after; action = Torn { shard } }
      | Some (Json.String "drop_ping") ->
        Ok { after; action = Drop_ping { shard } }
      | Some (Json.String a) -> err (Printf.sprintf "unknown action %S" a)
      | _ -> err "missing \"action\""))

let of_json doc =
  match doc with
  | Json.Obj _ ->
    let ( let* ) = Result.bind in
    let* () =
      match Json.member "record" doc with
      | None | Some (Json.String "chaos_schedule") -> Ok ()
      | Some _ -> parse_error "record must be \"chaos_schedule\""
    in
    let* seed =
      match Json.member "seed" doc with
      | Some (Json.Int s) -> Ok s
      | None -> Ok 0
      | Some _ -> parse_error "seed must be an integer"
    in
    let* events =
      match Json.member "events" doc with
      | Some (Json.List evs) ->
        let rec decode i acc = function
          | [] -> Ok (List.rev acc)
          | j :: rest -> (
            match event_of_json i j with
            | Ok e -> decode (i + 1) (e :: acc) rest
            | Error d -> Error d)
        in
        decode 0 [] evs
      | _ -> parse_error "missing \"events\" list"
    in
    Ok
      {
        seed;
        events;
        rng = Rng.create seed;
        fired = Array.make (List.length events) false;
      }
  | _ -> parse_error "chaos schedule must be a JSON object"

let of_file path =
  match open_in_bin path with
  | exception Sys_error msg ->
    Error (Diag.Parse { source = path; line = 0; msg })
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

let event_to_json { after; action } =
  let base name shard rest =
    Json.Obj
      ([
         ("after", Json.Int after);
         ("action", Json.String name);
         ("shard", Json.Int shard);
       ]
      @ rest)
  in
  match action with
  | Kill { shard; permanent } ->
    base "kill" shard [ ("permanent", Json.Bool permanent) ]
  | Stall { shard; ms } -> base "stall" shard [ ("ms", Json.Int ms) ]
  | Torn { shard } -> base "torn" shard []
  | Drop_ping { shard } -> base "drop_ping" shard []

let to_json t =
  Json.Obj
    [
      ("record", Json.String "chaos_schedule");
      ("seed", Json.Int t.seed);
      ("events", Json.List (List.map event_to_json t.events));
    ]

let hook t ~requests =
  let acts = ref [] in
  List.iteri
    (fun i ev ->
      if (not t.fired.(i)) && requests >= ev.after then begin
        t.fired.(i) <- true;
        match ev.action with
        | Kill { shard; permanent } ->
          acts := Coordinator.Chaos_kill { shard; permanent } :: !acts
        | Stall { shard; ms } ->
          acts := Coordinator.Chaos_stall { shard; ms } :: !acts
        | Torn { shard } ->
          (* the cut point is the seeded knob: anywhere from a torn
             header (cut < 4) to an almost-complete body *)
          let cut = 1 + Rng.int t.rng 258 in
          acts := Coordinator.Chaos_torn { shard; cut } :: !acts
        | Drop_ping { shard } ->
          acts := Coordinator.Chaos_drop_ping { shard } :: !acts
      end)
    t.events;
  List.rev !acts
