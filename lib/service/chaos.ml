module Json = Dise_telemetry.Json
module Diag = Dise_isa.Diag
module Rng = Dise_workload.Rng

type action =
  | Kill of { shard : int; permanent : bool }
  | Stall of { shard : int; ms : int }
  | Torn of { shard : int; cut : int }
  | Drop_ping of { shard : int }
  | Raise
  | Sleep of { ms : int }

exception Injected

(* The events still to fire, as (after, action) in file order. *)
type t = { mutable pending : (int * action) list }

let parse_error msg =
  Error (Diag.Parse { source = "chaos_schedule"; line = 0; msg })

(* A misspelled member is an error, never a silently dropped knob (a
   "permanant" kill would respawn instead of failing the shard over). *)
let unknown_member known = function
  | Json.Obj members ->
    List.find_map
      (fun (k, _) ->
        if List.mem k known then None else Some (Printf.sprintf "unknown member %S" k))
      members
  | _ -> None

(* [rng] is drawn in file order: the replay determinism anchor. *)
let event_of_json rng i j =
  let err msg = parse_error (Printf.sprintf "event %d: %s" i msg) in
  let int_m name =
    match Json.member name j with Some (Json.Int v) -> Some v | _ -> None
  in
  let worker f =
    match int_m "shard" with
    | None -> err "missing or non-integer \"shard\""
    | Some shard when shard < 0 -> err "\"shard\" must be >= 0"
    | Some shard -> Ok (f shard)
  in
  let job name a =
    if Json.member "shard" j <> None then
      err (Printf.sprintf "job action %S takes no \"shard\"" name)
    else Ok a
  in
  let with_ms name f =
    match int_m "ms" with
    | Some ms when ms > 0 -> f ms
    | _ -> err (Printf.sprintf "%S needs a positive integer \"ms\"" name)
  in
  match
    (unknown_member [ "after"; "action"; "shard"; "permanent"; "ms" ] j, int_m "after")
  with
  | Some msg, _ -> err msg
  | None, None -> err "missing or non-integer \"after\""
  | None, Some after when after < 0 -> err "\"after\" must be >= 0"
  | None, Some after ->
    Result.map
      (fun a -> (after, a))
      (match Json.member "action" j with
      | Some (Json.String "kill") ->
        let permanent = Json.member "permanent" j = Some (Json.Bool true) in
        worker (fun shard -> Kill { shard; permanent })
      | Some (Json.String "stall") ->
        with_ms "stall" (fun ms -> worker (fun shard -> Stall { shard; ms }))
      | Some (Json.String "torn") ->
        (* the cut point is the seeded knob: anywhere from a torn
           header (cut < 4) to an almost-complete body *)
        worker (fun shard -> Torn { shard; cut = 1 + Rng.int rng 258 })
      | Some (Json.String "drop_ping") -> worker (fun shard -> Drop_ping { shard })
      | Some (Json.String "raise") -> job "raise" Raise
      | Some (Json.String "sleep") ->
        with_ms "sleep" (fun ms -> job "sleep" (Sleep { ms }))
      | Some (Json.String a) -> err (Printf.sprintf "unknown action %S" a)
      | _ -> err "missing \"action\"")

let of_json doc =
  match doc with
  | Json.Obj _ ->
    let ( let* ) = Result.bind in
    let* () =
      match (unknown_member [ "record"; "seed"; "events" ] doc, Json.member "record" doc) with
      | Some msg, _ -> parse_error msg
      | None, (None | Some (Json.String "chaos_schedule")) -> Ok ()
      | None, Some _ -> parse_error "record must be \"chaos_schedule\""
    in
    let* seed =
      match Json.member "seed" doc with
      | Some (Json.Int s) -> Ok s
      | None -> Ok 0
      | Some _ -> parse_error "seed must be an integer"
    in
    let* pending =
      match Json.member "events" doc with
      | Some (Json.List evs) ->
        let rng = Rng.create seed in
        let rec decode i acc = function
          | [] -> Ok (List.rev acc)
          | j :: rest ->
            let* e = event_of_json rng i j in
            decode (i + 1) (e :: acc) rest
        in
        decode 0 [] evs
      | _ -> parse_error "missing \"events\" list"
    in
    Ok { pending }
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

let fire t ~requests =
  let due, rest = List.partition (fun (after, _) -> requests >= after) t.pending in
  t.pending <- rest;
  List.map snd due

let inject = function
  | Raise -> raise Injected
  | Sleep { ms } -> Unix.sleepf (float_of_int ms /. 1000.)
  | Kill _ | Stall _ | Torn _ | Drop_ping _ -> ()
