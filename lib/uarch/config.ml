type cache_cfg = {
  size_bytes : int;
  assoc : int;
  line_bytes : int;
}

type dise_decode =
  | Free
  | Stall_per_expansion
  | Extra_stage

type t = {
  width : int;
  depth : int;
  rob_size : int;
  icache : cache_cfg option;
  dcache : cache_cfg option;
  l2 : cache_cfg option;
  l1_latency : int;
  l2_latency : int;
  mem_latency : int;
  mul_latency : int;
  dise_decode : dise_decode;
  perfect_branch_pred : bool;
}

let kb n = n * 1024

let default =
  {
    width = 4;
    depth = 12;
    rob_size = 128;
    icache = Some { size_bytes = kb 32; assoc = 2; line_bytes = 64 };
    dcache = Some { size_bytes = kb 32; assoc = 2; line_bytes = 64 };
    l2 = Some { size_bytes = kb 1024; assoc = 8; line_bytes = 64 };
    l1_latency = 2;
    l2_latency = 10;
    mem_latency = 100;
    mul_latency = 3;
    dise_decode = Free;
    perfect_branch_pred = false;
  }

let with_icache_kb size t =
  match size with
  | None -> { t with icache = None }
  | Some n -> { t with icache = Some { size_bytes = kb n; assoc = 2; line_bytes = 64 } }

let with_width w t = { t with width = w }
let with_dise_decode d t = { t with dise_decode = d }

(* The pipeline's rings hold [max rob_size width] slots; [rob_size]
   shares the bound. *)
let max_width = 1 lsl 20

let in_range ?(hi = max_int) lo v =
  if v >= lo && v <= hi then Ok ()
  else
    Error
      (Printf.sprintf "%d out of range (expected >= %d%s)" v lo
         (if hi = max_int then "" else Printf.sprintf " and <= %d" hi))

let check_width = in_range ~hi:max_width 1

module Json = Dise_telemetry.Json

let cache_to_json = function
  | None -> Json.Null
  | Some c ->
    Json.Obj
      [
        ("size_bytes", Json.Int c.size_bytes);
        ("assoc", Json.Int c.assoc);
        ("line_bytes", Json.Int c.line_bytes);
      ]

let decode_name = function
  | Free -> "free"
  | Stall_per_expansion -> "stall_per_expansion"
  | Extra_stage -> "extra_stage"

let to_json t =
  Json.Obj
    [
      ("width", Json.Int t.width);
      ("depth", Json.Int t.depth);
      ("rob_size", Json.Int t.rob_size);
      ("icache", cache_to_json t.icache);
      ("dcache", cache_to_json t.dcache);
      ("l2", cache_to_json t.l2);
      ("l1_latency", Json.Int t.l1_latency);
      ("l2_latency", Json.Int t.l2_latency);
      ("mem_latency", Json.Int t.mem_latency);
      ("mul_latency", Json.Int t.mul_latency);
      ("dise_decode", Json.String (decode_name t.dise_decode));
      ("perfect_branch_pred", Json.Bool t.perfect_branch_pred);
    ]

let of_json j =
  let ( let* ) = Result.bind in
  let int_field name =
    match Json.member name j with
    | Some (Json.Int v) -> Ok v
    | Some _ -> Error (Printf.sprintf "machine.%s: expected integer" name)
    | None -> Error (Printf.sprintf "machine.%s: missing" name)
  in
  let ranged name check =
    let* v = int_field name in
    match check v with
    | Ok () -> Ok v
    | Error msg -> Error (Printf.sprintf "machine.%s: %s" name msg)
  in
  let at_least lo name = ranged name (in_range lo) in
  let cache_field name =
    match Json.member name j with
    | Some Json.Null -> Ok None
    | Some (Json.Obj _ as c) ->
      let cint k =
        match Json.member k c with
        | Some (Json.Int v) -> Ok v
        | _ -> Error (Printf.sprintf "machine.%s.%s: expected integer" name k)
      in
      let* size_bytes = cint "size_bytes" in
      let* assoc = cint "assoc" in
      let* line_bytes = cint "line_bytes" in
      let* () =
        Result.map_error
          (fun msg -> Printf.sprintf "machine.%s: %s" name msg)
          (Cache.check_geometry ~size_bytes ~assoc ~line_bytes)
      in
      Ok (Some { size_bytes; assoc; line_bytes })
    | Some _ -> Error (Printf.sprintf "machine.%s: expected object or null" name)
    | None -> Error (Printf.sprintf "machine.%s: missing" name)
  in
  let* width = ranged "width" check_width in
  let* depth = at_least 1 "depth" in
  let* rob_size = ranged "rob_size" (in_range ~hi:max_width 1) in
  let* icache = cache_field "icache" in
  let* dcache = cache_field "dcache" in
  let* l2 = cache_field "l2" in
  let* l1_latency = at_least 0 "l1_latency" in
  let* l2_latency = at_least 0 "l2_latency" in
  let* mem_latency = at_least 0 "mem_latency" in
  let* mul_latency = at_least 0 "mul_latency" in
  let* dise_decode =
    match Json.member "dise_decode" j with
    | Some (Json.String "free") -> Ok Free
    | Some (Json.String "stall_per_expansion") -> Ok Stall_per_expansion
    | Some (Json.String "extra_stage") -> Ok Extra_stage
    | Some (Json.String s) ->
      Error (Printf.sprintf "machine.dise_decode: unknown %S" s)
    | _ -> Error "machine.dise_decode: expected string"
  in
  let* perfect_branch_pred =
    match Json.member "perfect_branch_pred" j with
    | Some (Json.Bool b) -> Ok b
    | _ -> Error "machine.perfect_branch_pred: expected boolean"
  in
  Ok
    {
      width;
      depth;
      rob_size;
      icache;
      dcache;
      l2;
      l1_latency;
      l2_latency;
      mem_latency;
      mul_latency;
      dise_decode;
      perfect_branch_pred;
    }

let pp_cache ppf = function
  | None -> Format.pp_print_string ppf "perfect"
  | Some c ->
    Format.fprintf ppf "%dKB/%d-way/%dB" (c.size_bytes / 1024) c.assoc
      c.line_bytes

let pp ppf t =
  Format.fprintf ppf
    "%d-wide depth=%d rob=%d I$=%a D$=%a L2=%a dise=%s bp=%s" t.width t.depth
    t.rob_size pp_cache t.icache pp_cache t.dcache pp_cache t.l2
    (match t.dise_decode with
    | Free -> "free"
    | Stall_per_expansion -> "stall"
    | Extra_stage -> "+pipe")
    (if t.perfect_branch_pred then "perfect" else "gshare")
