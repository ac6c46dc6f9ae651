module I = Dise_isa.Insn
module Reg = Dise_isa.Reg
module Op = Dise_isa.Opcode
module Program = Dise_isa.Program
module Diag = Dise_isa.Diag
module Rng = Dise_workload.Rng
module Profile = Dise_workload.Profile
module Codegen = Dise_workload.Codegen
module Pattern = Dise_core.Pattern
module Production = Dise_core.Production
module Prodset = Dise_core.Prodset
module Replacement = Dise_core.Replacement
module Mfi = Dise_acf.Mfi
module Compress = Dise_acf.Compress
module Json = Dise_telemetry.Json

type mode = Plain | Mfi of Mfi.variant | Compressed of int

type t = {
  seed : int;
  dyn_target : int;
  hot_kb : int;
  cold_kb : int;
  data_kb : int;
  idiom_pool : int;
  boundary_imms : bool;
  n_prods : int;
  mode : mode;
}

let scheme_of ix =
  let l = Compress.fig7_schemes in
  List.nth l (((ix mod List.length l) + List.length l) mod List.length l)

let generate rng =
  let mode =
    Rng.weighted rng
      [
        (3.0, Plain);
        (0.8, Mfi Mfi.Dise3);
        (0.8, Mfi Mfi.Dise4);
        (1.4, Compressed (Rng.int rng (List.length Compress.fig7_schemes)));
      ]
  in
  {
    seed = Rng.int rng 0x3FFFFFFF;
    dyn_target = 2_000 + Rng.int rng 10_000;
    hot_kb = 1 + Rng.int rng 3;
    cold_kb = Rng.int rng 3;
    data_kb = 1 + Rng.int rng 7;
    idiom_pool = 1 + Rng.int rng 8;
    boundary_imms = Rng.bool rng;
    n_prods = 1 + Rng.int rng 6;
    mode;
  }

let profile c =
  {
    Profile.name = "fuzz";
    seed = c.seed;
    hot_kb = c.hot_kb;
    cold_kb = c.cold_kb;
    data_kb = c.data_kb;
    load_w = 0.2;
    store_w = 0.12;
    branch_w = 0.18;
    call_w = 0.05;
    random_branch = 0.3;
    idiom_pool = c.idiom_pool;
  }

(* --- boundary-immediate mutation ---------------------------------------- *)

(* The 16-bit edges the encoder and the sign16 reinterpretation pivot
   on. Safe to plant only where the destination is a pure scratch
   register (r3..r12): the generator computes every memory address in
   r13/r14 from r16..r19 and keeps its loop counters in r15/r21, so
   scratch values never feed an address or a loop bound — mutating
   them perturbs data flow identically on every side without risking
   termination or memory safety. *)
let boundary_pool = [| -32768; -32767; -1; 0; 1; 32766; 32767; 0x4000; -0x4000 |]

let scratch_dest = function Reg.R n -> n >= 3 && n <= 12 | _ -> false

let plant_boundaries rng prog =
  List.map
    (function
      | Program.Ins (I.Ropi (op, rs, _, rd))
        when scratch_dest rd && Rng.float rng < 0.25 ->
        Program.Ins (I.Ropi (op, rs, Rng.pick rng boundary_pool, rd))
      | item -> item)
    prog

(* Two register-file edges, planted with the boundary immediates:
   writes to the zero register (an ALU result and a repeated load —
   no-ops on a correct machine, while the generator's [li] idiom reads
   r0, so a write that sticks shows at once), and, with [~jalr],
   returns through [jalr] ([jr ra] becomes [jalr ra, rN]: the link
   lands in a scratch register, so a wrong link value perturbs data
   flow without breaking control flow). The link is a code address and
   reaches the data segment through scratch stores, so [~jalr] holds
   only where the expanded image keeps the reference layout. *)
let plant_register_edges ~jalr rng prog =
  let scratch () = Reg.r (3 + Rng.int rng 10) in
  List.concat_map
    (function
      | Program.Ins (I.Ropi (_, _, _, rd)) as item
        when scratch_dest rd && Rng.float rng < 0.1 ->
        [ item; Program.Ins (I.Rop (Op.Add, rd, rd, Reg.zero)) ]
      | Program.Ins (I.Mem ((Op.Ldq | Op.Ldbu) as op, base, off, rd)) as item
        when scratch_dest rd && (not (Reg.equal base rd))
             && Rng.float rng < 0.1 ->
        [ item; Program.Ins (I.Mem (op, base, off, Reg.zero)) ]
      | Program.Ins (I.Jr r) when jalr && Reg.equal r Reg.ra && Rng.bool rng ->
        [ Program.Ins (I.Jalr (Reg.ra, scratch ())) ]
      | item -> [ item ])
    prog

(* --- random transparent productions ------------------------------------- *)

(* Replacement prefixes must be transparent: they may write only
   dedicated registers ($dr0/$dr1 here — the MFI sets use higher
   numbers, so these never collide), may read memory the application
   itself addresses (byte loads, which cannot misalign), and always
   end by executing the trigger. A DISE-internal branch is allowed
   only as a forward skip to the trigger slot, so the sequence
   terminates whichever way it resolves. *)
let dr0 = Replacement.Rlit (Reg.d 0)
let dr1 = Replacement.Rlit (Reg.d 1)

let safe_prefix_insn rng ~has_rs ~has_imm =
  let alu = [| Op.Add; Op.Sub; Op.Xor; Op.Or_; Op.And_ |] in
  let pool =
    List.concat
      [
        [
          (fun () ->
            Replacement.Insn
              (I.Ropi (Rng.pick rng alu, dr0, Ilit (Rng.range rng (-8) 8), dr0)));
          (fun () ->
            Replacement.Insn (I.Rop (Rng.pick rng alu, dr0, dr1, dr1)));
          (fun () ->
            Replacement.Insn (I.Lui (Ilit (Rng.int rng 1024), dr0)));
          (fun () -> Replacement.Insn I.Nop);
        ];
        (if has_rs then
           [ (fun () -> Replacement.Insn (I.Ropi (Op.Add, Rrs, Ilit 0, dr0))) ]
         else []);
        (if has_imm then
           [ (fun () -> Replacement.Insn (I.Ropi (Op.Add, dr0, Iimm, dr0))) ]
         else []);
        (if has_rs && has_imm then
           (* the application's own effective address, byte-read *)
           [ (fun () -> Replacement.Insn (I.Mem (Op.Ldbu, Rrs, Iimm, dr1))) ]
         else []);
      ]
  in
  (List.nth pool (Rng.int rng (List.length pool))) ()

let random_production rng i =
  let pattern, has_rs, has_imm =
    match Rng.int rng 4 with
    | 0 -> (Pattern.loads, true, true)
    | 1 -> (Pattern.stores, true, true)
    | 2 -> (Pattern.cond_branches, true, false)
    | _ -> (Pattern.any, false, false)
  in
  let pattern =
    if has_imm && Rng.bool rng then
      Pattern.with_imm
        (if Rng.bool rng then Pattern.Imm_neg else Pattern.Imm_nonneg)
        pattern
    else pattern
  in
  let k = Rng.int rng 4 in
  let body = List.init k (fun _ -> safe_prefix_insn rng ~has_rs ~has_imm) in
  let body =
    if k > 0 && Rng.float rng < 0.3 then
      (* skip straight to the trigger slot when $dr0 says so *)
      Replacement.Insn
        (I.Dbr (Rng.pick rng [| Op.Beq; Op.Bne; Op.Bge; Op.Blt |], dr0, k + 1))
      :: body
    else body
  in
  let seq = Array.of_list (body @ [ Replacement.Trigger ]) in
  let prod =
    Production.make
      ~name:(Printf.sprintf "fz%d" i)
      ~priority:(Rng.int rng 2) pattern
      (Production.Direct (100 + i))
  in
  (prod, seq)

let random_prodset c =
  let rng = Rng.create ((c.seed * 31) + 7) in
  let rec go i ps =
    if i >= c.n_prods then ps
    else
      let prod, seq = random_production rng i in
      go (i + 1) (Prodset.add ps prod seq)
  in
  go 0 Prodset.empty

(* --- derivation --------------------------------------------------------- *)

type built = {
  case : t;
  program : Program.t;
  image : Program.Image.t;
  reference : Program.Image.t;
  prodset : Prodset.t;
  init : Dise_machine.Machine.t -> unit;
}

let build c =
  let gen = Codegen.generate ~dyn_target:c.dyn_target (profile c) in
  let program =
    if c.boundary_imms then
      plant_boundaries (Rng.create ((c.seed * 17) + 3)) gen.Codegen.program
      |> plant_register_edges
           ~jalr:
             (match c.mode with Compressed _ -> false | Plain | Mfi _ -> true)
           (Rng.create ((c.seed * 17) + 5))
    else gen.Codegen.program
  in
  let reference = Program.layout ~base:Codegen.code_base program in
  match c.mode with
  | Plain ->
    {
      case = c;
      program;
      image = reference;
      reference;
      prodset = random_prodset c;
      init = ignore;
    }
  | Mfi variant ->
    {
      case = c;
      program;
      image = reference;
      reference;
      prodset = Mfi.productions_for ~variant reference;
      init =
        (fun m ->
          Mfi.install m ~data_seg:Codegen.data_segment_id
            ~code_seg:Codegen.code_segment_id);
    }
  | Compressed ix ->
    let r = Compress.compress ~scheme:(scheme_of ix) program in
    {
      case = c;
      program = r.Compress.program;
      image = r.Compress.image;
      reference;
      prodset = r.Compress.prodset;
      init = ignore;
    }

(* --- serialization ------------------------------------------------------ *)

let mode_to_json = function
  | Plain -> Json.Obj [ ("kind", Json.String "plain") ]
  | Mfi Mfi.Dise3 ->
    Json.Obj [ ("kind", Json.String "mfi"); ("variant", Json.String "dise3") ]
  | Mfi Mfi.Dise4 ->
    Json.Obj [ ("kind", Json.String "mfi"); ("variant", Json.String "dise4") ]
  | Compressed ix ->
    Json.Obj [ ("kind", Json.String "compressed"); ("scheme", Json.Int ix) ]

let to_json c =
  Json.Obj
    [
      ("seed", Json.Int c.seed);
      ("dyn_target", Json.Int c.dyn_target);
      ("hot_kb", Json.Int c.hot_kb);
      ("cold_kb", Json.Int c.cold_kb);
      ("data_kb", Json.Int c.data_kb);
      ("idiom_pool", Json.Int c.idiom_pool);
      ("boundary_imms", Json.Bool c.boundary_imms);
      ("n_prods", Json.Int c.n_prods);
      ("mode", mode_to_json c.mode);
    ]

let parse_err msg = Error (Diag.Parse { source = "fuzz-case"; line = 0; msg })

let of_json doc =
  let int k =
    match Json.member k doc with
    | Some (Json.Int n) -> Ok n
    | _ -> parse_err (Printf.sprintf "missing or non-integer member %S" k)
  in
  let ( let* ) = Result.bind in
  let* seed = int "seed" in
  let* dyn_target = int "dyn_target" in
  let* hot_kb = int "hot_kb" in
  let* cold_kb = int "cold_kb" in
  let* data_kb = int "data_kb" in
  let* idiom_pool = int "idiom_pool" in
  let* n_prods = int "n_prods" in
  let* boundary_imms =
    match Json.member "boundary_imms" doc with
    | Some (Json.Bool b) -> Ok b
    | _ -> parse_err "missing or non-boolean member \"boundary_imms\""
  in
  let* mode =
    match Json.member "mode" doc with
    | Some m -> (
      match Json.member "kind" m with
      | Some (Json.String "plain") -> Ok Plain
      | Some (Json.String "mfi") -> (
        match Json.member "variant" m with
        | Some (Json.String "dise3") -> Ok (Mfi Mfi.Dise3)
        | Some (Json.String "dise4") -> Ok (Mfi Mfi.Dise4)
        | _ -> parse_err "unknown mfi variant")
      | Some (Json.String "compressed") -> (
        match Json.member "scheme" m with
        | Some (Json.Int ix) -> Ok (Compressed ix)
        | _ -> parse_err "compressed mode needs an integer \"scheme\"")
      | _ -> parse_err "unknown mode kind")
    | None -> parse_err "missing member \"mode\""
  in
  Ok
    {
      seed;
      dyn_target;
      hot_kb;
      cold_kb;
      data_kb;
      idiom_pool;
      boundary_imms;
      n_prods;
      mode;
    }

let summary c =
  let mode =
    match c.mode with
    | Plain -> Printf.sprintf "plain(%d prods)" c.n_prods
    | Mfi Mfi.Dise3 -> "mfi-dise3"
    | Mfi Mfi.Dise4 -> "mfi-dise4"
    | Compressed ix -> "compressed:" ^ (scheme_of ix).Compress.name
  in
  Printf.sprintf
    "seed=%d dyn=%d hot=%dKB cold=%dKB data=%dKB pool=%d boundary=%b %s" c.seed
    c.dyn_target c.hot_kb c.cold_kb c.data_kb c.idiom_pool c.boundary_imms mode
