module I = Dise_isa.Insn
module Op = Dise_isa.Opcode
module Reg = Dise_isa.Reg
module Desc = Dise_isa.Desc

type imm_pred =
  | Imm_eq of int
  | Imm_neg
  | Imm_nonneg

type t = {
  opcode_key : int option;
  opclass : Op.cls option;
  rs : Reg.t option;
  rt : Reg.t option;
  rd : Reg.t option;
  imm : imm_pred option;
}

let any =
  { opcode_key = None; opclass = None; rs = None; rt = None; rd = None;
    imm = None }

let of_class c = { any with opclass = Some c }
let of_opcode i = { any with opcode_key = Some (I.key i) }
let loads = of_class Op.C_load
let stores = of_class Op.C_store
let cond_branches = of_class Op.C_branch
let indirect_jumps = of_class Op.C_ijump

let codewords n =
  of_opcode (I.codeword ~op:n ~p1:0 ~p2:0 ~p3:0 ~tag:0)

let with_rs r t = { t with rs = Some r }
let with_imm p t = { t with imm = Some p }

let imm_matches pred v =
  match pred with
  | Imm_eq x -> v = x
  | Imm_neg -> v < 0
  | Imm_nonneg -> v >= 0

let field_matches want got =
  match want with
  | None -> true
  | Some w -> ( match got with Some g -> Reg.equal w g | None -> false)

let matches t insn =
  (match t.opcode_key with None -> true | Some k -> I.key insn = k)
  && (match t.opclass with None -> true | Some c -> I.cls insn = c)
  && field_matches t.rs (I.rs insn)
  && field_matches t.rt (I.rt insn)
  && field_matches t.rd (I.rd ~link:Reg.ra insn)
  &&
  match t.imm with
  | None -> true
  | Some pred -> (
    match I.imm ~target:I.resolved insn with
    | Some v -> imm_matches pred v
    | None -> false)

let specificity t =
  (match t.opcode_key with Some _ -> 6 | None -> 0)
  + (match t.opclass with Some _ -> 4 | None -> 0)
  + (match t.rs with Some _ -> 5 | None -> 0)
  + (match t.rt with Some _ -> 5 | None -> 0)
  + (match t.rd with Some _ -> 5 | None -> 0)
  + (match t.imm with
    | Some (Imm_eq _) -> 16
    | Some (Imm_neg | Imm_nonneg) -> 1
    | None -> 0)

let all_keys =
  let rec go i acc = if i < 0 then acc else go (i - 1) (i :: acc) in
  go (I.num_keys - 1) []

let dispatch_keys t =
  match t.opcode_key, t.opclass with
  | Some k, None -> [ k ]
  | Some k, Some c -> if Desc.cls_of_key k = c then [ k ] else []
  | None, Some c -> Desc.keys_of_class c
  | None, None -> all_keys

let subsumes_key t k = List.mem k (dispatch_keys t)

let equal (a : t) (b : t) = a = b

let pp ppf t =
  let parts = ref [] in
  let add fmt = Printf.ksprintf (fun s -> parts := s :: !parts) fmt in
  (match t.opcode_key with
  | Some k -> add "T.OP==%s" (Desc.mnemonic_of_key k)
  | None -> ());
  (match t.opclass with
  | Some c -> add "T.OPCLASS==%s" (Op.cls_to_string c)
  | None -> ());
  (match t.rs with Some r -> add "T.RS==%s" (Reg.to_string r) | None -> ());
  (match t.rt with Some r -> add "T.RT==%s" (Reg.to_string r) | None -> ());
  (match t.rd with Some r -> add "T.RD==%s" (Reg.to_string r) | None -> ());
  (match t.imm with
  | Some (Imm_eq v) -> add "T.IMM==%d" v
  | Some Imm_neg -> add "T.IMM<0"
  | Some Imm_nonneg -> add "T.IMM>=0"
  | None -> ());
  match List.rev !parts with
  | [] -> Format.pp_print_string ppf "T.ANY"
  | ps -> Format.pp_print_string ppf (String.concat " && " ps)
