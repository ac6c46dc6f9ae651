module I = Dise_isa.Insn
module Op = Dise_isa.Opcode
module Reg = Dise_isa.Reg
module Asm = Dise_isa.Asm
module R = Replacement

exception Parse_error = Asm.Parse_error

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error (0, s))) fmt

let split_on_substring sep s =
  let seplen = String.length sep in
  let rec go start acc =
    let rec find i =
      if i + seplen > String.length s then None
      else if String.sub s i seplen = sep then Some i
      else find (i + 1)
    in
    match find start with
    | Some i -> go (i + seplen) (String.sub s start (i - start) :: acc)
    | None -> List.rev (String.sub s start (String.length s - start) :: acc)
  in
  go 0 []

(* --- pattern conditions ------------------------------------------- *)

let reg s =
  match Reg.of_string s with Some r -> r | None -> fail "bad register %S" s

let parse_condition pat cond =
  let cond = String.trim cond in
  let with_op op k =
    match split_on_substring op cond with
    | [ lhs; rhs ] -> Some (String.trim lhs, k, String.trim rhs)
    | _ -> None
  in
  (* Try >= before == and <. *)
  let parts =
    match with_op ">=" `Ge with
    | Some p -> p
    | None -> (
      match with_op "==" `Eq with
      | Some p -> p
      | None -> (
        match with_op "<" `Lt with
        | Some p -> p
        | None -> fail "bad condition %S" cond))
  in
  match parts with
  | "T.OPCLASS", `Eq, cls -> (
    match Op.cls_of_string cls with
    | Some c -> { pat with Pattern.opclass = Some c }
    | None -> fail "unknown opcode class %S" cls)
  | "T.OP", `Eq, m -> (
    match Dise_isa.Desc.key_of_mnemonic m with
    | Some k -> { pat with Pattern.opcode_key = Some k }
    | None -> fail "unknown mnemonic %S in T.OP condition" m)
  | "T.RS", `Eq, r -> { pat with Pattern.rs = Some (reg r) }
  | "T.RT", `Eq, r -> { pat with Pattern.rt = Some (reg r) }
  | "T.RD", `Eq, r -> { pat with Pattern.rd = Some (reg r) }
  | "T.IMM", `Eq, v ->
    { pat with Pattern.imm = Some (Pattern.Imm_eq (Asm.number v)) }
  | "T.IMM", `Lt, "0" -> { pat with Pattern.imm = Some Pattern.Imm_neg }
  | "T.IMM", `Ge, "0" -> { pat with Pattern.imm = Some Pattern.Imm_nonneg }
  | lhs, _, _ -> fail "unsupported condition on %S" lhs

(* [T.ANY] is the match-all pattern {!Pattern.pp} prints. *)
let parse_pattern s =
  if String.trim s = "T.ANY" then Pattern.any
  else List.fold_left parse_condition Pattern.any (split_on_substring "&&" s)

(* --- replacement instructions: Asm's forms, directive operands ------ *)

let rreg = function
  | "T.RS" -> R.Rrs
  | "T.RT" -> R.Rrt
  | "T.RD" -> R.Rrd
  | "T.P1" -> R.Rparam 1
  | "T.P2" -> R.Rparam 2
  | "T.P3" -> R.Rparam 3
  | s -> (
    match Reg.of_string s with
    | Some r -> R.Rlit r
    | None -> fail "bad register operand %S" s)

(* An immediate after its '#'. *)
let rimm = function
  | "T.IMM" -> R.Iimm
  | "T.PC" -> R.Ipc
  | "T.P1" -> R.Iparam 1
  | "T.P2" -> R.Iparam 2
  | "T.P3" -> R.Iparam 3
  | "T.P1P2" -> R.Iparam2 1
  | "T.P2P3" -> R.Iparam2 2
  | v -> R.Ilit (Asm.number v)

let rtarget = function
  | "T.PC+T.P1" -> R.Trel_param 1
  | "T.PC+T.P2" -> R.Trel_param 2
  | "T.PC+T.P3" -> R.Trel_param 3
  | "T.PC+T.P1P2" -> R.Trel_param2 1
  | "T.PC+T.P2P3" -> R.Trel_param2 2
  | s -> ( match Asm.target s with I.Abs a -> R.Tabs a | I.Lab l -> R.Tlab l)

let parse_rinsn line =
  if String.trim line = "T.INSN" then R.Trigger
  else
    R.Insn
      (I.map ~reg:rreg ~imm:rimm ~target:rtarget
         ~cw:(fun _ ->
           fail "codeword in a replacement sequence (expansion is not recursive)")
         (Asm.form line))

(* --- whole-source parsing ------------------------------------------ *)

type header =
  | Hprod of string * string  (* name, body *)
  | Hseq of int * string      (* sequence id, trailing first insn or "" *)
  | Hnone of string           (* continuation line *)

(* "R<n>" names sequence n. *)
let seq_id s =
  if String.length s > 1 && s.[0] = 'R' then
    int_of_string_opt (String.sub s 1 (String.length s - 1))
  else None

let classify line =
  match String.index_opt line ':' with
  | None -> Hnone line
  | Some i ->
    let name = String.trim (String.sub line 0 i) in
    let rest = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
    if not (Asm.is_ident name) then Hnone line
    else if
      (* A production header has "->" in its body. *)
      List.length (split_on_substring "->" rest) = 2
    then Hprod (name, rest)
    else match seq_id name with Some id -> Hseq (id, rest) | None -> Hnone line

let parse source =
  let lines = String.split_on_char '\n' source in
  let prodset = ref Prodset.empty in
  let cur_seq : (int * R.rinsn list ref) option ref = ref None in
  let flush () =
    match !cur_seq with
    | Some (id, insns) ->
      prodset :=
        Prodset.define_sequence !prodset id (Array.of_list (List.rev !insns));
      cur_seq := None
    | None -> ()
  in
  let handle lineno raw =
    let line = String.trim (Asm.strip_comment raw) in
    if line = "" then ()
    else
      match classify line with
      | Hprod (name, body) -> (
        flush ();
        match split_on_substring "->" body with
        | [ lhs; rhs ] -> (
          let pattern = parse_pattern lhs in
          let rhs, priority =
            match String.split_on_char ' ' rhs |> List.filter (( <> ) "") with
            | [ rhs ] -> (rhs, 0)
            | [ rhs; "priority"; n ] -> (
              match int_of_string_opt n with
              | Some n -> (rhs, n)
              | None -> fail "bad priority %S" n)
            | _ -> fail "bad right-hand side %S" (String.trim rhs)
          in
          let rsid =
            if rhs = "TAG" then Production.From_tag
            else
              match seq_id rhs with
              | Some id -> Production.Direct id
              | None -> fail "bad sequence name %S" rhs
          in
          prodset :=
            Prodset.add_production !prodset
              (Production.make ~name ~priority pattern rsid))
        | _ -> fail "bad production line %d" lineno)
      | Hseq (id, first) ->
        flush ();
        let insns = ref [] in
        if first <> "" then insns := [ parse_rinsn first ];
        cur_seq := Some (id, insns)
      | Hnone body -> (
        match !cur_seq with
        | Some (_, insns) -> insns := parse_rinsn body :: !insns
        | None -> fail "instruction outside a replacement block: %S" body)
  in
  List.iteri
    (fun idx raw ->
      try handle (idx + 1) raw
      with Parse_error (0, msg) -> raise (Parse_error (idx + 1, msg)))
    lines;
  flush ();
  !prodset

let to_string set =
  let b = Buffer.create 512 in
  List.iter
    (fun p ->
      Buffer.add_string b (Format.asprintf "%a" Production.pp p);
      Buffer.add_char b '\n')
    (Prodset.productions set);
  List.iter
    (fun (id, seq) ->
      Buffer.add_string b (Printf.sprintf "R%d:" id);
      Array.iteri
        (fun i r ->
          Buffer.add_string b (if i = 0 then " " else "\n    ");
          Buffer.add_string b (Format.asprintf "%a" R.pp_rinsn r))
        seq;
      Buffer.add_char b '\n')
    (Prodset.sequences set);
  Buffer.contents b

let parse_result ?(source = "<productions>") text =
  match parse text with
  | set -> Ok set
  | exception Parse_error (line, msg) ->
    Error (Dise_isa.Diag.Parse { source; line; msg })

let load ~program:(asm_source, asm_text) ~productions =
  let ( let* ) = Result.bind in
  let guard source f =
    try Ok (f ()) with
    | Dise_isa.Program.Layout_error msg | Replacement.Instantiation_error msg ->
      Error (Dise_isa.Diag.Parse { source; line = 0; msg })
  in
  let* prog = Asm.parse_result ~source:asm_source asm_text in
  let* img = guard asm_source (fun () -> Dise_isa.Program.layout prog) in
  match productions with
  | None -> Ok (img, None)
  | Some (source, text) ->
    let* set = parse_result ~source text in
    let symbol = Dise_isa.Program.Image.symbol img in
    let* set = guard source (fun () -> Prodset.resolve_labels symbol set) in
    Ok (img, Some set)
