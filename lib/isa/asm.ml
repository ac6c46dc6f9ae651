exception Parse_error of int * string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error (0, s))) fmt

(* --- the lexer ---------------------------------------------------------- *)

let strip_comment line =
  let n = String.length line in
  let rec cut i =
    if i = n then line
    else if line.[i] = ';' || (line.[i] = '/' && i + 1 < n && line.[i + 1] = '/')
    then String.sub line 0 i
    else cut (i + 1)
  in
  cut 0

let is_digit c = c >= '0' && c <= '9'

let is_ident s =
  let ident_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || is_digit c || c = '_'
    || c = '$' || c = '.'
  in
  s <> "" && (not (is_digit s.[0])) && String.for_all ident_char s

let number s =
  match int_of_string_opt s with Some v -> v | None -> fail "bad number %S" s

(* [s] after its leading [c], which must be there. *)
let after c what s =
  if String.length s > 1 && s.[0] = c then String.sub s 1 (String.length s - 1)
  else fail "expected %s, got %S" what s

let target s =
  if is_ident s then Insn.Lab s
  else
    match int_of_string_opt s with
    | Some a -> Insn.Abs a
    | None -> fail "bad target %S" s

(* "imm(reg)" as (reg, imm); the offset may carry a '#' and defaults
   to 0. *)
let mem s =
  let n = String.length s in
  match String.index_opt s '(' with
  | Some i when s.[n - 1] = ')' ->
    let off = String.trim (String.sub s 0 i) in
    let off =
      if off = "" then "0"
      else if off.[0] = '#' then after '#' "#immediate" off
      else off
    in
    (String.trim (String.sub s (i + 1) (n - i - 2)), off)
  | _ -> fail "expected imm(reg), got %S" s

(* --- instruction forms -------------------------------------------------- *)

(* The parameter and tag fields are range-checked here, so a bad one
   is a parse error naming the field. *)
let codeword m op o =
  let field name bits s =
    let v = number s in
    if v < 0 || v lsr bits <> 0 then
      fail "%s: %s %d out of %d-bit range" m name v bits;
    v
  in
  let tag =
    if String.starts_with ~prefix:"tag=" o.(3) then
      String.sub o.(3) 4 (String.length o.(3) - 4)
    else o.(3)
  in
  Insn.Codeword
    {
      op;
      p1 = field "p1" 5 o.(0);
      p2 = field "p2" 5 o.(1);
      p3 = field "p3" 5 o.(2);
      tag = field "tag" 11 tag;
    }

let form line =
  let line = String.trim (String.map (fun c -> if c = '\t' then ' ' else c) line) in
  let m, rest =
    match String.index_opt line ' ' with
    | None -> (line, "")
    | Some i -> (String.sub line 0 i, String.sub line i (String.length line - i))
  in
  let m = String.lowercase_ascii m in
  let o =
    if String.trim rest = "" then [||]
    else Array.of_list (List.map String.trim (String.split_on_char ',' rest))
  in
  let arity n =
    if Array.length o <> n then
      fail "%s expects %d operands, got %d" m n (Array.length o)
  in
  let imm s = after '#' "#immediate" s in
  let disepc s = number (after '@' "@disepc" s) in
  (* The key table names every opcode; its immediate ALU names
     ([addi], ...) are for patterns only: the '#' operand picks the
     immediate form. *)
  match Option.map Desc.example_of_key (Desc.key_of_mnemonic m) with
  | Some (Insn.Rop (op, _, _, _)) ->
    arity 3;
    if String.starts_with ~prefix:"#" o.(1) then
      Insn.Ropi (op, o.(0), imm o.(1), o.(2))
    else Insn.Rop (op, o.(0), o.(1), o.(2))
  | Some (Insn.Lda _) ->
    arity 2;
    let base, off = mem o.(1) in
    Insn.Lda (base, off, o.(0))
  | Some (Insn.Lui _) -> arity 2; Insn.Lui (imm o.(0), o.(1))
  | Some (Insn.Mem (op, _, _, _)) ->
    arity 2;
    let base, off = mem o.(1) in
    Insn.Mem (op, base, off, o.(0))
  | Some (Insn.Br (op, _, _)) -> arity 2; Insn.Br (op, o.(0), o.(1))
  | Some (Insn.Jmp _) -> arity 1; Insn.Jmp o.(0)
  | Some (Insn.Jal _) -> arity 1; Insn.Jal o.(0)
  | Some (Insn.Jr _) -> arity 1; Insn.Jr o.(0)
  | Some (Insn.Jalr _) -> arity 2; Insn.Jalr (o.(0), o.(1))
  | Some (Insn.Dbr (op, _, _)) -> arity 2; Insn.Dbr (op, o.(0), disepc o.(1))
  | Some (Insn.Djmp _) -> arity 1; Insn.Djmp (disepc o.(0))
  | Some (Insn.Codeword { op; _ }) -> arity 4; codeword m op o
  | Some Insn.Nop -> arity 0; Insn.Nop
  | Some Insn.Halt -> arity 0; Insn.Halt
  | Some (Insn.Ropi _) | None ->
    if String.starts_with ~prefix:"cw" m then
      fail "%s: no such codeword opcode (cw0..cw%d)" m (Opcode.num_reserved - 1)
    else fail "unknown mnemonic %S" m

(* --- programs ----------------------------------------------------------- *)

let reg s =
  match Reg.of_string s with Some r -> r | None -> fail "bad register %S" s

let parse_line line =
  let line = String.trim (strip_comment line) in
  if line = "" then None
  else if line.[String.length line - 1] = ':' then
    let l = String.trim (String.sub line 0 (String.length line - 1)) in
    if is_ident l then Some (Program.Label l) else fail "bad label %S" l
  else
    Some
      (Program.Ins
         (Insn.map ~reg ~imm:number ~target ~cw:Fun.id (form line)))

let parse source =
  String.split_on_char '\n' source
  |> List.mapi (fun idx line ->
         try parse_line line
         with Parse_error (0, msg) -> raise (Parse_error (idx + 1, msg)))
  |> List.filter_map Fun.id

let parse_result ?(source = "<asm>") text =
  match parse text with
  | program -> Ok program
  | exception Parse_error (line, msg) ->
    Error (Diag.Parse { source; line; msg })

let parse_insn s =
  match parse_line s with
  | Some (Program.Ins i) -> i
  | Some (Program.Label _) -> fail "expected instruction, got label"
  | None -> fail "expected instruction, got blank line"
