module I = Dise_isa.Insn
module Op = Dise_isa.Opcode
module Reg = Dise_isa.Reg
module R = Replacement

type severity =
  | Error
  | Warning

type finding = {
  severity : severity;
  production : string;
  message : string;
}

let finding severity production fmt =
  Printf.ksprintf (fun message -> { severity; production; message }) fmt

(* Which trigger fields does a sequence read? *)
type uses = {
  mutable u_rs : bool;
  mutable u_rt : bool;
  mutable u_rd : bool;
  mutable u_imm : bool;
  mutable u_params : bool;
  mutable u_trigger : bool;
}

let directive_uses (seq : R.t) =
  let u =
    { u_rs = false; u_rt = false; u_rd = false; u_imm = false;
      u_params = false; u_trigger = false }
  in
  let reg () = function
    | R.Rrs -> u.u_rs <- true
    | R.Rrt -> u.u_rt <- true
    | R.Rrd -> u.u_rd <- true
    | R.Rparam _ -> u.u_params <- true
    | R.Rlit _ -> ()
  in
  let imm () = function
    | R.Iimm -> u.u_imm <- true
    | R.Iparam _ | R.Iparam2 _ -> u.u_params <- true
    | R.Ilit _ | R.Ipc -> ()
  in
  let target () = function
    | R.Trel_param _ | R.Trel_param2 _ -> u.u_params <- true
    | R.Tabs _ | R.Tlab _ -> ()
  in
  Array.iter
    (function
      | R.Trigger -> u.u_trigger <- true
      | R.Insn i -> I.fold ~reg ~imm ~target () i)
    seq;
  u

(* Dedicated registers a sequence writes. *)
let dedicated_written (seq : R.t) =
  Array.fold_left
    (fun acc ri ->
      match ri with
      | R.Insn i -> (
        match I.rd ~link:(R.Rlit Reg.ra) i with
        | Some (R.Rlit (Reg.D n)) -> n :: acc
        | Some _ | None -> acc)
      | R.Trigger -> acc)
    [] seq
  |> List.sort_uniq compare

let has_halt (seq : R.t) = Array.exists (fun ri -> ri = R.Insn I.Halt) seq

let bad_internal_control (seq : R.t) =
  let len = Array.length seq in
  Array.exists
    (function
      | R.Insn (I.Dbr (_, _, t) | I.Djmp t) -> t < 0 || t > len
      | _ -> false)
    seq

(* Over the keys a pattern can match, does every/any example have the
   field? *)
let field_coverage pattern field =
  let keys = Pattern.dispatch_keys pattern in
  let have =
    List.filter
      (fun k ->
        let ex = Dise_isa.Desc.example_of_key k in
        match field with
        | `Rs -> I.rs ex <> None
        | `Rt -> I.rt ex <> None
        | `Rd -> I.rd ~link:Reg.ra ex <> None
        | `Imm -> I.imm ~target:I.resolved ex <> None)
      keys
  in
  match List.length have, List.length keys with
  | 0, _ -> `None
  | h, k when h = k -> `All
  | _ -> `Some

let codeword_coverage pattern =
  let keys = Pattern.dispatch_keys pattern in
  let cw =
    List.filter (fun k -> Dise_isa.Desc.cls_of_key k = Op.C_codeword) keys
  in
  match List.length cw, List.length keys with
  | 0, _ -> `None
  | h, k when h = k -> `All
  | _ -> `Some

let check_sequence ~name ~pattern ~reserved ~allow_halt seq =
  let fs = ref [] in
  let add f = fs := f :: !fs in
  if Array.length seq = 0 then
    add (finding Error name "empty replacement sequence");
  if bad_internal_control seq then
    add (finding Error name "DISE-internal control leaves the sequence");
  let u = directive_uses seq in
  let check_field used field label =
    if used then
      match field_coverage pattern field with
      | `All -> ()
      | `Some ->
        add
          (finding Warning name
             "directive %s may fault: some matching triggers lack the field"
             label)
      | `None ->
        add
          (finding Error name
             "directive %s always faults: no matching trigger has the field"
             label)
  in
  check_field u.u_rs `Rs "T.RS";
  check_field u.u_rt `Rt "T.RT";
  check_field u.u_rd `Rd "T.RD";
  check_field u.u_imm `Imm "T.IMM";
  if u.u_params then begin
    match codeword_coverage pattern with
    | `All -> ()
    | `Some ->
      add
        (finding Warning name
           "parameter directives under a pattern that can match \
            non-codewords")
    | `None ->
      add
        (finding Error name
           "parameter directives but the pattern never matches codewords")
  end;
  List.iter
    (fun d ->
      if List.mem d reserved then
        add
          (finding Error name "writes reserved dedicated register $dr%d" d))
    (dedicated_written seq);
  if has_halt seq && not allow_halt then
    add (finding Warning name "replacement sequence contains halt");
  !fs

let check ?(reserved_dedicated = []) ?(allow_halt = false) set =
  let findings = ref [] in
  let add fs = findings := fs @ !findings in
  (* Per production: binding plus sequence analysis under its pattern. *)
  List.iter
    (fun (p : Production.t) ->
      let name = if p.Production.name = "" then "<anon>" else p.Production.name in
      match p.Production.rsid with
      | Production.Direct id -> (
        match Prodset.sequence set id with
        | None ->
          add [ finding Error name "names unbound sequence R%d" id ]
        | Some seq ->
          add
            (check_sequence ~name ~pattern:p.Production.pattern
               ~reserved:reserved_dedicated ~allow_halt seq))
      | Production.From_tag ->
        if Prodset.num_sequences set = 0 then
          add [ finding Warning name "tag-indexed production with no sequences" ]
        else
          List.iter
            (fun (id, seq) ->
              add
                (List.map
                   (fun f ->
                     { f with production = Printf.sprintf "%s/R%d" name id })
                   (check_sequence ~name ~pattern:p.Production.pattern
                      ~reserved:reserved_dedicated ~allow_halt seq)))
            (Prodset.sequences set))
    (Prodset.productions set);
  List.rev !findings

let errors fs = List.filter (fun f -> f.severity = Error) fs

let pp_finding ppf f =
  Format.fprintf ppf "%s [%s]: %s"
    (match f.severity with Error -> "error" | Warning -> "warning")
    f.production f.message
