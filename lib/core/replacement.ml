module I = Dise_isa.Insn
module Reg = Dise_isa.Reg

type rreg =
  | Rlit of Reg.t
  | Rrs | Rrt | Rrd
  | Rparam of int

type rimm =
  | Ilit of int
  | Iimm
  | Ipc
  | Iparam of int
  | Iparam2 of int

type rtarget =
  | Tabs of int
  | Tlab of string
  | Trel_param of int
  | Trel_param2 of int

type rinsn =
  | Trigger
  | Insn of (rreg, rimm, rtarget, I.never) I.form

type t = rinsn array

exception Instantiation_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Instantiation_error s)) fmt

let signed5 v = if v land 0x10 <> 0 then (v land 0x1F) - 32 else v land 0x1F

let to_field5 v =
  if v < -16 || v > 15 then fail "value %d does not fit a 5-bit parameter" v
  else v land 0x1F

let signed10 hi lo =
  let v = ((hi land 0x1F) lsl 5) lor (lo land 0x1F) in
  if v land 0x200 <> 0 then v - 1024 else v

let to_fields10 v =
  if v < -512 || v > 511 then
    fail "value %d does not fit a 10-bit parameter pair" v
  else
    let v = v land 0x3FF in
    ((v lsr 5) land 0x1F, v land 0x1F)

let param_of_trigger trigger i =
  match trigger with
  | I.Codeword { p1; p2; p3; _ } -> (
    match i with
    | 1 -> p1
    | 2 -> p2
    | 3 -> p3
    | _ -> fail "parameter index %d out of range" i)
  | _ -> fail "T.P%d directive on a non-codeword trigger" i

let inst_reg trigger = function
  | Rlit r -> r
  | Rrs -> (
    match I.rs trigger with
    | Some r -> r
    | None -> fail "T.RS: trigger has no rs field")
  | Rrt -> (
    match I.rt trigger with
    | Some r -> r
    | None -> fail "T.RT: trigger has no rt field")
  | Rrd -> (
    match I.rd ~link:Reg.ra trigger with
    | Some r -> r
    | None -> fail "T.RD: trigger has no rd field")
  | Rparam i -> Reg.r (param_of_trigger trigger i)

let inst_imm trigger pc = function
  | Ilit v -> v
  | Iimm -> (
    match I.imm ~target:I.resolved trigger with
    | Some v -> v
    | None -> fail "T.IMM: trigger has no immediate field")
  | Ipc -> pc
  | Iparam i -> signed5 (param_of_trigger trigger i)
  | Iparam2 i ->
    signed10 (param_of_trigger trigger i) (param_of_trigger trigger (i + 1))

let inst_target trigger pc = function
  | Tabs a -> I.Abs a
  | Tlab l -> fail "unresolved replacement label %s" l
  | Trel_param i -> I.Abs (pc + (4 * signed5 (param_of_trigger trigger i)))
  | Trel_param2 i ->
    I.Abs
      (pc
      + 4
        * signed10 (param_of_trigger trigger i)
            (param_of_trigger trigger (i + 1)))

let instantiate t ~trigger ~pc =
  let reg = inst_reg trigger
  and imm = inst_imm trigger pc
  and target = inst_target trigger pc in
  Array.map
    (function
      | Trigger -> trigger
      | Insn i -> I.map ~reg ~imm ~target ~cw:(function (_ : I.never) -> .) i)
    t

(* [f] over every instruction but the trigger. *)
let map_insns f = Array.map (function Trigger -> Trigger | Insn i -> Insn (f i))

let resolve_labels lookup =
  let target = function
    | Tlab l -> (
      match lookup l with
      | Some a -> Tabs a
      | None -> fail "unknown label %s in replacement sequence" l)
    | other -> other
  in
  map_insns (I.map ~reg:Fun.id ~imm:Fun.id ~target ~cw:Fun.id)

let dedicated_used t =
  let reg acc = function
    | Rlit (Reg.D n) -> n :: acc
    | Rlit (Reg.R _) | Rrs | Rrt | Rrd | Rparam _ -> acc
  in
  let skip acc _ = acc in
  Array.fold_left
    (fun acc -> function
      | Trigger -> acc
      | Insn i -> I.fold ~reg ~imm:skip ~target:skip acc i)
    [] t
  |> List.sort_uniq compare

let rename_dedicated f =
  let reg = function Rlit (Reg.D n) -> Rlit (Reg.d (f n)) | other -> other in
  map_insns (I.map ~reg ~imm:Fun.id ~target:Fun.id ~cw:Fun.id)

let is_static t =
  let reg ok = function Rlit _ -> ok | Rrs | Rrt | Rrd | Rparam _ -> false in
  let imm ok = function
    | Ilit _ -> ok
    | Iimm | Ipc | Iparam _ | Iparam2 _ -> false
  in
  let target ok = function
    | Tabs _ | Tlab _ -> ok
    | Trel_param _ | Trel_param2 _ -> false
  in
  Array.for_all
    (function Trigger -> false | Insn i -> I.fold ~reg ~imm ~target true i)
    t

let of_insns insns =
  let target = function I.Abs a -> Tabs a | I.Lab l -> Tlab l in
  let cw _ =
    invalid_arg "Replacement.of_insns: codeword in replacement sequence"
  in
  Array.of_list
    (List.map
       (fun i ->
         Insn (I.map ~reg:(fun r -> Rlit r) ~imm:(fun v -> Ilit v) ~target ~cw i))
       insns)

let identity = [| Trigger |]
let length = Array.length
let equal (a : t) (b : t) = a = b

let pp_rreg ppf = function
  | Rlit r -> Reg.pp ppf r
  | Rrs -> Format.pp_print_string ppf "T.RS"
  | Rrt -> Format.pp_print_string ppf "T.RT"
  | Rrd -> Format.pp_print_string ppf "T.RD"
  | Rparam i -> Format.fprintf ppf "T.P%d" i

let pp_rimm ppf = function
  | Ilit v -> Format.fprintf ppf "#%d" v
  | Iimm -> Format.pp_print_string ppf "#T.IMM"
  | Ipc -> Format.pp_print_string ppf "#T.PC"
  | Iparam i -> Format.fprintf ppf "#T.P%d" i
  | Iparam2 i -> Format.fprintf ppf "#T.P%dP%d" i (i + 1)

let pp_rtarget ppf = function
  | Tabs a -> Format.fprintf ppf "0x%x" a
  | Tlab l -> Format.pp_print_string ppf l
  | Trel_param i -> Format.fprintf ppf "T.PC+T.P%d" i
  | Trel_param2 i -> Format.fprintf ppf "T.PC+T.P%dP%d" i (i + 1)

let pp_rinsn ppf = function
  | Trigger -> Format.pp_print_string ppf "T.INSN"
  | Insn i ->
    I.pp_form ~reg:pp_rreg ~imm:pp_rimm ~off:pp_rimm ~target:pp_rtarget
      ~cw:(fun _ -> function (_ : I.never) -> .)
      ppf i

let pp ppf t =
  Array.iteri
    (fun i r ->
      if i > 0 then Format.pp_print_newline ppf ();
      Format.fprintf ppf "  %a" pp_rinsn r)
    t
