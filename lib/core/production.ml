type rsid_spec =
  | Direct of int
  | From_tag

type t = {
  name : string;
  pattern : Pattern.t;
  rsid : rsid_spec;
  priority : int;
}

let make ?(name = "") ?(priority = 0) pattern rsid =
  { name; pattern; rsid; priority }

let rsid_of t trigger =
  match t.rsid with
  | Direct id -> id
  | From_tag -> (
    match trigger with
    | Dise_isa.Insn.Codeword { tag; _ } -> tag
    | _ -> invalid_arg "Production.rsid_of: tagged production on non-codeword")

let compare_precedence a b =
  match compare b.priority a.priority with
  | 0 -> (
    match
      compare (Pattern.specificity b.pattern) (Pattern.specificity a.pattern)
    with
    | 0 -> compare a.name b.name
    | c -> c)
  | c -> c

let pp ppf t =
  let rsid =
    match t.rsid with
    | Direct id -> Printf.sprintf "R%d" id
    | From_tag -> "TAG"
  in
  Format.fprintf ppf "%s: %a -> %s"
    (if t.name = "" then "P" else t.name)
    Pattern.pp t.pattern rsid;
  if t.priority <> 0 then Format.fprintf ppf " priority %d" t.priority
