type item =
  | Label of string
  | Ins of Insn.t

type t = item list

exception Layout_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Layout_error s)) fmt

module Image = struct
  type t = {
    base : int;
    insns : Insn.t array;
    descs : Desc.t array;  (* [Desc.of_insn] of each of [insns] *)
    imms : int array;  (* [Desc.imm_of_insn] of each of [insns] *)
    addrs : int array;
    sizes : int array;
    symtab : (string, int) Hashtbl.t;
    halfwords : int array;
        (* one entry per 2-byte offset from [base]: the index of the
           instruction starting there, or -1. [layout] admits only 2-
           and 4-byte instructions, so every instruction starts at an
           even offset and has an entry. *)
    text_bytes : int;
  }

  let base t = t.base
  let length t = Array.length t.insns
  let text_bytes t = t.text_bytes
  let get t i = t.insns.(i)
  let addr_of_index t i = t.addrs.(i)
  let size_of_index t i = t.sizes.(i)

  let find_index t addr =
    let off = addr - t.base in
    if off >= 0 && off < t.text_bytes && off land 1 = 0 then
      Array.unsafe_get t.halfwords (off lsr 1)
    else -1

  let raw_insns t = t.insns
  let raw_descs t = t.descs
  let raw_imms t = t.imms

  let fetch t addr =
    let i = find_index t addr in
    if i < 0 then None else Some t.insns.(i)

  let symbol t name = Hashtbl.find_opt t.symtab name

  let symbols t =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.symtab []
    |> List.sort (fun (_, a) (_, b) -> Int.compare a b)

  let end_addr t = t.base + t.text_bytes

  let iter f t =
    Array.iteri (fun i insn -> f ~addr:t.addrs.(i) insn) t.insns
end

let default_size _ = 4

(* Pass 1 of [layout]: each instruction with its address and size, in
   order, the label table and the text size. *)
let place ~base ~size_of (prog : t) =
  let symtab = Hashtbl.create 64 in
  let addr = ref base in
  let insns = ref [] in
  List.iter
    (fun item ->
      match item with
      | Label l ->
        if Hashtbl.mem symtab l then fail "duplicate label %s" l;
        Hashtbl.add symtab l !addr
      | Ins i ->
        let sz = size_of i in
        if sz <> 2 && sz <> 4 then
          fail "instruction size %d (instructions are 2 or 4 bytes)" sz;
        insns := (i, !addr, sz) :: !insns;
        addr := !addr + sz)
    prog;
  (Array.of_list (List.rev !insns), symtab, !addr - base)

let layout ?(base = 0x100000) ?(size_of = default_size) prog =
  let triples, symtab, text_bytes = place ~base ~size_of prog in
  let resolve = function
    | Insn.Abs a -> Insn.Abs a
    | Insn.Lab l -> (
      match Hashtbl.find_opt symtab l with
      | Some a -> Insn.Abs a
      | None -> fail "undefined label %s" l)
  in
  (* One pass resolves each instruction and decodes its descriptor and
     immediate. *)
  let n = Array.length triples in
  let insns = Array.make n Insn.Nop in
  let descs = Array.make n (Desc.of_insn Insn.Nop) in
  let imms = Array.make n 0 in
  Array.iteri
    (fun k (i, _, _) ->
      let i = Insn.map_target resolve i in
      insns.(k) <- i;
      descs.(k) <- Desc.of_insn i;
      imms.(k) <- Desc.imm_of_insn i)
    triples;
  let addrs = Array.map (fun (_, a, _) -> a) triples in
  let sizes = Array.map (fun (_, _, s) -> s) triples in
  let halfwords = Array.make (text_bytes / 2) (-1) in
  Array.iteri (fun i a -> halfwords.((a - base) / 2) <- i) addrs;
  {
    Image.base;
    insns;
    descs;
    imms;
    addrs;
    sizes;
    symtab;
    halfwords;
    text_bytes;
  }

let insns prog =
  List.filter_map (function Ins i -> Some i | Label _ -> None) prog

let size prog = List.length (insns prog)
let concat = List.concat

let pp ppf prog =
  List.iter
    (fun item ->
      match item with
      | Label l -> Format.fprintf ppf "%s:@." l
      | Ins i -> Format.fprintf ppf "  %a@." Insn.pp i)
    prog

module Builder = struct
  type program = t

  type t = {
    mutable rev_items : item list;
    mutable counter : int;
    prefix : string;
  }

  let create ?(prefix = "") () = { rev_items = []; counter = 0; prefix }
  let add b item = b.rev_items <- item :: b.rev_items
  let label b l = add b (Label l)
  let ins b i = add b (Ins i)
  let append b prog = List.iter (add b) prog

  let fresh_label b stem =
    b.counter <- b.counter + 1;
    if b.prefix = "" then Printf.sprintf "%s_%d" stem b.counter
    else Printf.sprintf "%s_%s%d" stem b.prefix b.counter

  let to_program b = List.rev b.rev_items
end
