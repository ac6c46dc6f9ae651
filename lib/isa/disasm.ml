module Image = Program.Image

let label_map img =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (name, addr) -> Hashtbl.replace tbl addr name)
    (Image.symbols img);
  tbl

let render labels insn =
  let symbolic = function
    | Insn.Abs a as t -> (
      match Hashtbl.find_opt labels a with
      | Some name -> Insn.Lab name
      | None -> t)
    | Insn.Lab _ as t -> t
  in
  Insn.to_string
    (Insn.map ~reg:Fun.id ~imm:Fun.id ~target:symbolic ~cw:Fun.id insn)

let pp_range ppf img ~lo ~hi =
  let labels = label_map img in
  for i = lo to hi - 1 do
    let addr = Image.addr_of_index img i in
    (match Hashtbl.find_opt labels addr with
    | Some name -> Format.fprintf ppf "%s:@." name
    | None -> ());
    Format.fprintf ppf "  %08x:  %s@." addr (render labels (Image.get img i))
  done

let pp_image ppf img = pp_range ppf img ~lo:0 ~hi:(Image.length img)

let insn_at img addr =
  match Image.fetch img addr with
  | None -> "<no insn>"
  | Some i -> render (label_map img) i
