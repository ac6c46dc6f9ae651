module Machine = Dise_machine.Machine
module Raw = Dise_machine.Machine.Raw
module Memory = Dise_machine.Memory
module I = Dise_isa.Insn

type side = {
  image : Dise_isa.Program.Image.t;
  expander : Machine.expander option;
  init : Machine.t -> unit;
}

let side ?expander ?(init = fun _ -> ()) image = { image; expander; init }

type divergence = {
  position : int;
  reason : string;
  left : string option;
  right : string option;
}

type outcome =
  | Equivalent of { left_steps : int; right_steps : int }
  | Diverged of divergence

let app_semantics (r : Raw.t) = r.Raw.rsid < 0 || r.Raw.offset = r.Raw.len - 1

(* Branch targets are layout-dependent; compare instructions with
   targets erased. *)
let normalize insn = I.map_target (fun _ -> I.Abs 0) insn

type pump = {
  machine : Machine.t;
  mutable steps : int;
}

let make_pump (s : side) =
  let machine =
    match s.expander with
    | Some expander -> Machine.create ~expander s.image
    | None -> Machine.create s.image
  in
  s.init machine;
  { machine; steps = 0 }

(* Advance to the next kept instruction, or None at halt. *)
let rec next ~max_steps ~keep p =
  if p.steps > max_steps then
    failwith "Diffexec: max_steps exceeded (non-terminating program?)"
  else if not (Machine.step p.machine) then None
  else begin
    p.steps <- p.steps + 1;
    let r = Machine.raw p.machine in
    if keep r then Some r.Raw.insn else next ~max_steps ~keep p
  end

let run ?(max_steps = 50_000_000) ?(keep = app_semantics)
    ?(data_lo = 0x04000000) ?(data_hi = 0x07F00000) ~left ~right () =
  let l = make_pump left and r = make_pump right in
  let rec go position =
    match
      (next ~max_steps ~keep l, next ~max_steps ~keep r)
    with
    | None, None ->
      let exit_l = Machine.exit_code l.machine
      and exit_r = Machine.exit_code r.machine in
      if exit_l <> exit_r then
        Diverged
          {
            position;
            reason =
              Printf.sprintf "exit codes differ: %d vs %d" exit_l exit_r;
            left = None;
            right = None;
          }
      else
        let dig m = Memory.checksum_range (Machine.memory m) ~lo:data_lo ~hi:data_hi in
        if dig l.machine <> dig r.machine then
          Diverged
            {
              position;
              reason = "data-segment contents differ at halt";
              left = None;
              right = None;
            }
        else Equivalent { left_steps = l.steps; right_steps = r.steps }
    | Some a, None ->
      Diverged
        {
          position;
          reason = "right halted early";
          left = Some (I.to_string a);
          right = None;
        }
    | None, Some b ->
      Diverged
        {
          position;
          reason = "left halted early";
          left = None;
          right = Some (I.to_string b);
        }
    | Some a, Some b ->
      if I.equal (normalize a) (normalize b) then go (position + 1)
      else
        Diverged
          {
            position;
            reason = "instruction streams differ";
            left = Some (I.to_string a);
            right = Some (I.to_string b);
          }
  in
  go 0

let pp_outcome ppf = function
  | Equivalent { left_steps; right_steps } ->
    Format.fprintf ppf "equivalent (%d vs %d dynamic instructions)"
      left_steps right_steps
  | Diverged d ->
    Format.fprintf ppf "diverged at kept-instruction %d: %s" d.position
      d.reason;
    (match d.left with
    | Some s -> Format.fprintf ppf "@.  left:  %s" s
    | None -> ());
    (match d.right with
    | Some s -> Format.fprintf ppf "@.  right: %s" s
    | None -> ())
