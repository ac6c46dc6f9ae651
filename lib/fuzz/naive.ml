module Machine = Dise_machine.Machine
module Prodset = Dise_core.Prodset
module Replacement = Dise_core.Replacement
module Engine = Dise_core.Engine

let expander prodset ~pc insn =
  match Prodset.lookup prodset insn with
  | None -> None
  | Some (_p, rsid) -> (
    match Prodset.sequence prodset rsid with
    | None ->
      raise (Engine.Expansion_error (Printf.sprintf "unbound sequence R%d" rsid))
    | Some spec -> (
      match Replacement.instantiate spec ~trigger:insn ~pc with
      | seq -> Some (Machine.expansion ~rsid seq)
      | exception Replacement.Instantiation_error msg ->
        raise
          (Engine.Expansion_error
             (Printf.sprintf "instantiating R%d at 0x%x: %s" rsid pc msg))))
