module Reg = Dise_isa.Reg
module Opcode = Dise_isa.Opcode

type t = int array

let size = Reg.num_arch + Reg.num_dedicated
let create () = Array.make size 0

let get t r =
  match r with
  | Reg.R 0 -> 0
  | _ -> t.(Reg.index r)

let set t r v =
  match r with
  | Reg.R 0 -> ()
  | _ -> t.(Reg.index r) <- Opcode.signed32 v

let copy = Array.copy

let arch_equal a b =
  let rec go i = i >= Reg.num_arch || (a.(i) = b.(i) && go (i + 1)) in
  go 0

let checksum_arch t =
  let h = ref 0 in
  for i = 0 to Reg.num_arch - 1 do
    h := (!h * 31) + (t.(i) land 0xFFFFFFFF)
  done;
  !h

let pp ppf t =
  for i = 0 to size - 1 do
    let r = if i < Reg.num_arch then Reg.r i else Reg.d (i - Reg.num_arch) in
    if t.(i) <> 0 then
      Format.fprintf ppf "%s=%d (0x%x)@." (Reg.to_string r) t.(i)
        (t.(i) land 0xFFFFFFFF)
  done
