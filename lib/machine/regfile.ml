module Reg = Dise_isa.Reg
module Opcode = Dise_isa.Opcode

(* Indexed by descriptor slot ({!Dise_isa.Desc.use1_slot}): slot 0 is
   the zero register and always holds 0, register [r] lives at
   [Reg.index r + 1]. Slot 1 ([R 0]'s index plus one) is never used. *)
type t = int array

let size = 1 + Reg.num_arch + Reg.num_dedicated
let create () = Array.make size 0

let slot r =
  match r with
  | Reg.R 0 -> 0
  | _ -> Reg.index r + 1

let get t r = t.(slot r)

let set t r v =
  match r with
  | Reg.R 0 -> ()
  | _ -> t.(Reg.index r + 1) <- Opcode.signed32 v

let slots t = t
let copy = Array.copy

let arch_equal a b =
  let rec go i = i > Reg.num_arch || (a.(i) = b.(i) && go (i + 1)) in
  go 2

let checksum_arch t =
  let h = ref 0 in
  for i = 0 to Reg.num_arch - 1 do
    h := (!h * 31) + (get t (Reg.r i) land 0xFFFFFFFF)
  done;
  !h

let pp ppf t =
  for i = 0 to Reg.num_arch + Reg.num_dedicated - 1 do
    let r = if i < Reg.num_arch then Reg.r i else Reg.d (i - Reg.num_arch) in
    let v = get t r in
    if v <> 0 then
      Format.fprintf ppf "%s=%d (0x%x)@." (Reg.to_string r) v
        (v land 0xFFFFFFFF)
  done
