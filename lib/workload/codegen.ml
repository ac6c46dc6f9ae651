module I = Dise_isa.Insn
module Op = Dise_isa.Opcode
module Reg = Dise_isa.Reg
module Program = Dise_isa.Program
module B = Program.Builder

let data_base = 0x04000000
let code_base = 0x00100000
let data_segment_id = data_base lsr 26
let code_segment_id = code_base lsr 26
let error_label = "__error"
let error_exit_code = 77

(* Generator register conventions. *)
let r_base = Reg.r 16  (* data segment base *)
let r_mask = Reg.r 17  (* index mask, word aligned *)
let r_lcg = Reg.r 18   (* register-resident LCG state *)
let r_mulc = Reg.r 19  (* LCG multiplier *)
let r_outer = Reg.r 21 (* main outer-loop counter *)

let lcg_mult = 0x41C64E6D
let lcg_add = 12345

type t = {
  program : Program.t;
  hot_insns : int;
  total_insns : int;
  est_dynamic : int;
}

(* Load a non-negative 31-bit constant into a register (1-4 insns). *)
let li b reg v =
  assert (v >= 0 && v <= 0x7FFFFFFF);
  if v <= 32767 then B.ins b (I.Ropi (Op.Add, Reg.zero, v, reg))
  else begin
    let hi = v lsr 16 and lo = v land 0xFFFF in
    assert (hi <= 32767);
    B.ins b (I.Lui (hi, reg));
    if lo <> 0 then
      if lo <= 32767 then B.ins b (I.Ropi (Op.Add, reg, lo, reg))
      else begin
        B.ins b (I.Ropi (Op.Add, reg, 0x4000, reg));
        B.ins b (I.Ropi (Op.Add, reg, 0x4000, reg));
        if lo - 0x8000 <> 0 then
          B.ins b (I.Ropi (Op.Add, reg, lo - 0x8000, reg))
      end
  end

(* --- block idioms --------------------------------------------------- *)

type block =
  | Straight of I.t list
  | Skip of I.t list * Op.bop * Reg.t * I.t list
      (** head; conditional skipping body *)
  | Call_leaf of int

(* General scratch registers are r1..r12. Memory blocks hold their
   effective address in r13/r14, which no other idiom ever writes, so a
   computed address can never be clobbered between its computation and
   the access that uses it. r15 is the inner-loop counter. *)
let scratch rng = Reg.r (1 + Rng.int rng 12)
let addr_reg rng = Reg.r (13 + Rng.int rng 2)
let r_inner = Reg.r 15

let lcg_step =
  [ I.Rop (Op.Mul, r_lcg, r_mulc, r_lcg);
    I.Ropi (Op.Add, r_lcg, lcg_add, r_lcg) ]

(* Compute a legal data address into [a]. *)
let addr_calc rng a =
  let i = scratch rng in
  lcg_step
  @ [ I.Rop (Op.And_, r_lcg, r_mask, i); I.Rop (Op.Add, r_base, i, a) ]

let alu_ops = [| Op.Add; Op.Sub; Op.Xor; Op.And_; Op.Or_; Op.Cmplt; Op.Cmpeq |]
let shift_ops = [| Op.Sll; Op.Srl; Op.Sra |]

let alu_insn rng =
  let d = scratch rng in
  if Rng.float rng < 0.25 then
    I.Ropi (Rng.pick rng shift_ops, scratch rng, Rng.range rng 1 7, d)
  else if Rng.bool rng then
    I.Rop (Rng.pick rng alu_ops, scratch rng, scratch rng, d)
  else I.Ropi (Rng.pick rng alu_ops, scratch rng, Rng.range rng (-64) 64, d)

let alu_block rng =
  let n = Rng.range rng 3 6 in
  Straight (List.init n (fun _ -> alu_insn rng))

(* Several field accesses off one computed base, like a record or
   array-element touch: this keeps the dynamic load density realistic
   despite the address computation overhead. *)
let load_block rng =
  let a = addr_reg rng in
  let v = scratch rng in
  let n_loads = Rng.range rng 2 4 in
  let loads =
    List.init n_loads (fun k ->
        if k > 0 && Rng.float rng < 0.15 then
          I.Mem (Op.Ldbu, a, (4 * k) + 1, scratch rng)
        else I.Mem (Op.Ldq, a, 4 * k, if k = 0 then v else scratch rng))
  in
  Straight
    (addr_calc rng a @ loads @ [ I.Rop (Op.Xor, v, r_lcg, scratch rng) ])

let store_block rng =
  let a = addr_reg rng in
  let v = scratch rng in
  let n_stores = Rng.range rng 2 3 in
  let stores =
    List.init n_stores (fun k ->
        if k > 0 && Rng.float rng < 0.2 then
          I.Mem (Op.Stb, a, (4 * k) + 1, v)
        else I.Mem (Op.Stq, a, 4 * k, v))
  in
  Straight (addr_calc rng a @ [ alu_insn rng ] @ stores)

let rmw_block rng =
  let a = addr_reg rng in
  let v = scratch rng in
  Straight
    (addr_calc rng a
    @ [
        I.Mem (Op.Ldq, a, 0, v);
        I.Ropi (Op.Add, v, Rng.range rng 1 16, v);
        I.Mem (Op.Stq, a, 0, v);
      ])

let skip_block rng =
  let tst = scratch rng in
  (* Test a middle bit of the LCG state: the low bit of an LCG
     alternates deterministically, which a gshare predictor learns
     perfectly; bits 11..18 behave like coin flips. *)
  let bit = Rng.range rng 11 18 in
  let head =
    lcg_step
    @ [ I.Ropi (Op.Srl, r_lcg, bit, tst); I.Ropi (Op.And_, tst, 1, tst) ]
  in
  let body = List.init (Rng.range rng 1 3) (fun _ -> alu_insn rng) in
  Skip (head, (if Rng.bool rng then Op.Beq else Op.Bne), tst, body)

let gen_block rng (p : Profile.t) ~n_leaves =
  let choice =
    Rng.weighted rng
      [
        (p.Profile.load_w *. 1.4, `Load);
        (p.Profile.store_w *. 2.0, `Store);
        (p.Profile.store_w *. 0.8, `Rmw);
        (p.Profile.call_w, `Call);
        (0.15, `Alu);
      ]
  in
  match choice with
  | `Load -> load_block rng
  | `Store -> store_block rng
  | `Rmw -> rmw_block rng
  | `Call -> Call_leaf (Rng.int rng n_leaves)
  | `Alu -> alu_block rng

(* --- idiom variants ---------------------------------------------------

   Real programs repeat idioms with different register assignments and
   field offsets, not verbatim. Each pool idiom therefore carries a few
   variants: consistent renamings of its scratch registers (address and
   global registers are preserved) plus a per-block jitter of memory
   offsets. Unparameterized compression cannot merge variants; DISE's
   parameterized dictionary entries can, when few enough fields
   differ — exactly the effect Figure 7 isolates. *)

let rename_insns rng insns =
  let is_scratch = function Reg.R n -> n >= 1 && n <= 12 | _ -> false in
  let used = ref [] in
  List.iter
    (fun i ->
      List.iter
        (fun r -> if is_scratch r && not (List.mem r !used) then used := r :: !used)
        (I.defs i @ I.uses i))
    insns;
  let map =
    List.filter_map
      (fun r ->
        if Rng.float rng < 0.85 then Some (r, Reg.r (1 + Rng.int rng 12))
        else None)
      !used
  in
  let f r = match List.assoc_opt r map with Some r' -> r' | None -> r in
  List.map (I.map ~reg:f ~imm:Fun.id ~target:Fun.id ~cw:Fun.id) insns

let jitter_insns rng insns =
  let delta = Rng.pick rng [| 0; 4 |] in
  if delta = 0 then insns
  else
    List.map
      (fun i ->
        match i with
        | I.Mem (op, base, off, data) when off + delta <= 12 ->
          I.Mem (op, base, off + delta, data)
        | _ -> i)
      insns

let variant_of rng blk =
  match blk with
  | Straight l -> Straight (jitter_insns rng (rename_insns rng l))
  | Skip (head, bop, tst, body) ->
    (* Rename head and body consistently, tracking where the test
       register went. *)
    let marker = I.Jr tst in
    let all = rename_insns rng ((marker :: head) @ body) in
    (match all with
    | I.Jr tst' :: rest ->
      let n = List.length head in
      let head' = List.filteri (fun i _ -> i < n) rest in
      let body' = List.filteri (fun i _ -> i >= n) rest in
      Skip (head', bop, tst', body')
    | _ -> blk)
  | Call_leaf k -> Call_leaf k

let n_variants = 12

(* Fraction of emitted blocks that are one-off (never repeated):
   real binaries are not built entirely from repeated idioms. *)
let unique_frac = 0.35

let make_pool rng (p : Profile.t) ~n_leaves =
  let n = max 4 p.Profile.idiom_pool in
  (* Guarantee some data-dependent branches so the profile's
     [random_branch] knob always has teeth. *)
  let n_skip =
    max 1 (int_of_float (float_of_int n *. p.Profile.random_branch *. 0.5))
  in
  let mk i =
    let base = if i < n_skip then skip_block rng else gen_block rng p ~n_leaves in
    Array.init n_variants (fun v ->
        if v = 0 then base else variant_of rng base)
  in
  Array.init n mk

let pick_block rng (p : Profile.t) ~n_leaves pool =
  if Rng.float rng < unique_frac then gen_block rng p ~n_leaves
  else Rng.pick rng (Rng.pick rng pool)

(* Static instruction count of one emitted block. *)
let block_static = function
  | Straight l -> List.length l
  | Skip (h, _, _, b) -> List.length h + 1 + List.length b
  | Call_leaf _ -> 1

(* Expected dynamic instructions per execution of the block. *)
let block_dynamic ~leaf_len = function
  | Straight l -> float_of_int (List.length l)
  | Skip (h, _, _, b) ->
    float_of_int (List.length h + 1) +. (0.5 *. float_of_int (List.length b))
  | Call_leaf k -> float_of_int (1 + leaf_len.(k))

let emit_block b rng blk =
  match blk with
  | Straight l -> List.iter (B.ins b) l
  | Skip (head, bop, tst, body) ->
    let skip = B.fresh_label b "skip" in
    List.iter (B.ins b) head;
    B.ins b (I.Br (bop, tst, I.Lab skip));
    List.iter (B.ins b) body;
    B.label b skip;
    ignore rng
  | Call_leaf k -> B.ins b (I.Jal (I.Lab (Printf.sprintf "leaf_%d" k)))

(* --- leaf functions -------------------------------------------------- *)

let emit_leaf b rng k =
  B.label b (Printf.sprintf "leaf_%d" k);
  let n = Rng.range rng 5 12 in
  let body =
    List.init n (fun i ->
        if i = 2 && Rng.float rng < 0.5 then
          (* one legal load in about half the leaves *)
          I.Mem (Op.Ldq, r_base, 4 * Rng.int rng 16, scratch rng)
        else alu_insn rng)
  in
  List.iter (B.ins b) body;
  B.ins b (I.Jr Reg.ra);
  n + 1

(* --- functions -------------------------------------------------------- *)

(* Emit one function. The body is mostly straight-line code with
   occasional small inner loops; each invocation executes each static
   instruction only a couple of times. Re-execution — and therefore
   instruction-cache reuse — comes from main's outer loop calling the
   whole hot set again and again, so a profile's hot working set really
   is what cycles through the I-cache, the property Figures 6 and 7
   depend on. Returns (static size, expected dynamic instructions per
   invocation). *)
let emit_function b rng ~name ~profile ~n_leaves ~pool ~leaf_len ~target_static =
  B.label b name;
  B.ins b (I.Lda (Reg.sp, -8, Reg.sp));
  B.ins b (I.Mem (Op.Stq, Reg.sp, 0, Reg.ra));
  let static = ref 2 in
  let body_dyn = ref 0. in
  while !static < target_static - 5 do
    if Rng.float rng < 0.4 then begin
      (* Small inner loop over a couple of blocks. *)
      let inner_trip = Rng.range rng 2 4 in
      let n_blocks = Rng.range rng 1 2 in
      let blocks =
        List.init n_blocks (fun _ -> pick_block rng profile ~n_leaves pool)
      in
      B.ins b (I.Ropi (Op.Add, Reg.zero, inner_trip, r_inner));
      let l = B.fresh_label b "inner" in
      B.label b l;
      List.iter (emit_block b rng) blocks;
      B.ins b (I.Ropi (Op.Add, r_inner, -1, r_inner));
      B.ins b (I.Br (Op.Bgt, r_inner, I.Lab l));
      let blk_static =
        List.fold_left (fun acc blk -> acc + block_static blk) 0 blocks
      in
      let blk_dyn =
        List.fold_left
          (fun acc blk -> acc +. block_dynamic ~leaf_len blk)
          0. blocks
      in
      static := !static + blk_static + 3;
      body_dyn :=
        !body_dyn +. 1. +. (float_of_int inner_trip *. (blk_dyn +. 2.))
    end
    else begin
      let blk = pick_block rng profile ~n_leaves pool in
      emit_block b rng blk;
      static := !static + block_static blk;
      body_dyn := !body_dyn +. block_dynamic ~leaf_len blk
    end
  done;
  B.ins b (I.Mem (Op.Ldq, Reg.sp, 0, Reg.ra));
  B.ins b (I.Lda (Reg.sp, 8, Reg.sp));
  B.ins b (I.Jr Reg.ra);
  let static = !static + 3 in
  let dyn = 5. +. !body_dyn in
  (static, dyn)

let emit_main b ~hot_names ~mask ~outer_iters ~init_words =
  B.label b "main";
  li b r_base data_base;
  li b r_mask mask;
  li b r_mulc lcg_mult;
  li b r_lcg 987654321;
  (* Seed the first [init_words] words of the data segment. *)
  B.ins b (I.Ropi (Op.Add, Reg.zero, init_words, Reg.r 1));
  B.ins b (I.Lda (r_base, 0, Reg.r 3));
  B.label b "init_loop";
  List.iter (B.ins b) lcg_step;
  B.ins b (I.Mem (Op.Stq, Reg.r 3, 0, r_lcg));
  B.ins b (I.Lda (Reg.r 3, 4, Reg.r 3));
  B.ins b (I.Ropi (Op.Add, Reg.r 1, -1, Reg.r 1));
  B.ins b (I.Br (Op.Bgt, Reg.r 1, I.Lab "init_loop"));
  li b r_outer outer_iters;
  B.label b "outer_loop";
  List.iter (fun f -> B.ins b (I.Jal (I.Lab f))) hot_names;
  B.ins b (I.Ropi (Op.Add, r_outer, -1, r_outer));
  B.ins b (I.Br (Op.Bgt, r_outer, I.Lab "outer_loop"));
  B.ins b (I.Ropi (Op.Add, Reg.zero, 0, Reg.r 2));
  B.ins b I.Halt;
  B.label b error_label;
  B.ins b (I.Ropi (Op.Add, Reg.zero, error_exit_code, Reg.r 2));
  B.ins b I.Halt

let round_pow2 v =
  let rec go p = if p >= v then p else go (p * 2) in
  go 1024

let generate ?(dyn_target = 300_000) (p : Profile.t) =
  let rng = Rng.create p.Profile.seed in
  let n_leaves = Rng.range rng 4 8 in
  let pool = make_pool rng p ~n_leaves in
  let hot_static_target = p.Profile.hot_kb * 256 in
  let n_hot = max 1 (min 64 (p.Profile.hot_kb / 2)) in
  let per_func = max 24 (hot_static_target / n_hot) in
  let b = B.create ~prefix:"m" () in
  (* Leaves first (their sizes feed the dynamic estimates). *)
  let leaf_len = Array.make n_leaves 0 in
  (* Emit leaves into a separate builder so main comes first in the
     final image; sizes are needed before emitting hot functions. *)
  let leaf_b = B.create ~prefix:"l" () in
  for k = 0 to n_leaves - 1 do
    leaf_len.(k) <- emit_leaf leaf_b rng k
  done;
  (* Hot functions. *)
  let hot_b = B.create ~prefix:"h" () in
  let hot_names = List.init n_hot (fun i -> Printf.sprintf "hot_%d" i) in
  let hot_static = ref 0 in
  let per_outer = ref 0. in
  List.iter
    (fun name ->
      let st, dyn =
        emit_function hot_b rng ~name ~profile:p ~n_leaves ~pool ~leaf_len
          ~target_static:per_func
      in
      hot_static := !hot_static + st;
      per_outer := !per_outer +. dyn +. 1.)
    hot_names;
  (* Cold functions (never called). *)
  let cold_b = B.create ~prefix:"c" () in
  let cold_target = p.Profile.cold_kb * 256 in
  let cold_static = ref 0 in
  let cold_idx = ref 0 in
  while !cold_static < cold_target do
    let st, _ =
      emit_function cold_b rng
        ~name:(Printf.sprintf "cold_%d" !cold_idx)
        ~profile:p ~n_leaves ~pool ~leaf_len
        ~target_static:(min 512 (cold_target - !cold_static + 24))
    in
    cold_static := !cold_static + st;
    incr cold_idx
  done;
  (* Main. *)
  let data_bytes = round_pow2 (p.Profile.data_kb * 1024) in
  let mask = (data_bytes - 1) land lnot 3 in
  let init_words = min 1024 (data_bytes / 4) in
  let init_cost = 14 + (init_words * 6) in
  let per_outer_cost = !per_outer +. 3. in
  let outer_iters =
    max 1
      (int_of_float
         (float_of_int (max 0 (dyn_target - init_cost)) /. per_outer_cost))
  in
  emit_main b ~hot_names ~mask ~outer_iters ~init_words;
  let program =
    Program.concat
      [
        B.to_program b;
        B.to_program hot_b;
        B.to_program leaf_b;
        B.to_program cold_b;
      ]
  in
  let total = Program.size program in
  {
    program;
    hot_insns = !hot_static;
    total_insns = total;
    est_dynamic =
      init_cost + int_of_float (float_of_int outer_iters *. per_outer_cost);
  }

let layout t = Program.layout ~base:code_base t.program
