module I = Dise_isa.Insn
module Op = Dise_isa.Opcode
module Reg = Dise_isa.Reg
module Program = Dise_isa.Program
module R = Dise_core.Replacement
module Pattern = Dise_core.Pattern
module Production = Dise_core.Production
module Prodset = Dise_core.Prodset

type scheme = {
  name : string;
  codeword_bytes : int;
  min_len : int;
  max_len : int;
  max_params : int;
  dict_entry_bytes : int;
  compress_branches : bool;
  max_entries : int;
}

let dedicated =
  {
    name = "dedicated";
    codeword_bytes = 2;
    min_len = 1;
    max_len = 8;
    max_params = 0;
    dict_entry_bytes = 4;
    compress_branches = false;
    max_entries = 2048;
  }

let minus_1insn = { dedicated with name = "-1insn"; min_len = 2 }
let minus_2byte_cw = { minus_1insn with name = "-2byteCW"; codeword_bytes = 4 }
let plus_8byte_de = { minus_2byte_cw with name = "+8byteDE"; dict_entry_bytes = 8 }
let plus_3param = { plus_8byte_de with name = "+3param"; max_params = 3 }
let full_dise = { plus_3param with name = "DISE"; compress_branches = true }

let fig7_schemes =
  [ dedicated; minus_1insn; minus_2byte_cw; plus_8byte_de; plus_3param;
    full_dise ]

(* --- instruction fields ---------------------------------------------- *)

type fval =
  | Vreg of int
  | Vimm of int
  | Vtarget of I.target

(* Canonical field vectors per instruction constructor. Only
   architectural-register, candidate-legal instructions reach these. *)
let reg_num r =
  match r with Reg.R n -> n | Reg.D _ -> invalid_arg "Compress: dedicated reg"

let fields_of (i : I.t) : fval array =
  match i with
  | I.Rop (_, a, b, c) -> [| Vreg (reg_num a); Vreg (reg_num b); Vreg (reg_num c) |]
  | I.Ropi (_, a, v, c) -> [| Vreg (reg_num a); Vimm v; Vreg (reg_num c) |]
  | I.Lda (a, v, c) -> [| Vreg (reg_num a); Vimm v; Vreg (reg_num c) |]
  | I.Lui (v, c) -> [| Vimm v; Vreg (reg_num c) |]
  | I.Mem (_, a, v, c) -> [| Vreg (reg_num a); Vimm v; Vreg (reg_num c) |]
  | I.Br (_, r, t) -> [| Vreg (reg_num r); Vtarget t |]
  | I.Jmp t | I.Jal t -> [| Vtarget t |]
  | I.Jr r -> [| Vreg (reg_num r) |]
  | I.Jalr (a, b) -> [| Vreg (reg_num a); Vreg (reg_num b) |]
  | I.Nop | I.Halt -> [||]
  | I.Dbr _ | I.Djmp _ | I.Codeword _ ->
    invalid_arg "Compress.fields_of: illegal candidate instruction"

let rebuild (i : I.t) (f : fval array) : I.t =
  let reg k = match f.(k) with Vreg n -> Reg.r n | _ -> assert false in
  let imm k = match f.(k) with Vimm v -> v | _ -> assert false in
  let tgt k = match f.(k) with Vtarget t -> t | _ -> assert false in
  match i with
  | I.Rop (op, _, _, _) -> I.Rop (op, reg 0, reg 1, reg 2)
  | I.Ropi (op, _, _, _) -> I.Ropi (op, reg 0, imm 1, reg 2)
  | I.Lda _ -> I.Lda (reg 0, imm 1, reg 2)
  | I.Lui _ -> I.Lui (imm 0, reg 1)
  | I.Mem (op, _, _, _) -> I.Mem (op, reg 0, imm 1, reg 2)
  | I.Br (op, _, _) -> I.Br (op, reg 0, tgt 1)
  | I.Jmp _ -> I.Jmp (tgt 0)
  | I.Jal _ -> I.Jal (tgt 0)
  | I.Jr _ -> I.Jr (reg 0)
  | I.Jalr _ -> I.Jalr (reg 0, reg 1)
  | I.Nop -> I.Nop
  | I.Halt -> I.Halt
  | I.Dbr _ | I.Djmp _ | I.Codeword _ -> assert false

(* A field is "rigid" when it can never be parameterized: direct
   jump/call targets (26 bits do not fit a parameter). *)
let rigid_field insn k =
  match insn with
  | I.Jmp _ | I.Jal _ -> k = 0
  | _ -> false

(* May this instruction appear in a candidate at all? *)
let legal scheme insn =
  match insn with
  | I.Codeword _ | I.Dbr _ | I.Djmp _ -> false
  | I.Br _ -> scheme.compress_branches
  | _ -> true

(* --- basic blocks ----------------------------------------------------- *)

type seg =
  | Lbl of string
  | Blk of I.t array

let split_blocks (prog : Program.t) : seg list =
  let segs = ref [] in
  let cur = ref [] in
  let flush () =
    if !cur <> [] then begin
      segs := Blk (Array.of_list (List.rev !cur)) :: !segs;
      cur := []
    end
  in
  List.iter
    (fun item ->
      match item with
      | Program.Label l ->
        flush ();
        segs := Lbl l :: !segs
      | Program.Ins i ->
        cur := i :: !cur;
        if I.is_control i then flush ())
    prog;
  flush ();
  List.rev !segs

(* --- candidate groups -------------------------------------------------- *)

type inst = {
  blk : int;
  start : int;
  fields : fval array array;
      (* per instruction of block [blk], shared by all its instances:
         the instance's field vector is [fields.(start .. start+len-1)] *)
  cls : int;  (* equal for two instances of one group iff their vectors are *)
}

let field inst ii fi = inst.fields.(inst.start + ii).(fi)

type group = {
  id : int;  (* creation order, 0-based *)
  len : int;
  repr : I.t array;
  mutable insts : inst list;  (* newest first *)
}

let normalize scheme insn =
  let f = fields_of insn in
  let f' =
    Array.mapi
      (fun k v ->
        if scheme.max_params = 0 || rigid_field insn k then v
        else
          match v with
          | Vreg _ -> Vreg 0
          | Vimm _ -> Vimm 0
          | Vtarget _ -> Vtarget (I.Abs 0))
      f
  in
  rebuild insn f'

(* --- max-heap for lazy greedy ----------------------------------------- *)

module Heap = struct
  type 'a t = {
    mutable arr : (float * 'a) option array;
    mutable n : int;
  }

  let create () = { arr = Array.make 1024 None; n = 0 }

  let swap h i j =
    let t = h.arr.(i) in
    h.arr.(i) <- h.arr.(j);
    h.arr.(j) <- t

  let pri h i = match h.arr.(i) with Some (p, _) -> p | None -> neg_infinity

  let push h p v =
    if h.n = Array.length h.arr then begin
      let bigger = Array.make (2 * h.n) None in
      Array.blit h.arr 0 bigger 0 h.n;
      h.arr <- bigger
    end;
    h.arr.(h.n) <- Some (p, v);
    let i = ref h.n in
    h.n <- h.n + 1;
    while !i > 0 && pri h ((!i - 1) / 2) < pri h !i do
      swap h ((!i - 1) / 2) !i;
      i := (!i - 1) / 2
    done

  let peek h = if h.n = 0 then None else h.arr.(0)

  let pop h =
    if h.n = 0 then None
    else begin
      let top = h.arr.(0) in
      h.n <- h.n - 1;
      h.arr.(0) <- h.arr.(h.n);
      h.arr.(h.n) <- None;
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let m = ref !i in
        if l < h.n && pri h l > pri h !m then m := l;
        if r < h.n && pri h r > pri h !m then m := r;
        if !m <> !i then begin
          swap h !i !m;
          i := !m
        end
        else continue := false
      done;
      top
    end
end

(* --- template construction --------------------------------------------- *)

type pkind = [ `Reg | `Imm5 | `Imm10 | `Off10 ]

type param = {
  pos : int * int;  (* insn index, field index *)
  kind : pkind;
  field : int;      (* first codeword parameter field, 1-based *)
}

type template = {
  base : fval array array;
  params : param list;  (* fields assigned, sorted *)
  covered : inst list;
  benefit : float;
}

let fval_equal a b =
  match a, b with
  | Vreg x, Vreg y | Vimm x, Vimm y -> x = y
  | Vtarget (I.Abs x), Vtarget (I.Abs y) -> x = y
  | Vtarget (I.Lab x), Vtarget (I.Lab y) -> String.equal x y
  | _ -> false

let fits5 v = v >= -16 && v <= 15
let fits10 v = v >= -512 && v <= 511

let param_cost = function `Reg | `Imm5 -> 1 | `Imm10 | `Off10 -> 2

(* The bucket count of a [Hashtbl.create initial] table ([initial] a
   power of two, at least 16) after [n] distinct keys were added: it
   doubles whenever it holds more than twice as many keys as buckets. *)
let buckets_after ~initial n =
  let rec up b = if n <= 2 * b then b else up (2 * b) in
  up initial

(* Build the best template for a group from its live instances. *)
let build_template scheme (g : group) (live : inst list) : template option =
  if live = [] then None
  else begin
    (* Distinct field vectors, each with its instances newest first.
       Which vector becomes the base, and the order the rest are tried
       in, decide the template, and instance counts tie often. The
       order is the one the fold of a [Hashtbl.create 64] from vector
       to instances, filled in [live] order, yields: buckets
       descending, first occurrence ascending within a bucket; then
       stably sorted by instance count, descending. Grouping by int
       class hashes each distinct vector once, not every instance. *)
    let arr = Array.of_list live in
    let n = Array.length arr in
    let order = Array.init n Fun.id in
    Array.stable_sort (fun a b -> Int.compare arr.(a).cls arr.(b).cls) order;
    let classes = ref [] in
    let i = ref 0 in
    while !i < n do
      let first = order.(!i) in
      let insts = ref [] and count = ref 0 in
      while !i < n && arr.(order.(!i)).cls = arr.(first).cls do
        insts := arr.(order.(!i)) :: !insts;
        incr count;
        incr i
      done;
      classes := (!count, first, !insts) :: !classes
    done;
    let mask = buckets_after ~initial:64 (List.length !classes) - 1 in
    let distinct =
      List.map
        (fun (count, first, insts) ->
          let vec = Array.sub arr.(first).fields arr.(first).start g.len in
          (count, Hashtbl.hash vec land mask, first, (vec, insts)))
        !classes
      |> List.sort (fun (c1, b1, f1, _) (c2, b2, f2, _) ->
             if c1 <> c2 then Int.compare c2 c1
             else if b1 <> b2 then Int.compare b2 b1
             else Int.compare f1 f2)
      |> List.map (fun (_, _, _, d) -> d)
    in
    match distinct with
    | [] -> None
    | (base_vec, base_insts) :: rest ->
      (* Greedily grow coverage under the parameter-slot budget. *)
      let params : ((int * int) * pkind) list ref = ref [] in
      let covered = ref base_insts in
      let try_add (vec, insts) =
        (* positions where this vector differs from the base *)
        let diffs = ref [] in
        Array.iteri
          (fun ii fields ->
            Array.iteri
              (fun fi v ->
                if not (fval_equal v base_vec.(ii).(fi)) then
                  diffs := ((ii, fi), v) :: !diffs)
              fields)
          vec;
        let ok = ref (scheme.max_params > 0) in
        (* Merge the new positions into the param set, computing kinds
           from the union of covered values. *)
        let new_params = ref !params in
        List.iter
          (fun ((ii, fi), _) ->
            if not (List.exists (fun ((a, b), _) -> a = ii && b = fi) !new_params)
            then begin
              if rigid_field g.repr.(ii) fi then ok := false
              else
                let kind =
                  match base_vec.(ii).(fi) with
                  | Vreg _ -> Some `Reg
                  | Vimm _ -> Some `Imm5 (* width refined below *)
                  | Vtarget _ ->
                    if scheme.compress_branches then Some `Off10 else None
                in
                match kind with
                | Some k -> new_params := ((ii, fi), k) :: !new_params
                | None -> ok := false
            end)
          !diffs;
        if !ok then begin
          (* Refine immediate widths to the widest over all covered
             vectors and this one. A position that is not a parameter
             yet holds the base's value in every covered vector, and a
             parameter's kind already records the widest covered one. *)
          let width = function
            | Vimm x -> if fits5 x then 1 else if fits10 x then 2 else 3
            | Vreg _ | Vtarget _ -> 1
          in
          new_params :=
            List.map
              (fun ((ii, fi), k) ->
                match k with
                | `Reg | `Off10 -> ((ii, fi), k)
                | `Imm5 | `Imm10 ->
                  let widest =
                    max
                      (if k = `Imm10 then 2 else 1)
                      (max (width base_vec.(ii).(fi)) (width vec.(ii).(fi)))
                  in
                  ( (ii, fi),
                    if widest = 1 then `Imm5
                    else if widest = 2 then `Imm10
                    else `Off10 (* placeholder; rejected below *) ))
              !new_params;
          let too_wide =
            List.exists
              (fun ((ii, fi), k) ->
                match k, base_vec.(ii).(fi) with
                | `Off10, Vimm _ -> true (* immediate too wide for 10 bits *)
                | _ -> false)
              !new_params
          in
          let cost =
            List.fold_left (fun acc (_, k) -> acc + param_cost k) 0 !new_params
          in
          if (not too_wide) && cost <= scheme.max_params then begin
            params := !new_params;
            covered := insts @ !covered
          end
        end
      in
      List.iter try_add rest;
      (* Branch targets must be parameterized whenever covered vectors
         disagree; when they agree the branch target stays literal
         (replacement targets are absolute, hence position-independent).
         That is already what the diff logic produced. *)
      let n_covered = List.length !covered in
      let saved_per = (4 * g.len) - scheme.codeword_bytes in
      let benefit =
        float_of_int (n_covered * saved_per)
        -. float_of_int (scheme.dict_entry_bytes * g.len)
      in
      (* Assign codeword parameter fields in position order. *)
      let sorted =
        List.sort (fun (p1, _) (p2, _) -> compare p1 p2) !params
      in
      let next = ref 1 in
      let with_fields =
        List.map
          (fun (pos, kind) ->
            let field = !next in
            next := !next + param_cost kind;
            { pos; kind; field })
          sorted
      in
      Some
        { base = base_vec; params = with_fields; covered = !covered; benefit }
  end

(* --- selection --------------------------------------------------------- *)

type chosen = {
  tag : int;
  repr : I.t array;
  tpl : template;
  mutable active : inst list;
}

let inst_free consumed inst len =
  let c = consumed.(inst.blk) in
  let rec go k = k >= len || ((not c.(inst.start + k)) && go (k + 1)) in
  go 0

let mark_consumed consumed inst len =
  let c = consumed.(inst.blk) in
  for k = 0 to len - 1 do
    c.(inst.start + k) <- true
  done

(* --- template -> replacement spec -------------------------------------- *)

let spec_of_template (repr : I.t array) (tpl : template) : R.t =
  let param_at pos = List.find_opt (fun p -> p.pos = pos) tpl.params in
  Array.of_list
    (List.mapi
       (fun ii insn ->
         let vec = tpl.base.(ii) in
         let reg fi =
           match param_at (ii, fi) with
           | Some { kind = `Reg; field; _ } -> R.Rparam field
           | Some _ -> assert false
           | None -> (
             match vec.(fi) with
             | Vreg n -> R.Rlit (Reg.r n)
             | Vimm _ | Vtarget _ -> assert false)
         in
         let imm fi =
           match param_at (ii, fi) with
           | Some { kind = `Imm5; field; _ } -> R.Iparam field
           | Some { kind = `Imm10; field; _ } -> R.Iparam2 field
           | Some _ -> assert false
           | None -> (
             match vec.(fi) with
             | Vimm v -> R.Ilit v
             | Vreg _ | Vtarget _ -> assert false)
         in
         let tgt fi =
           match param_at (ii, fi) with
           | Some { kind = `Off10; field; _ } -> R.Trel_param2 field
           | Some _ -> assert false
           | None -> (
             match vec.(fi) with
             | Vtarget (I.Abs a) -> R.Tabs a
             | Vtarget (I.Lab l) -> R.Tlab l
             | Vreg _ | Vimm _ -> assert false)
         in
         match insn with
         | I.Rop (op, _, _, _) -> R.Rop (op, reg 0, reg 1, reg 2)
         | I.Ropi (op, _, _, _) -> R.Ropi (op, reg 0, imm 1, reg 2)
         | I.Lda _ -> R.Lda (reg 0, imm 1, reg 2)
         | I.Lui _ -> R.Lui (imm 0, reg 1)
         | I.Mem (op, _, _, _) -> R.Mem (op, reg 0, imm 1, reg 2)
         | I.Br (op, _, _) -> R.Br (op, reg 0, tgt 1)
         | I.Jmp _ -> R.Jmp (tgt 0)
         | I.Jal _ -> R.Jal (tgt 0)
         | I.Jr _ -> R.Jr (reg 0)
         | I.Jalr _ -> R.Jalr (reg 0, reg 1)
         | I.Nop -> R.Nop
         | I.Halt -> R.Halt
         | I.Dbr _ | I.Djmp _ | I.Codeword _ -> assert false)
       (Array.to_list repr))

(* Parameter field values for one instance (target params resolved
   later); returns the three codeword fields. *)
let codeword_fields tpl inst ~offset_of =
  let fields = Array.make 4 0 in  (* 1-based *)
  List.iter
    (fun p ->
      let ii, fi = p.pos in
      match p.kind, field inst ii fi with
      | `Reg, Vreg n -> fields.(p.field) <- n
      | `Imm5, Vimm v -> fields.(p.field) <- R.to_field5 v
      | `Imm10, Vimm v ->
        let hi, lo = R.to_fields10 v in
        fields.(p.field) <- hi;
        fields.(p.field + 1) <- lo
      | `Off10, Vtarget t ->
        let off = offset_of ~inst ~pos:p.pos t in
        let hi, lo = R.to_fields10 off in
        fields.(p.field) <- hi;
        fields.(p.field + 1) <- lo
      | _ -> assert false)
    tpl.params;
  (fields.(1), fields.(2), fields.(3))

type entry = {
  tag : int;
  spec : R.t;
  len : int;
  param_fields : int;
  uses : int;
}

type result = {
  scheme : scheme;
  program : Program.t;
  image : Program.Image.t;
  prodset : Prodset.t;
  entries : entry list;
  orig_text_bytes : int;
  text_bytes : int;
  dict_bytes : int;
  codewords : int;
}

let code_base = 0x00100000

(* A trie over small-int symbols, kept in flat int arrays: an
   open-addressing (linear probing) table of edges keyed by
   (node, symbol). The root is node 0; [create ~nodes] sizes the table
   for that many more nodes at a load factor of at most 1/2. *)
module Trie = struct
  type t = {
    keys : int array;  (* [node * syms + symbol], or -1 when free *)
    kids : int array;
    mask : int;
    syms : int;
    mutable nodes : int;
  }

  let create ~nodes ~syms =
    let rec up c = if c >= 2 * (nodes + 1) then c else up (2 * c) in
    let cap = up 16 in
    {
      keys = Array.make cap (-1);
      kids = Array.make cap 0;
      mask = cap - 1;
      syms;
      nodes = 1;
    }

  (* The child of [node] along [sym], added when new. *)
  let child t node sym =
    let key = (node * t.syms) + sym in
    let rec probe i =
      let k = t.keys.(i) in
      if k = key then t.kids.(i)
      else if k < 0 then begin
        let c = t.nodes in
        t.nodes <- c + 1;
        t.keys.(i) <- key;
        t.kids.(i) <- c;
        c
      end
      else probe ((i + 1) land t.mask)
    in
    let h = key * 0x9E3779B97F4A7C1 in
    probe ((h lxor (h lsr 29)) land t.mask)
end

(* The most a group of [n] free instances of [len] instructions can
   save: every instance covered by one entry. A group whose best case
   is not positive can never be queued. *)
let best_case scheme ~len n =
  (n * ((4 * len) - scheme.codeword_bytes)) - (scheme.dict_entry_bytes * len)

(* Candidate enumeration, shared by the greedy compressor and the
   seeded (search-driven) one: split into basic blocks and bucket
   every legal window into a group keyed by its normalized text.

   Each legal instruction is interned to an int, and the windows that
   start at one position are walked as one path of a {!Trie} over those
   ids, so growing a window by an instruction costs one int-keyed
   probe. A trie node is one distinct normalized text, hence one
   group. A first walk counts each group's windows; a second builds
   the groups, all of them when [all] (a seeded search may name any
   window), else only those whose best case is positive: the greedy
   selection never looks at the others. Each window also gets a class:
   two windows of one group share it iff their field vectors are
   equal. With parameters, a second trie over the unnormalized
   instructions names the classes.

   [groups] gets a group once, when its first window is met, and is
   created with the bucket count that a [Hashtbl.create 4096] holding
   every group would have grown to. It therefore iterates its groups
   in the order such a table, filled window by window, iterates them,
   which is the order the greedy heap is seeded in: ties in benefit
   are broken by it. *)
let enumerate ~all scheme prog =
  let segs = split_blocks prog in
  let blocks =
    List.filter_map (function Blk a -> Some a | Lbl _ -> None) segs
    |> Array.of_list
  in
  let norms =
    Array.map
      (Array.map (fun i -> if legal scheme i then normalize scheme i else I.Nop))
      blocks
  in
  (* [fst (intern rows)].(b).(k): an int standing for [rows.(b).(k)],
     equal for equal instructions, or -1 where block [b]'s instruction
     [k] may not appear in a candidate; [snd]: how many ints. *)
  let intern rows =
    let ids : (I.t, int) Hashtbl.t = Hashtbl.create 1024 in
    let row bi =
      Array.mapi (fun k i ->
          if not (legal scheme blocks.(bi).(k)) then -1
          else
            match Hashtbl.find_opt ids i with
            | Some id -> id
            | None ->
              let id = Hashtbl.length ids in
              Hashtbl.add ids i id;
              id)
    in
    let rows = Array.mapi row rows in
    (rows, Hashtbl.length ids)
  in
  let ids, n_ids = intern norms in
  let n_windows = ref 0 in
  Array.iter
    (fun row ->
      let run = ref 0 in
      for k = Array.length row - 1 downto 0 do
        run := if row.(k) < 0 then 0 else !run + 1;
        n_windows := !n_windows + min scheme.max_len !run
      done)
    ids;
  let n_windows = !n_windows in
  (* [walk trie ids f] calls [f blk start len node] on every legal
     window, in program order, then by length. *)
  let walk trie ids f =
    Array.iteri
      (fun bi row ->
        let n = Array.length row in
        for start = 0 to n - 1 do
          let maxl = min scheme.max_len (n - start) in
          let node = ref 0 and len = ref 1 in
          (* positions are vetted incrementally as the window grows *)
          while !len <= maxl && row.(start + !len - 1) >= 0 do
            node := Trie.child trie !node row.(start + !len - 1);
            f bi start !len !node;
            incr len
          done
        done)
      ids
  in
  let trie = Trie.create ~nodes:n_windows ~syms:n_ids in
  (* [cls.(w)]: the class of the [w]-th window walked. Without
     parameters a group's windows are identical, text and fields
     alike, so the normalized trie already names the class. *)
  let count = Array.make (n_windows + 1) 0 in
  let cls = Array.make n_windows 0 in
  let w = ref 0 in
  walk trie ids (fun _ _ len node ->
      if len >= scheme.min_len then count.(node) <- count.(node) + 1;
      cls.(!w) <- node;
      incr w);
  if scheme.max_params > 0 then begin
    let raw_ids, n_raw = intern blocks in
    let w = ref 0 in
    let raw_trie = Trie.create ~nodes:n_windows ~syms:n_raw in
    walk raw_trie raw_ids (fun _ _ _ node ->
        cls.(!w) <- node;
        incr w)
  end;
  let n_groups =
    Array.fold_left (fun n c -> if c > 0 then n + 1 else n) 0 count
  in
  let fvecs =
    Array.map
      (Array.map (fun i -> if legal scheme i then fields_of i else [||]))
      blocks
  in
  let no_group = { id = -1; len = 0; repr = [||]; insts = [] } in
  let node_group = Array.make (n_windows + 1) no_group in
  let groups : (I.t list * int, group) Hashtbl.t =
    Hashtbl.create (buckets_after ~initial:4096 n_groups)
  in
  let w = ref 0 in
  walk trie ids (fun bi start len node ->
      let c = cls.(!w) in
      incr w;
      let kept = all || best_case scheme ~len count.(node) > 0 in
      if len >= scheme.min_len && kept then begin
        let inst = { blk = bi; start; fields = fvecs.(bi); cls = c } in
        let g = node_group.(node) in
        if g != no_group then g.insts <- inst :: g.insts
        else begin
          let g =
            {
              id = Hashtbl.length groups;
              len;
              repr = Array.sub blocks.(bi) start len;
              insts = [ inst ];
            }
          in
          node_group.(node) <- g;
          (* keyed by normalized text: flexible fields zeroed *)
          let key = Array.to_list (Array.sub norms.(bi) start len) in
          Hashtbl.add groups (key, len) g
        end
      end);
  (segs, blocks, groups)

let rec compress ~scheme prog =
  let segs, blocks, groups = enumerate ~all:false scheme prog in
  (* Lazy greedy selection. *)
  let consumed = Array.map (fun arr -> Array.make (Array.length arr) false) blocks in
  let heap = Heap.create () in
  (* A group's template is rebuilt only when its live-instance count
     moves: live sets only shrink, so an unchanged count is an
     unchanged set, and the template built from it is the same. *)
  let n_groups = Hashtbl.length groups in
  let built_live = Array.make n_groups (-1) in
  let built = Array.make n_groups None in
  let current_template (g : group) =
    let free i = inst_free consumed i g.len in
    let n = List.fold_left (fun n i -> if free i then n + 1 else n) 0 g.insts in
    if n <> built_live.(g.id) then begin
      built_live.(g.id) <- n;
      built.(g.id) <-
        (if best_case scheme ~len:g.len n <= 0 then None
         else build_template scheme g (List.filter free g.insts))
    end;
    built.(g.id)
  in
  Hashtbl.iter
    (fun _ g ->
      match current_template g with
      | Some t when t.benefit > 0. -> Heap.push heap t.benefit g
      | Some _ | None -> ())
    groups;
  let chosen = ref [] in
  let n_chosen = ref 0 in
  let rec select () =
    if !n_chosen >= scheme.max_entries then ()
    else
      match Heap.pop heap with
      | None -> ()
      | Some (stale, g) -> (
        match current_template g with
        | None -> select ()
        | Some t ->
          if t.benefit <= 0. then select ()
          else
            let next_best =
              match Heap.peek heap with Some (p, _) -> p | None -> neg_infinity
            in
            if t.benefit +. 1e-9 < next_best then begin
              (* Stale priority: reinsert with the fresh value. *)
              ignore stale;
              Heap.push heap t.benefit g;
              select ()
            end
            else begin
              let active =
                List.filter (fun i -> inst_free consumed i g.len) t.covered
              in
              if active <> [] then begin
                List.iter (fun i -> mark_consumed consumed i g.len) active;
                chosen :=
                  { tag = !n_chosen; repr = g.repr; tpl = t; active }
                  :: !chosen;
                incr n_chosen;
                (* The group may still have uncovered distinct
                   instances; requeue it. *)
                (match current_template g with
                | Some t' when t'.benefit > 0. -> Heap.push heap t'.benefit g
                | Some _ | None -> ())
              end;
              select ()
            end)
  in
  select ();
  finalize ~scheme ~prog ~segs (Array.of_list (List.rev !chosen))

and finalize ~scheme ~prog ~segs (chosen : chosen array) =
  (* [starts.(blk).(start)]: the chosen entry and instance that a
     codeword planted there stands for. *)
  let per_block x =
    Array.of_list
      (List.filter_map
         (function Blk a -> Some (Array.make (Array.length a) x) | Lbl _ -> None)
         segs)
  in
  let starts = per_block None in
  Array.iter
    (fun c ->
      List.iter (fun i -> starts.(i.blk).(i.start) <- Some (c, i)) c.active)
    chosen;
  let entry_len c = Array.length c.repr in
  (* Rebuild the program from blocks + decisions. [offset_of] supplies
     branch-offset parameter values (0 in probe passes). *)
  let rebuild ~offset_of =
    let bi = ref (-1) in
    let items =
      List.concat_map
        (fun seg ->
          match seg with
          | Lbl l -> [ Program.Label l ]
          | Blk arr ->
            incr bi;
            let blk = !bi in
            let out = ref [] in
            let pos = ref 0 in
            let n = Array.length arr in
            while !pos < n do
              (match starts.(blk).(!pos) with
              | Some (c, inst) ->
                let p1, p2, p3 = codeword_fields c.tpl inst ~offset_of in
                out :=
                  Program.Ins (I.codeword ~op:0 ~p1 ~p2 ~p3 ~tag:c.tag)
                  :: !out;
                pos := !pos + entry_len c
              | None ->
                out := Program.Ins arr.(!pos) :: !out;
                incr pos)
            done;
            List.rev !out)
        segs
    in
    items
  in
  let size_of = function
    | I.Codeword _ -> scheme.codeword_bytes
    | _ -> 4
  in
  (* Fixpoint: place, check branch-offset parameters, un-compress
     violating instances. Codeword sizes are fixed, so the zero-offset
     addresses of the final round are the final layout's: it returns
     every codeword's address and the label lookup. *)
  let zero_offsets ~inst:_ ~pos:_ _ = 0 in
  let rec fixpoint () =
    let prog' = rebuild ~offset_of:zero_offsets in
    let insn_addrs, symbol =
      Program.addresses ~base:code_base ~size_of prog'
    in
    (* Instances map 1:1 to codewords in rebuild order, so walking the
       blocks against the decision table while counting emitted
       instructions gives each codeword's image index. *)
    let addrs = per_block (-1) in
    let violations = ref [] in
    let bi = ref (-1) in
    let idx = ref 0 in
    List.iter
      (fun seg ->
        match seg with
        | Lbl _ -> ()
        | Blk arr ->
          incr bi;
          let blk = !bi in
          let pos = ref 0 in
          let n = Array.length arr in
          while !pos < n do
            match starts.(blk).(!pos) with
            | Some (c, inst) ->
              let addr = insn_addrs.(!idx) in
              addrs.(blk).(!pos) <- addr;
              List.iter
                (fun p ->
                  match p.kind with
                  | `Off10 -> (
                    let ii, fi = p.pos in
                    match field inst ii fi with
                    | Vtarget t -> (
                      let target =
                        match t with
                        | I.Abs a -> Some a
                        | I.Lab l -> symbol l
                      in
                      match target with
                      | Some ta ->
                        let off = (ta - addr) / 4 in
                        if not (fits10 off && (ta - addr) mod 4 = 0) then
                          violations := (blk, inst.start) :: !violations
                      | None -> violations := (blk, inst.start) :: !violations)
                    | _ -> ())
                  | _ -> ())
                c.tpl.params;
              incr idx;
              pos := !pos + entry_len c
            | None ->
              incr idx;
              incr pos
          done)
      segs;
    if !violations = [] then (addrs, symbol)
    else begin
      (* Un-compress the violating instances and re-lay-out; each round
         removes at least one instance, so this terminates. *)
      List.iter (fun (blk, start) -> starts.(blk).(start) <- None) !violations;
      fixpoint ()
    end
  in
  (* Final pass with real offsets, against the fixpoint's addresses:
     the one layout. *)
  let addr_tbl, symbol = fixpoint () in
  let offset_of ~inst ~pos:_ t =
    let addr = addr_tbl.(inst.blk).(inst.start) in
    assert (addr >= 0);
    let target =
      match t with
      | I.Abs a -> a
      | I.Lab l -> (
        match symbol l with
        | Some a -> a
        | None -> invalid_arg ("Compress: unknown label " ^ l))
    in
    (target - addr) / 4
  in
  let final_prog = rebuild ~offset_of in
  let image = Program.layout ~base:code_base ~size_of final_prog in
  (* Surviving uses per entry. *)
  let uses = Array.make (Array.length chosen) 0 in
  Array.iter
    (Array.iter (function
      | Some ((c : chosen), _) -> uses.(c.tag) <- uses.(c.tag) + 1
      | None -> ()))
    starts;
  let entries =
    Array.to_list chosen
    |> List.filter_map (fun (c : chosen) ->
           if uses.(c.tag) = 0 then None
           else
             Some
               {
                 tag = c.tag;
                 spec = spec_of_template c.repr c.tpl;
                 len = Array.length c.repr;
                 param_fields =
                   List.fold_left
                     (fun acc p -> acc + param_cost p.kind)
                     0 c.tpl.params;
                 uses = uses.(c.tag);
               })
  in
  let prodset =
    let set =
      List.fold_left
        (fun s e -> Prodset.define_sequence s e.tag e.spec)
        Prodset.empty entries
    in
    let set =
      if entries = [] then set
      else
        Prodset.add_production set
          (Production.make ~name:"decompress" (Pattern.codewords 0)
             Production.From_tag)
    in
    Prodset.resolve_labels (Program.Image.symbol image) set
  in
  let codewords = Array.fold_left ( + ) 0 uses in
  {
    scheme;
    program = final_prog;
    image;
    prodset;
    entries;
    orig_text_bytes = 4 * Program.size prog;
    text_bytes = Program.Image.text_bytes image;
    dict_bytes =
      List.fold_left (fun acc e -> acc + (e.len * scheme.dict_entry_bytes)) 0
        entries;
    codewords;
  }

let compression_ratio r =
  float_of_int r.text_bytes /. float_of_int r.orig_text_bytes

let total_ratio r =
  float_of_int (r.text_bytes + r.dict_bytes)
  /. float_of_int r.orig_text_bytes

(* --- seeded (search-driven) compression --------------------------------- *)

(* A seed names one candidate window by position: instruction
   [s_start..s_start+s_len) of basic block [s_blk] (blocks numbered in
   program order, labels excluded). The seed stands for the whole
   {e group} of windows sharing its normalized text — exactly the unit
   the greedy compressor ranks — so a seed list is a complete, compact
   description of a dictionary that an external search (disesim
   synthesize) can mutate, serialize, and replay. *)
type seed = { s_blk : int; s_start : int; s_len : int }

type corpus = {
  c_scheme : scheme;
  c_prog : Program.t;
  c_segs : seg list;
  c_blocks : I.t array array;
  c_groups : (I.t list * int, group) Hashtbl.t;
  c_index : int array;  (* block -> global instruction index of its head *)
}

let corpus ~scheme prog =
  let segs, blocks, groups = enumerate ~all:true scheme prog in
  let c_index = Array.make (max 1 (Array.length blocks)) 0 in
  let acc = ref 0 in
  Array.iteri
    (fun i arr ->
      c_index.(i) <- !acc;
      acc := !acc + Array.length arr)
    blocks;
  {
    c_scheme = scheme;
    c_prog = prog;
    c_segs = segs;
    c_blocks = blocks;
    c_groups = groups;
    c_index;
  }

type window = {
  w_seed : seed;
  w_len : int;
  w_count : int;
  w_sites : (int * int * int) list;
}

let windows c =
  Hashtbl.fold
    (fun (_, len) g acc ->
      let sites =
        List.map
          (fun i -> (i.blk, i.start, c.c_index.(i.blk) + i.start))
          g.insts
        |> List.sort compare
      in
      match sites with
      | [] -> acc
      | (blk, start, _) :: _ ->
        {
          w_seed = { s_blk = blk; s_start = start; s_len = len };
          w_len = len;
          w_count = List.length sites;
          w_sites = sites;
        }
        :: acc)
    c.c_groups []
  |> List.sort (fun a b -> compare a.w_seed b.w_seed)

(* Resolve a seed back to its group: recompute the normalized key from
   the program text at the seed's position. A seed that no longer
   names a legal window (out of bounds, or a seed list recorded against
   a different program) resolves to nothing and is skipped. *)
let group_at c (s : seed) =
  if s.s_blk < 0 || s.s_blk >= Array.length c.c_blocks then None
  else
    let arr = c.c_blocks.(s.s_blk) in
    if
      s.s_len < max 1 c.c_scheme.min_len
      || s.s_len > c.c_scheme.max_len
      || s.s_start < 0
      || s.s_start + s.s_len > Array.length arr
      || not
           (Array.for_all (legal c.c_scheme)
              (Array.sub arr s.s_start s.s_len))
    then None
    else
      let key =
        ( Array.to_list
            (Array.init s.s_len (fun k ->
                 normalize c.c_scheme arr.(s.s_start + k))),
          s.s_len )
      in
      Hashtbl.find_opt c.c_groups key

let compress_seeded c ~seeds =
  let scheme = c.c_scheme in
  let consumed =
    Array.map (fun arr -> Array.make (Array.length arr) false) c.c_blocks
  in
  let chosen = ref [] in
  let n = ref 0 in
  (* Seeds are honored in list order: earlier seeds consume windows
     first, exactly like greedy rank order does — so the search's
     accept/reject moves compose deterministically. *)
  List.iter
    (fun s ->
      if !n < scheme.max_entries then
        match group_at c s with
        | None -> ()
        | Some g -> (
          let live = List.filter (fun i -> inst_free consumed i g.len) g.insts in
          match build_template scheme g live with
          | None -> ()
          | Some t ->
            let active =
              List.filter (fun i -> inst_free consumed i g.len) t.covered
            in
            if active <> [] then begin
              List.iter (fun i -> mark_consumed consumed i g.len) active;
              chosen := { tag = !n; repr = g.repr; tpl = t; active } :: !chosen;
              incr n
            end))
    seeds;
  finalize ~scheme ~prog:c.c_prog ~segs:c.c_segs
    (Array.of_list (List.rev !chosen))
