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

(* --- candidate enumeration ----------------------------------------------- *)

(* A trie over small-int symbols, kept in one flat int array: an
   open-addressing (linear probing) table of edges keyed by
   (node, symbol), each key beside its child. The root is node 0.
   [create ~nodes] sizes the table for about that many nodes; it
   doubles whenever it is half full. *)
module Trie = struct
  type t = {
    mutable slots : int array;
        (* [2 i]: edge [i]'s key, [node * syms + symbol], or -1 when
           free; [2 i + 1]: its child *)
    mutable mask : int;
    syms : int;
    mutable nodes : int;
  }

  let create ~nodes ~syms =
    let rec up c = if c >= 2 * nodes then c else up (2 * c) in
    let cap = up 16 in
    { slots = Array.make (2 * cap) (-1); mask = cap - 1; syms; nodes = 1 }

  (* The edge that holds [key], or the free one where it belongs. *)
  let rec probe slots mask key i =
    let k = slots.(2 * i) in
    if k = key || k < 0 then i else probe slots mask key ((i + 1) land mask)

  let slot t key =
    let h = key * 0x9E3779B97F4A7C1 in
    probe t.slots t.mask key ((h lxor (h lsr 29)) land t.mask)

  let grow t =
    let old = t.slots in
    t.slots <- Array.make (2 * Array.length old) (-1);
    t.mask <- (2 * t.mask) + 1;
    for i = 0 to (Array.length old / 2) - 1 do
      let key = old.(2 * i) in
      if key >= 0 then begin
        let j = slot t key in
        t.slots.(2 * j) <- key;
        t.slots.((2 * j) + 1) <- old.((2 * i) + 1)
      end
    done

  (* The child of [node] along [sym], added when new. *)
  let child t node sym =
    let key = (node * t.syms) + sym in
    let i = slot t key in
    if t.slots.(2 * i) = key then t.slots.((2 * i) + 1)
    else begin
      let c = t.nodes in
      t.nodes <- c + 1;
      t.slots.(2 * i) <- key;
      t.slots.((2 * i) + 1) <- c;
      if 4 * t.nodes > Array.length t.slots then grow t;
      c
    end
end

(* The most a group of [n] free instances of [len] instructions can
   save: every instance covered by one entry. A group whose best case
   is not positive can never be queued. *)
let best_case scheme ~len n =
  (n * ((4 * len) - scheme.codeword_bytes)) - (scheme.dict_entry_bytes * len)

(* [x]'s id in [tbl], the next free one when [x] is new. *)
let intern tbl x =
  match Hashtbl.find_opt tbl x with
  | Some id -> id
  | None ->
    let id = Hashtbl.length tbl in
    Hashtbl.add tbl x id;
    id

(* The keys of an [intern] table, by id. *)
let interned tbl =
  let keys = Array.make (Hashtbl.length tbl) I.Nop in
  Hashtbl.iter (fun x id -> keys.(id) <- x) tbl;
  keys

(* The candidates of one (scheme, program) pair. Instructions are
   numbered in program order, labels excluded: the [p]-th is position
   [p]. A window is a run of legal positions inside one basic block, at
   most [max_len] long; windows are numbered by start position, then by
   length. A group is every window with one normalized text, that is
   one node of a trie over normalized instructions; its instances are
   the windows at least [min_len] long, and its classes partition them
   by field vector. *)
type enum = {
  segs : seg list;
  blocks : I.t array array;
  block_base : int array;  (* block -> position of its first instruction *)
  insns : I.t array;  (* position -> instruction *)
  raw : int array;
      (* position -> id of the distinct instruction, or -1 where it may
         not appear in a candidate *)
  fields : fval array array;  (* id -> fields *)
  ints : int array;
      (* [3 * id + k] -> field [k] of [id] as an int, equal iff the
         fields are: the register, the immediate, or an interned target *)
  sym : int array;  (* position -> normalized id, or -1 *)
  norm : I.t array;  (* normalized id -> normalized instruction *)
  first_win : int array;  (* position -> its first window; [n] -> window count *)
  win_node : int array;  (* window -> trie node *)
  group_of : int array;  (* trie node -> group, or -1 *)
  n_texts : int;  (* trie nodes with an instance *)
  g_len : int array;
  g_off : int array;  (* group -> its first instance; [n_groups] -> count *)
  g_classes : int array;
  i_pos : int array;  (* instance -> start position, ascending per group *)
  i_cls : int array;
      (* instance -> class, numbered per group from 0 in first-occurrence
         order *)
}

(* Candidate enumeration, shared by the greedy compressor and the
   seeded (search-driven) one. Each distinct legal instruction is
   interned once, with its fields as ints, and the windows that start
   at one position are walked as one path of a {!Trie} over normalized
   ids, so growing a window by an instruction costs one int-keyed probe;
   with parameters, a second trie over the unnormalized ids names each
   window's class in the same walk. Groups are numbered in
   first-occurrence order: all of them when [all] (a seeded search may
   name any window), else those whose best case is positive, the only
   ones the greedy selection looks at. *)
let enumerate ~all scheme prog =
  let segs = split_blocks prog in
  let blocks =
    List.filter_map (function Blk a -> Some a | Lbl _ -> None) segs
    |> Array.of_list
  in
  let insns = Array.concat (Array.to_list blocks) in
  let n = Array.length insns in
  let block_base = Array.make (Array.length blocks) 0 in
  for b = 1 to Array.length blocks - 1 do
    block_base.(b) <- block_base.(b - 1) + Array.length blocks.(b - 1)
  done;
  let ids = Hashtbl.create 1024 in
  let raw =
    Array.map (fun i -> if legal scheme i then intern ids i else -1) insns
  in
  let distinct = interned ids in
  let fields = Array.map fields_of distinct in
  let ints = Array.make (3 * Array.length distinct) 0 in
  let targets = Hashtbl.create 64 in
  Array.iteri
    (fun id f ->
      Array.iteri
        (fun k v ->
          ints.((3 * id) + k) <-
            (match v with
            | Vreg x | Vimm x -> x
            | Vtarget t -> intern targets t))
        f)
    fields;
  let params = scheme.max_params > 0 in
  (* Without parameters normalizing changes nothing. *)
  let sym, norm =
    if not params then (raw, distinct)
    else begin
      let nids = Hashtbl.create 1024 in
      let of_raw = Array.map (fun i -> intern nids (normalize scheme i)) distinct in
      (Array.map (fun r -> if r < 0 then -1 else of_raw.(r)) raw, interned nids)
    end
  in
  let n_windows = ref 0 in
  Array.iteri
    (fun b blk ->
      let run = ref 0 in
      for p = block_base.(b) + Array.length blk - 1 downto block_base.(b) do
        run := if sym.(p) < 0 then 0 else !run + 1;
        n_windows := !n_windows + Int.min scheme.max_len !run
      done)
    blocks;
  let n_windows = !n_windows in
  let first_win = Array.make (n + 1) 0 in
  let win_node = Array.make n_windows 0 in
  let win_cls = if params then Array.make n_windows 0 else win_node in
  let count = Array.make (n_windows + 1) 0 in
  let trie = Trie.create ~nodes:(n_windows / 2) ~syms:(Array.length norm) in
  let raw_trie =
    Trie.create ~nodes:(if params then n_windows / 2 else 0)
      ~syms:(Array.length distinct)
  in
  let w = ref 0 in
  Array.iteri
    (fun b blk ->
      let stop = block_base.(b) + Array.length blk in
      for start = block_base.(b) to stop - 1 do
        first_win.(start) <- !w;
        let last = Int.min stop (start + scheme.max_len) in
        let node = ref 0 and cls = ref 0 and p = ref start in
        while !p < last && sym.(!p) >= 0 do
          node := Trie.child trie !node sym.(!p);
          win_node.(!w) <- !node;
          if params then begin
            cls := Trie.child raw_trie !cls raw.(!p);
            win_cls.(!w) <- !cls
          end;
          if !p - start + 1 >= scheme.min_len then
            count.(!node) <- count.(!node) + 1;
          incr w;
          incr p
        done
      done)
    blocks;
  first_win.(n) <- n_windows;
  (* [iter_instances f] calls [f p len w] on every window at least
     [min_len] long, in window order. *)
  let iter_instances f =
    for p = 0 to n - 1 do
      for w = first_win.(p) + scheme.min_len - 1 to first_win.(p + 1) - 1 do
        f p (w - first_win.(p) + 1) w
      done
    done
  in
  let group_of = Array.make (n_windows + 1) (-1) in
  let found = ref [] and n_groups = ref 0 in
  iter_instances (fun _ len w ->
      let node = win_node.(w) in
      if group_of.(node) < 0 && (all || best_case scheme ~len count.(node) > 0)
      then begin
        group_of.(node) <- !n_groups;
        found := (len, count.(node)) :: !found;
        incr n_groups
      end);
  let found = Array.of_list (List.rev !found) in
  let g_len = Array.map fst found in
  let g_off = Array.make (!n_groups + 1) 0 in
  Array.iteri (fun g (_, size) -> g_off.(g + 1) <- g_off.(g) + size) found;
  let next = Array.sub g_off 0 !n_groups in
  let i_pos = Array.make g_off.(!n_groups) 0 in
  let i_cls = Array.make g_off.(!n_groups) 0 in
  let g_classes = Array.make !n_groups (if params then 0 else 1) in
  let cls_id = if params then Array.make raw_trie.Trie.nodes (-1) else [||] in
  iter_instances (fun p _ w ->
      let g = group_of.(win_node.(w)) in
      if g >= 0 then begin
        let k = next.(g) in
        next.(g) <- k + 1;
        i_pos.(k) <- p;
        if params then begin
          let c = win_cls.(w) in
          if cls_id.(c) < 0 then begin
            cls_id.(c) <- g_classes.(g);
            g_classes.(g) <- g_classes.(g) + 1
          end;
          i_cls.(k) <- cls_id.(c)
        end
      end);
  {
    segs;
    blocks;
    block_base;
    insns;
    raw;
    fields;
    ints;
    sym;
    norm;
    first_win;
    win_node;
    group_of;
    n_texts = Array.fold_left (fun k c -> if c > 0 then k + 1 else k) 0 count;
    g_len;
    g_off;
    g_classes;
    i_pos;
    i_cls;
  }

(* The bucket count of a [Hashtbl.create initial] table ([initial] a
   power of two, at least 16) after [n] distinct keys were added: it
   doubles whenever it holds more than twice as many keys as buckets. *)
let buckets_after ~initial n =
  let rec up b = if n <= 2 * b then b else up (2 * b) in
  up initial

(* The order the greedy heap is seeded in, which breaks ties in
   benefit: that of iterating a [Hashtbl.create 4096] of the groups
   keyed by (normalized text, length), filled in group order. It is
   created with the bucket count it would have grown to holding every
   text with an instance, and iterates buckets in ascending order,
   newest group first within a bucket. *)
let seeding_order e =
  let mask = buckets_after ~initial:4096 e.n_texts - 1 in
  let bucket =
    Array.mapi
      (fun g len ->
        let p = e.i_pos.(e.g_off.(g)) in
        let key = List.init len (fun k -> e.norm.(e.sym.(p + k))) in
        Hashtbl.hash (key, len) land mask)
      e.g_len
  in
  let order = Array.init (Array.length e.g_len) Fun.id in
  Array.sort
    (fun a b ->
      if bucket.(a) <> bucket.(b) then Int.compare bucket.(a) bucket.(b)
      else Int.compare b a)
    order;
  order

(* --- template construction --------------------------------------------- *)

type pkind = [ `Reg | `Imm5 | `Imm10 | `Off10 ]

type param = {
  pos : int * int;  (* insn index, field index *)
  kind : pkind;
  field : int;      (* first codeword parameter field, 1-based *)
}

type template = {
  base : int;  (* start position of an instance of the base class *)
  params : param list;  (* by position *)
  classes : int list;  (* the classes covered *)
  benefit : float;
}

let fits5 v = v >= -16 && v <= 15
let fits10 v = v >= -512 && v <= 511

let param_cost = function `Reg | `Imm5 -> 1 | `Imm10 | `Off10 -> 2

(* The parameter set after covering a vector that differs from the base
   at [diff], as (insn index * 3 + field index, kind) pairs; [None] when
   it would take more than [budget] codeword fields. A position that is
   a parameter already keeps its kind, widened to [`Imm10] when either
   asks for it. *)
let add_params ~budget params diff =
  let merged =
    List.fold_left
      (fun ps (pos, k) ->
        match List.assoc_opt pos ps with
        | None -> (pos, k) :: ps
        | Some `Imm5 when k = `Imm10 -> (pos, k) :: List.remove_assoc pos ps
        | Some _ -> ps)
      params diff
  in
  let cost = List.fold_left (fun c (_, k) -> c + param_cost k) 0 merged in
  if cost <= budget then Some merged else None

(* Build the best template for group [g] from the instances [live]
   selects (by instance index), or [None] when it selects none.

   The group's live classes are ranked by instance count, descending;
   ties go to the order a [Hashtbl.create 64] from field vector to
   instances, filled newest instance first, would be folded in: bucket
   descending, then the class with the newer newest instance. The first
   class is the base. Each other class, in rank order, is covered when
   the parameters that its differences from the base need, merged with
   those taken so far, fit the codeword's fields; a class that cannot
   fit even alone is dropped before ranking, since it is never covered
   whatever its rank, and the bucket (a polymorphic hash of the field
   vector) is computed only for classes that tie on count. *)
let build_template scheme e g ~live =
  let len = e.g_len.(g) in
  let nc = e.g_classes.(g) in
  let count = Array.make nc 0 and newest = Array.make nc 0 in
  for k = e.g_off.(g) to e.g_off.(g + 1) - 1 do
    if live k then begin
      let c = e.i_cls.(k) in
      count.(c) <- count.(c) + 1;
      newest.(c) <- k
    end
  done;
  let saved_per = (4 * len) - scheme.codeword_bytes in
  let template base params classes n =
    let next = ref 1 in
    let params =
      List.sort (fun (a, _) (b, _) -> Int.compare a b) params
      |> List.map (fun (pos, kind) ->
             let field = !next in
             next := !next + param_cost kind;
             { pos = (pos / 3, pos mod 3); kind; field })
    in
    Some
      {
        base = e.i_pos.(newest.(base));
        params;
        classes;
        benefit =
          float_of_int (n * saved_per)
          -. float_of_int (scheme.dict_entry_bytes * len);
      }
  in
  let live_classes = List.filter (fun c -> count.(c) > 0) (List.init nc Fun.id) in
  match live_classes with
  | [] -> None
  | [ c ] -> template c [] [ c ] count.(c)
  | c0 :: _ ->
    let mask = buckets_after ~initial:64 (List.length live_classes) - 1 in
    let buckets = Array.make nc (-1) in
    let bucket c =
      if buckets.(c) < 0 then begin
        let p = e.i_pos.(newest.(c)) in
        let vec = Array.init len (fun ii -> e.fields.(e.raw.(p + ii))) in
        buckets.(c) <- Hashtbl.hash vec land mask
      end;
      buckets.(c)
    in
    let before c d =
      if count.(c) <> count.(d) then count.(c) > count.(d)
      else if bucket c <> bucket d then bucket c > bucket d
      else newest.(c) > newest.(d)
    in
    let base =
      List.fold_left (fun b c -> if before c b then c else b) c0 live_classes
    in
    let bp = e.i_pos.(newest.(base)) in
    (* The parameters class [c] needs on its own, or [None]. Targets
       differ only in branches (jump and call targets are rigid, so
       normalized alike), and those are candidates only when
       [compress_branches]. *)
    let diff c =
      let cp = e.i_pos.(newest.(c)) in
      let rec go ii fi diff cost =
        if cost > scheme.max_params then None
        else if ii = len then Some diff
        else
          let rb = e.raw.(bp + ii) and rc = e.raw.(cp + ii) in
          if rb = rc || fi = Array.length e.fields.(rb) then go (ii + 1) 0 diff cost
          else
            let b = e.ints.((3 * rb) + fi) and v = e.ints.((3 * rc) + fi) in
            if b = v then go ii (fi + 1) diff cost
            else
              let kind =
                match e.fields.(rb).(fi) with
                | Vreg _ -> Some `Reg
                | Vimm _ ->
                  if fits5 b && fits5 v then Some `Imm5
                  else if fits10 b && fits10 v then Some `Imm10
                  else None
                | Vtarget _ -> Some `Off10
              in
              match kind with
              | None -> None
              | Some k ->
                go ii (fi + 1) (((3 * ii) + fi, k) :: diff) (cost + param_cost k)
      in
      go 0 0 [] 0
    in
    let rest =
      List.filter_map
        (fun c -> if c = base then None else Option.map (fun d -> (c, d)) (diff c))
        live_classes
      |> List.sort (fun (c, _) (d, _) -> if before c d then -1 else 1)
    in
    let params, classes, n =
      List.fold_left
        (fun ((params, classes, n) as acc) (c, d) ->
          match add_params ~budget:scheme.max_params params d with
          | Some params -> (params, c :: classes, n + count.(c))
          | None -> acc)
        ([], [ base ], count.(base))
        rest
    in
    template base params classes n

(* --- selection --------------------------------------------------------- *)

type chosen = {
  tag : int;
  repr : I.t array;
  tpl : template;
  active : int list;  (* start positions of its codewords *)
}

(* [consumed]: one byte per position, non-zero once a codeword covers
   it. *)
let rec is_free consumed p len =
  len = 0 || (Bytes.get consumed p = '\000' && is_free consumed (p + 1) (len - 1))

(* The free instances of [g] in the classes [t] covers, as start
   positions. *)
let covered_sites e consumed g t =
  let len = e.g_len.(g) in
  let covered = Array.make e.g_classes.(g) false in
  List.iter (fun c -> covered.(c) <- true) t.classes;
  let sites = ref [] in
  for k = e.g_off.(g + 1) - 1 downto e.g_off.(g) do
    let p = e.i_pos.(k) in
    if covered.(e.i_cls.(k)) && is_free consumed p len then sites := p :: !sites
  done;
  !sites

(* Choose [t] for [g] as entry [tag] when it still covers a free
   instance, consuming them. *)
let take e consumed g t ~tag =
  let len = e.g_len.(g) in
  match covered_sites e consumed g t with
  | [] -> None
  | active ->
    List.iter (fun p -> Bytes.fill consumed p len '\001') active;
    Some
      {
        tag;
        repr = Array.sub e.insns e.i_pos.(e.g_off.(g)) len;
        tpl = t;
        active;
      }

(* --- template -> replacement spec -------------------------------------- *)

let spec_of_template e (repr : I.t array) (tpl : template) : R.t =
  let param_at pos = List.find_opt (fun p -> p.pos = pos) tpl.params in
  Array.of_list
    (List.mapi
       (fun ii insn ->
         let vec = e.fields.(e.raw.(tpl.base + ii)) in
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

(* Field [fi] of instruction [ii] of the window at position [p]. *)
let field e p ii fi = e.fields.(e.raw.(p + ii)).(fi)

(* Parameter field values for the codeword at position [p] (target
   params resolved by [offset_of]); returns the three codeword
   fields. *)
let codeword_fields e tpl p ~offset_of =
  let fields = Array.make 4 0 in  (* 1-based *)
  List.iter
    (fun prm ->
      let ii, fi = prm.pos in
      match prm.kind, field e p ii fi with
      | `Reg, Vreg n -> fields.(prm.field) <- n
      | `Imm5, Vimm v -> fields.(prm.field) <- R.to_field5 v
      | `Imm10, Vimm v ->
        let hi, lo = R.to_fields10 v in
        fields.(prm.field) <- hi;
        fields.(prm.field + 1) <- lo
      | `Off10, Vtarget t ->
        let hi, lo = R.to_fields10 (offset_of p t) in
        fields.(prm.field) <- hi;
        fields.(prm.field + 1) <- lo
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

let rec compress ~scheme prog =
  let e = enumerate ~all:false scheme prog in
  (* Lazy greedy selection. *)
  let consumed = Bytes.make (Array.length e.insns) '\000' in
  let heap = Heap.create () in
  (* A group's template is rebuilt only when its live-instance count
     moves: live sets only shrink, so an unchanged count is an
     unchanged set, and the template built from it is the same. *)
  let n_groups = Array.length e.g_len in
  let built_live = Array.make n_groups (-1) in
  let built = Array.make n_groups None in
  let current_template g =
    let len = e.g_len.(g) in
    let free k = is_free consumed e.i_pos.(k) len in
    let n = ref 0 in
    for k = e.g_off.(g) to e.g_off.(g + 1) - 1 do
      if free k then incr n
    done;
    if !n <> built_live.(g) then begin
      built_live.(g) <- !n;
      built.(g) <-
        (if best_case scheme ~len !n <= 0 then None
         else build_template scheme e g ~live:free)
    end;
    built.(g)
  in
  (* Nothing is consumed yet, so every instance is live, and every
     group's best case is positive. *)
  Array.iter
    (fun g ->
      built_live.(g) <- e.g_off.(g + 1) - e.g_off.(g);
      built.(g) <- build_template scheme e g ~live:(fun _ -> true);
      match built.(g) with
      | Some t when t.benefit > 0. -> Heap.push heap t.benefit g
      | Some _ | None -> ())
    (seeding_order e);
  let chosen = ref [] in
  let n_chosen = ref 0 in
  let rec select () =
    if !n_chosen >= scheme.max_entries then ()
    else
      match Heap.pop heap with
      | None -> ()
      | Some (_, g) -> (
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
              Heap.push heap t.benefit g;
              select ()
            end
            else begin
              (match take e consumed g t ~tag:!n_chosen with
              | None -> ()
              | Some c ->
                chosen := c :: !chosen;
                incr n_chosen;
                (* The group may still have uncovered distinct
                   instances; requeue it. *)
                (match current_template g with
                | Some t' when t'.benefit > 0. -> Heap.push heap t'.benefit g
                | Some _ | None -> ()));
              select ()
            end)
  in
  select ();
  finalize e ~scheme ~prog (Array.of_list (List.rev !chosen))

and finalize e ~scheme ~prog (chosen : chosen array) =
  (* [at.(p)]: the tag of the entry whose codeword is planted at
     position [p], or -1. *)
  let at = Array.make (Array.length e.insns) (-1) in
  Array.iter
    (fun (c : chosen) -> List.iter (fun p -> at.(p) <- c.tag) c.active)
    chosen;
  let entry_len tag = Array.length chosen.(tag).repr in
  (* Fixpoint: place, check branch-offset parameters, un-compress
     violating instances. Codeword sizes are fixed, so the addresses of
     the final round are the final layout's: it returns every emitted
     codeword's address and the label lookup. *)
  let rec fixpoint () =
    let addrs = Array.make (Array.length e.insns) (-1) in
    let symtab = Hashtbl.create 64 in
    let addr = ref code_base and p = ref 0 in
    List.iter
      (function
        | Lbl l -> Hashtbl.replace symtab l !addr
        | Blk arr ->
          let stop = !p + Array.length arr in
          while !p < stop do
            let tag = at.(!p) in
            if tag >= 0 then begin
              addrs.(!p) <- !addr;
              addr := !addr + scheme.codeword_bytes;
              p := !p + entry_len tag
            end
            else begin
              addr := !addr + 4;
              incr p
            end
          done)
      e.segs;
    let symbol = Hashtbl.find_opt symtab in
    let fits p prm =
      match prm.kind, field e p (fst prm.pos) (snd prm.pos) with
      | `Off10, Vtarget t -> (
        let target = match t with I.Abs a -> Some a | I.Lab l -> symbol l in
        match target with
        | Some ta ->
          let d = ta - addrs.(p) in
          fits10 (d / 4) && d mod 4 = 0
        | None -> false)
      | _ -> true
    in
    let violations = ref [] in
    Array.iteri
      (fun p addr ->
        if addr >= 0 && not (List.for_all (fits p) chosen.(at.(p)).tpl.params)
        then violations := p :: !violations)
      addrs;
    if !violations = [] then (addrs, symbol)
    else begin
      (* Un-compress the violating instances and re-lay-out; each round
         removes at least one instance, so this terminates. *)
      List.iter (fun p -> at.(p) <- -1) !violations;
      fixpoint ()
    end
  in
  let addrs, symbol = fixpoint () in
  let offset_of p t =
    assert (addrs.(p) >= 0);
    let target =
      match t with
      | I.Abs a -> a
      | I.Lab l -> (
        match symbol l with
        | Some a -> a
        | None -> invalid_arg ("Compress: unknown label " ^ l))
    in
    (target - addrs.(p)) / 4
  in
  (* The program from blocks + decisions, codewords with their final
     branch offsets. *)
  let final_prog =
    let p = ref 0 in
    List.concat_map
      (fun seg ->
        match seg with
        | Lbl l -> [ Program.Label l ]
        | Blk arr ->
          let stop = !p + Array.length arr in
          let out = ref [] in
          while !p < stop do
            let tag = at.(!p) in
            if tag >= 0 then begin
              let p1, p2, p3 = codeword_fields e chosen.(tag).tpl !p ~offset_of in
              out := Program.Ins (I.codeword ~op:0 ~p1 ~p2 ~p3 ~tag) :: !out;
              p := !p + entry_len tag
            end
            else begin
              out := Program.Ins e.insns.(!p) :: !out;
              incr p
            end
          done;
          List.rev !out)
      e.segs
  in
  let size_of = function
    | I.Codeword _ -> scheme.codeword_bytes
    | _ -> 4
  in
  let image = Program.layout ~base:code_base ~size_of final_prog in
  (* Surviving uses per entry. *)
  let uses = Array.make (Array.length chosen) 0 in
  Array.iter (fun tag -> if tag >= 0 then uses.(tag) <- uses.(tag) + 1) at;
  let entries =
    Array.to_list chosen
    |> List.filter_map (fun (c : chosen) ->
           if uses.(c.tag) = 0 then None
           else
             Some
               {
                 tag = c.tag;
                 spec = spec_of_template e c.repr c.tpl;
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
  c_enum : enum;
}

let corpus ~scheme prog =
  { c_scheme = scheme; c_prog = prog; c_enum = enumerate ~all:true scheme prog }

type window = {
  w_seed : seed;
  w_len : int;
  w_count : int;
  w_sites : (int * int * int) list;
}

let windows c =
  let e = c.c_enum in
  let blk_of = Array.make (Array.length e.insns) 0 in
  Array.iteri
    (fun b blk -> Array.fill blk_of e.block_base.(b) (Array.length blk) b)
    e.blocks;
  List.init (Array.length e.g_len) (fun g ->
      let sites =
        List.init
          (e.g_off.(g + 1) - e.g_off.(g))
          (fun j ->
            let p = e.i_pos.(e.g_off.(g) + j) in
            (blk_of.(p), p - e.block_base.(blk_of.(p)), p))
      in
      let blk, start, _ = List.hd sites in
      {
        w_seed = { s_blk = blk; s_start = start; s_len = e.g_len.(g) };
        w_len = e.g_len.(g);
        w_count = List.length sites;
        w_sites = sites;
      })
  |> List.sort (fun a b ->
         let a = a.w_seed and b = b.w_seed in
         if a.s_blk <> b.s_blk then Int.compare a.s_blk b.s_blk
         else if a.s_start <> b.s_start then Int.compare a.s_start b.s_start
         else Int.compare a.s_len b.s_len)

(* Resolve a seed to its group: the group of the window at the seed's
   position in this program. A seed that names no legal window (out of
   bounds, or a seed list recorded against a different program)
   resolves to nothing and is skipped. *)
let group_at c (s : seed) =
  let e = c.c_enum in
  if s.s_blk < 0 || s.s_blk >= Array.length e.blocks then None
  else
    let p = e.block_base.(s.s_blk) + s.s_start in
    if
      s.s_len < Int.max 1 c.c_scheme.min_len
      || s.s_start < 0
      || s.s_start + s.s_len > Array.length e.blocks.(s.s_blk)
      (* fewer windows start at [p] than [s_len]: one is illegal, or it
         is longer than [max_len] *)
      || s.s_len > e.first_win.(p + 1) - e.first_win.(p)
    then None
    else
      let g = e.group_of.(e.win_node.(e.first_win.(p) + s.s_len - 1)) in
      if g < 0 then None else Some g

let compress_seeded c ~seeds =
  let scheme = c.c_scheme and e = c.c_enum in
  let consumed = Bytes.make (Array.length e.insns) '\000' in
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
          let live k = is_free consumed e.i_pos.(k) e.g_len.(g) in
          match build_template scheme e g ~live with
          | None -> ()
          | Some t -> (
            match take e consumed g t ~tag:!n with
            | None -> ()
            | Some ch ->
              chosen := ch :: !chosen;
              incr n)))
    seeds;
  finalize e ~scheme ~prog:c.c_prog (Array.of_list (List.rev !chosen))
