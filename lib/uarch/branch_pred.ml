type kind =
  | Cond
  | Direct
  | Indirect
  | Return

(* Every table is a power of two long and indexed with a mask. *)
let hist_bits = 12
let btb_entries = 2048
let ras_entries = 16

type t = {
  perfect : bool;
  hist_mask : int;
  pht : Bytes.t;             (* 2-bit counters *)
  btb_mask : int;
  btb_tags : int array;
  btb_targets : int array;
  ras_mask : int;
  ras : int array;
      (* ring: the newest entry sits just below [ras_top]; a push onto
         a full stack overwrites the oldest *)
  mutable ras_top : int;     (* next slot to push, in [0, ras length) *)
  mutable ras_count : int;   (* valid entries, capped at the ring length *)
  mutable history : int;
}

let make ~perfect ~hist_bits ~btb_entries ~ras_entries =
  let pht_size = 1 lsl hist_bits in
  {
    perfect;
    hist_mask = pht_size - 1;
    pht = Bytes.make pht_size '\002';  (* weakly taken *)
    btb_mask = btb_entries - 1;
    btb_tags = Array.make btb_entries (-1);
    btb_targets = Array.make btb_entries 0;
    ras_mask = ras_entries - 1;
    ras = Array.make ras_entries 0;
    ras_top = 0;
    ras_count = 0;
    history = 0;
  }

let create () = make ~perfect:false ~hist_bits ~btb_entries ~ras_entries

(* The oracle never reads its tables, so they are minimal. *)
let perfect () = make ~perfect:true ~hist_bits:0 ~btb_entries:1 ~ras_entries:1

let pht_index t pc = ((pc lsr 2) lxor t.history) land t.hist_mask

let predict_dir t pc = Char.code (Bytes.get t.pht (pht_index t pc)) >= 2

let train_dir t pc taken =
  let i = pht_index t pc in
  let c = Char.code (Bytes.get t.pht i) in
  let c' = if taken then Int.min 3 (c + 1) else Int.max 0 (c - 1) in
  Bytes.set t.pht i (Char.chr c');
  t.history <- ((t.history lsl 1) lor (if taken then 1 else 0)) land t.hist_mask

let btb_index t pc = (pc lsr 2) land t.btb_mask

(* Targets and return addresses are non-negative, so -1 is "no
   prediction" and never matches an actual target. *)
let btb_predict t pc =
  let i = btb_index t pc in
  if t.btb_tags.(i) = pc then t.btb_targets.(i) else -1

let btb_train t pc target =
  let i = btb_index t pc in
  t.btb_tags.(i) <- pc;
  t.btb_targets.(i) <- target

let ras_push t addr =
  t.ras.(t.ras_top) <- addr;
  t.ras_top <- (t.ras_top + 1) land t.ras_mask;
  if t.ras_count <= t.ras_mask then t.ras_count <- t.ras_count + 1

let ras_pop t =
  if t.ras_count = 0 then -1
  else begin
    t.ras_top <- (t.ras_top - 1) land t.ras_mask;
    t.ras_count <- t.ras_count - 1;
    t.ras.(t.ras_top)
  end

let on_branch t ~pc ~kind ~taken ~target ~fallthrough =
  ignore fallthrough;
  if t.perfect then `Correct
  else
    match kind with
    | Cond ->
      let predicted = predict_dir t pc in
      train_dir t pc taken;
      if predicted = taken then `Correct else `Mispredict
    | Direct -> `Correct
    | Indirect ->
      let predicted = btb_predict t pc in
      btb_train t pc target;
      if predicted = target then `Correct else `Mispredict
    | Return ->
      if ras_pop t = target then `Correct else `Mispredict

let on_call t ~pc ~target ~fallthrough ~indirect =
  if t.perfect then `Correct
  else begin
    ras_push t fallthrough;
    if indirect then begin
      let predicted = btb_predict t pc in
      btb_train t pc target;
      if predicted = target then `Correct else `Mispredict
    end
    else `Correct
  end
