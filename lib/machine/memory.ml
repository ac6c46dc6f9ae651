exception Fault of string

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

type t = {
  pages : (int, bytes) Hashtbl.t;
  (* One-entry translation cache: accesses cluster heavily (stack,
     current data structure), so most lookups skip the hashtable. *)
  mutable last_key : int;
  mutable last_page : bytes;
}

let no_page = Bytes.create 0

let create () =
  { pages = Hashtbl.create 64; last_key = -1; last_page = no_page }

let page t addr =
  let key = addr lsr page_bits in
  if key = t.last_key then t.last_page
  else
    let p =
      (* [find], not [find_opt]: a hit allocates no option. *)
      match Hashtbl.find t.pages key with
      | p -> p
      | exception Not_found ->
        let p = Bytes.make page_size '\000' in
        Hashtbl.replace t.pages key p;
        p
    in
    t.last_key <- key;
    t.last_page <- p;
    p

let read_u8 t addr =
  let addr = addr land 0xFFFFFFFF in
  Char.code (Bytes.get (page t addr) (addr land page_mask))

let write_u8 t addr v =
  let addr = addr land 0xFFFFFFFF in
  Bytes.set (page t addr) (addr land page_mask) (Char.chr (v land 0xFF))

let check_aligned addr =
  if addr land 3 <> 0 then
    raise (Fault (Printf.sprintf "misaligned word access at 0x%x" addr))

(* A word is one load or store: [%caml_bytes_get32] and
   [%caml_bytes_set32] are the host's native (little-endian, like the
   memory model) 32-bit access, bounds-checked, and stay unboxed when
   the [int32] is converted at once. *)
external get32 : bytes -> int -> int32 = "%caml_bytes_get32"
external set32 : bytes -> int -> int32 -> unit = "%caml_bytes_set32"

let () = assert (not Sys.big_endian)

let read_s32 t addr =
  let addr = addr land 0xFFFFFFFF in
  check_aligned addr;
  (* A page is a multiple of 4 bytes, so an aligned word never
     straddles pages. *)
  Int32.to_int (get32 (page t addr) (addr land page_mask))

let read_u32 t addr = read_s32 t addr land 0xFFFFFFFF

let write_u32 t addr v =
  let addr = addr land 0xFFFFFFFF in
  check_aligned addr;
  set32 (page t addr) (addr land page_mask) (Int32.of_int v)

let touched_pages t = Hashtbl.length t.pages

let checksum_range t ~lo ~hi =
  Hashtbl.fold
    (fun key p acc ->
      let base = key lsl page_bits in
      if base + page_size <= lo || base >= hi then acc
      else begin
        let h = ref 0 in
        for i = 0 to Bytes.length p - 1 do
          let addr = base lor i in
          if addr >= lo && addr < hi then begin
            let b = Char.code (Bytes.get p i) in
            if b <> 0 then h := !h + (addr * 1000003 lxor (b * 8191))
          end
        done;
        acc lxor !h
      end)
    t.pages 0

let checksum t = checksum_range t ~lo:0 ~hi:max_int
