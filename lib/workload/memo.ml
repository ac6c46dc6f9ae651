type 'v slot = Pending | Ready of 'v

type ('k, 'v) t = {
  table : ('k, 'v slot) Hashtbl.t;
  capacity : int;
  lock : Mutex.t;
  settled : Condition.t;
}

let create ~capacity =
  {
    table = Hashtbl.create (min capacity 64);
    capacity = max 1 capacity;
    lock = Mutex.create ();
    settled = Condition.create ();
  }

(* A full table drops its settled values; claims in flight stay, so
   their waiters still share one computation. *)
let make_room t =
  if Hashtbl.length t.table >= t.capacity then
    Hashtbl.filter_map_inplace
      (fun _ slot -> match slot with Pending -> Some Pending | Ready _ -> None)
      t.table

let find_or_compute t key compute =
  Mutex.lock t.lock;
  let rec claim () =
    match Hashtbl.find_opt t.table key with
    | Some (Ready v) ->
      Mutex.unlock t.lock;
      Some v
    | Some Pending ->
      Condition.wait t.settled t.lock;
      claim ()
    | None ->
      make_room t;
      Hashtbl.replace t.table key Pending;
      Mutex.unlock t.lock;
      None
  in
  match claim () with
  | Some v -> v
  | None -> (
    let settle slot =
      Mutex.protect t.lock (fun () ->
          (match slot with
          | Some v -> Hashtbl.replace t.table key (Ready v)
          | None -> Hashtbl.remove t.table key);
          Condition.broadcast t.settled)
    in
    match compute () with
    | v ->
      settle (Some v);
      v
    | exception e ->
      settle None;
      raise e)

let mem t key = Mutex.protect t.lock (fun () -> Hashtbl.mem t.table key)
let length t = Mutex.protect t.lock (fun () -> Hashtbl.length t.table)
let clear t = Mutex.protect t.lock (fun () -> Hashtbl.reset t.table)
