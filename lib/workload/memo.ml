type 'v slot = Pending | Ready of 'v

type ('k, 'v) t = {
  table : ('k, 'v slot) Hashtbl.t;
  lock : Mutex.t;
  settled : Condition.t;
}

let create n =
  { table = Hashtbl.create n; lock = Mutex.create (); settled = Condition.create () }

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

let clear t = Mutex.protect t.lock (fun () -> Hashtbl.reset t.table)
