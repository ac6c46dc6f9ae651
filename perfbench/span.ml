(* In-memory spans taken around the layer calls the benchmark makes.

   Every span has a name, start, end, parent and a tag naming the cell
   or request it belongs to. Recording is off unless [enable] was
   called; [run] always returns the duration, so untraced runs time
   the same calls without keeping spans. Spans are written once, when
   the run ends ([write_chrome]). *)

type t = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** 0 for a root span *)
  tag : string;
}

let enabled = ref false
let enable () = enabled := true
let lock = Mutex.create ()
let spans : t list ref = ref []
let next_id = Atomic.make 1
let current : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let record s = Mutex.protect lock (fun () -> spans := s :: !spans)

let run ?(tag = "") name f =
  if not !enabled then Util.time f
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = Domain.DLS.get current in
    Domain.DLS.set current id;
    let start = Util.now () in
    let finish () =
      let stop = Util.now () in
      Domain.DLS.set current parent;
      record { id; name; start; stop; parent; tag };
      stop -. start
    in
    match f () with
    | v -> (v, finish ())
    | exception e ->
      ignore (finish ());
      raise e
  end

(* A span whose interval was measured elsewhere (the serve client times
   send -> recv itself, on the connection's domain). *)
let add ?(tag = "") name ~start ~stop =
  if !enabled then
    record
      {
        id = Atomic.fetch_and_add next_id 1;
        name;
        start;
        stop;
        parent = Domain.DLS.get current;
        tag;
      }

let all () = List.rev !spans
let dur s = s.stop -. s.start

let total name =
  List.fold_left (fun acc s -> if s.name = name then acc +. dur s else acc) 0.0 !spans

(* Self time per span name: a span's duration minus the time its
   direct children cover. *)
let self_times () =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      Hashtbl.replace children s.parent
        (dur s +. Option.value (Hashtbl.find_opt children s.parent) ~default:0.0))
    !spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = dur s -. Option.value (Hashtbl.find_opt children s.id) ~default:0.0 in
      let n, total, self0 =
        Option.value (Hashtbl.find_opt by_name s.name) ~default:(0, 0.0, 0.0)
      in
      Hashtbl.replace by_name s.name (n + 1, total +. dur s, self0 +. self))
    !spans;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) by_name [] |> List.sort compare

let write_chrome file =
  let module J = Dise_telemetry.Json in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity !spans in
  let us x = J.Float (Float.round ((x -. t0) *. 1e6)) in
  let event s =
    J.Obj
      [
        ("name", J.String s.name);
        ("ph", J.String "X");
        ("ts", us s.start);
        ("dur", J.Float (Float.round (dur s *. 1e6)));
        ("pid", J.Int 1);
        ("tid", J.Int 1);
        ("args", J.Obj [ ("id", J.Int s.id); ("parent", J.Int s.parent); ("tag", J.String s.tag) ]);
      ]
  in
  let oc = open_out file in
  output_string oc (J.to_string (J.Obj [ ("traceEvents", J.List (List.map event (all ()))) ]));
  output_char oc '\n';
  close_out oc
