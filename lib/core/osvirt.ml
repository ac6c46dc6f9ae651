module Machine = Dise_machine.Machine
module Regfile = Dise_machine.Regfile
module Reg = Dise_isa.Reg

type pid = int

exception Rejected of Safety.finding list

type process = {
  pid : pid;
  name : string;
  machine : Machine.t;
  user_acf : Prodset.t option;
  engine : Engine.t ref;
  saved_dregs : int array;
}

type t = {
  mutable kernel_set : Prodset.t;
  mutable kernel_regs : (int * int) list;
  reserved : int list;
  controller_cfg : Controller.config option;
  mutable controller : Controller.t option;
  processes : (pid, process) Hashtbl.t;
  mutable current : pid option;
  mutable next_pid : int;
  mutable switches : int;
}

let create ?controller_cfg ?(reserved_dedicated = [ 2; 3 ]) () =
  {
    kernel_set = Prodset.empty;
    kernel_regs = [];
    reserved = reserved_dedicated;
    controller_cfg;
    controller = None;
    processes = Hashtbl.create 8;
    current = None;
    next_pid = 1;
    switches = 0;
  }

let inspect ~reserved set =
  match Safety.errors (Safety.check ~reserved_dedicated:reserved set) with
  | [] -> ()
  | errs -> raise (Rejected errs)

let combined t user =
  match user with
  | None -> t.kernel_set
  | Some u -> Prodset.union t.kernel_set u

let rebuild_controller t =
  match t.controller_cfg with
  | None -> ()
  | Some cfg -> t.controller <- Some (Controller.create cfg t.kernel_set)

let rebuild_engines t =
  Hashtbl.iter
    (fun _ p ->
      p.engine :=
        Engine.create ~image:(Machine.image p.machine) (combined t p.user_acf))
    t.processes

let install_kernel_acf t ~name ?(regs = []) set =
  ignore name;
  inspect ~reserved:[] set;
  t.kernel_set <- Prodset.union t.kernel_set set;
  t.kernel_regs <- regs @ t.kernel_regs;
  (* Propagate register initializations to every process's saved
     state (and live state, for the current process). *)
  Hashtbl.iter
    (fun _ p ->
      List.iter
        (fun (d, v) ->
          p.saved_dregs.(d) <- v;
          Regfile.set (Machine.regs p.machine) (Reg.d d) v)
        regs)
    t.processes;
  rebuild_engines t;
  rebuild_controller t

let spawn t ~name ?acf ?(dise_regs = []) image =
  (match acf with Some set -> inspect ~reserved:t.reserved set | None -> ());
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let engine = ref (Engine.create ~image (combined t acf)) in
  (* Expansions are reported to the controller so PT/RT reload costs of
     context switching are accounted even in functional runs. *)
  let expander ~pc insn =
    match Engine.expand !engine ~pc insn with
    | Some e as result ->
      (match t.controller with
      | Some c ->
        ignore
          (Controller.on_expansion c ~rsid:e.Machine.rsid
             ~len:(Array.length e.Machine.seq))
      | None -> ());
      result
    | None -> None
  in
  let machine = Machine.create ~expander image in
  let saved_dregs = Array.make Reg.num_dedicated 0 in
  List.iter (fun (d, v) -> saved_dregs.(d) <- v) (t.kernel_regs @ dise_regs);
  Array.iteri
    (fun d v -> Regfile.set (Machine.regs machine) (Reg.d d) v)
    saved_dregs;
  let p = { pid; name; machine; user_acf = acf; engine; saved_dregs } in
  if t.controller = None then rebuild_controller t;
  Hashtbl.replace t.processes pid p;
  pid

let get t pid =
  match Hashtbl.find_opt t.processes pid with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Osvirt: unknown pid %d" pid)

let machine t pid = (get t pid).machine

let save_dregs p =
  for d = 0 to Reg.num_dedicated - 1 do
    p.saved_dregs.(d) <- Regfile.get (Machine.regs p.machine) (Reg.d d)
  done

let restore_dregs p =
  Array.iteri
    (fun d v -> Regfile.set (Machine.regs p.machine) (Reg.d d) v)
    p.saved_dregs

let switch_to t pid =
  match t.current with
  | Some cur when cur = pid -> ()
  | _ ->
    (match t.current with
    | Some cur -> (
      match Hashtbl.find_opt t.processes cur with
      | Some p -> save_dregs p
      | None -> ())
    | None -> ());
    let p = get t pid in
    restore_dregs p;
    (match t.controller with
    | Some c -> Controller.context_switch c
    | None -> ());
    t.current <- Some pid;
    t.switches <- t.switches + 1

let run_slice t pid ~steps =
  switch_to t pid;
  let m = (get t pid).machine in
  let rec go n =
    if n >= steps then `Ran n
    else if Machine.step m then go (n + 1)
    else `Halted
  in
  go 0

let live t =
  Hashtbl.fold
    (fun pid p acc -> if Machine.halted p.machine then acc else pid :: acc)
    t.processes []
  |> List.sort compare

let round_robin ?(slice = 10_000) ?(max_slices = 10_000) t =
  let rec go budget =
    if budget <= 0 then failwith "Osvirt.round_robin: slice budget exhausted";
    match live t with
    | [] -> ()
    | pids ->
      List.iter (fun pid -> ignore (run_slice t pid ~steps:slice)) pids;
      go (budget - List.length pids)
  in
  go max_slices

let switches t = t.switches

let controller t =
  match t.controller with
  | Some c -> c
  | None ->
    (* No controller configured: expose a free one for stats symmetry. *)
    Controller.create Controller.perfect_config t.kernel_set
