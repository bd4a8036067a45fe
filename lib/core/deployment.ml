open Gr_util

let src = Logs.Src.create "guardrails.deployment" ~doc:"Guardrail deployment"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  kernel : Gr_kernel.Kernel.t;
  store : Gr_runtime.Feature_store.t;
  engine : Gr_runtime.Engine.t;
  tracer : Gr_trace.Tracer.t;
  attach_sim : bool;
  (* Newest first; O(1) install. Accessors present install order. *)
  mutable monitors_rev : (Gr_runtime.Engine.handle * Gr_compiler.Monitor.t) list;
}

(* The hook table and sim engine belong to the kernel, so they carry
   one tracer at a time. Attaching over a different deployment's
   tracer silently rewired that deployment's channel — the historical
   wart — so takeovers are now explicit and logged. *)
let warn_takeover ~channel =
  Log.warn (fun m ->
      m
        "deployment tracer takeover: the kernel's %s channel was attached to another \
         deployment's tracer; detach_tracer on the old deployment first to hand over \
         cleanly"
        channel)

let attach_tracer t =
  (match Gr_kernel.Hooks.tracer t.kernel.hooks with
  | Some prev when prev != t.tracer -> warn_takeover ~channel:"hook"
  | _ -> ());
  Gr_kernel.Hooks.set_tracer t.kernel.hooks t.tracer;
  if t.attach_sim then begin
    (match Gr_sim.Engine.tracer t.kernel.engine with
    | Some prev when prev != t.tracer -> warn_takeover ~channel:"sim"
    | _ -> ());
    Gr_sim.Engine.set_tracer t.kernel.engine t.tracer
  end

let detach_tracer t =
  (match Gr_kernel.Hooks.tracer t.kernel.hooks with
  | Some prev when prev == t.tracer -> Gr_kernel.Hooks.clear_tracer t.kernel.hooks
  | _ -> ());
  match Gr_sim.Engine.tracer t.kernel.engine with
  | Some prev when prev == t.tracer -> Gr_sim.Engine.clear_tracer t.kernel.engine
  | _ -> ()

let owns_tracer t =
  (match Gr_kernel.Hooks.tracer t.kernel.hooks with
  | Some prev -> prev == t.tracer
  | None -> false)
  && ((not t.attach_sim)
     ||
     match Gr_sim.Engine.tracer t.kernel.engine with
     | Some prev -> prev == t.tracer
     | None -> false)

let create ~kernel ?config ?(store_capacity = 4096) ?(tracing = false)
    ?(trace_capacity = 65536) ?(attach_sim = true) ?node_id ?engine () =
  let tracer =
    Gr_trace.Tracer.create
      ~clock:(fun () -> Gr_kernel.Kernel.now kernel)
      ~capacity:trace_capacity ~enabled:tracing ?node_id ()
  in
  let store =
    Gr_runtime.Feature_store.create
      ~clock:(fun () -> Gr_kernel.Kernel.now kernel)
      ~capacity_per_key:store_capacity ()
  in
  Gr_runtime.Feature_store.set_tracer store tracer;
  Option.iter (Gr_runtime.Feature_store.set_node_id store) node_id;
  let engine = Gr_runtime.Engine.create ~kernel ~store ?config ~tracer ?engine () in
  let t = { kernel; store; engine; tracer; attach_sim; monitors_rev = [] } in
  attach_tracer t;
  t

let kernel t = t.kernel
let node_id t = Gr_trace.Tracer.node_id t.tracer
let store t = t.store
let engine t = t.engine
let tracer t = t.tracer
let metrics t = Gr_trace.Tracer.metrics t.tracer
let set_tracing t on = Gr_trace.Tracer.set_enabled t.tracer on
let write_chrome_trace t ~path = Gr_trace.Export.write_chrome ~path t.tracer

type error =
  | Compile of Gr_compiler.Compile.error
  | Install of string * string list

let pp_error fmt = function
  | Compile e -> Gr_compiler.Compile.pp_error fmt e
  | Install (name, errs) ->
    Format.fprintf fmt "installing monitor %s failed:" name;
    List.iter (fun e -> Format.fprintf fmt "@\n  %s" e) errs

let install_monitor ?version t monitor =
  match Gr_runtime.Engine.install ?version t.engine monitor with
  | Ok handle ->
    t.monitors_rev <- (handle, monitor) :: t.monitors_rev;
    Ok handle
  | Error errs -> Error (Install (monitor.Gr_compiler.Monitor.name, errs))

let uninstall t handle =
  Gr_runtime.Engine.uninstall t.engine handle;
  t.monitors_rev <- List.filter (fun (h, _) -> h != handle) t.monitors_rev

(* Shared by install_source and the versioned lifecycle: install a
   compiled monitor set atomically — on any failure everything from
   this set is rolled back (demand refcounts released) before the
   error returns. *)
let install_monitors ?version t monitors =
  let rec go installed = function
    | [] -> Ok (List.rev installed)
    | m :: rest -> (
      match install_monitor ?version t m with
      | Ok handle -> go (handle :: installed) rest
      | Error e ->
        List.iter (uninstall t) installed;
        Error e)
  in
  go [] monitors

let install_source t src =
  match Gr_compiler.Compile.source src with
  | Error e -> Error (Compile e)
  | Ok monitors -> install_monitors t monitors

let install_source_exn t src =
  match install_source t src with
  | Ok handles -> handles
  | Error e -> failwith (Format.asprintf "%a" pp_error e)

let installed_monitors t = List.rev_map snd t.monitors_rev
let feedback_cycles t = Gr_compiler.Deps.cycles (installed_monitors t)

let save t key value = Gr_runtime.Feature_store.save t.store key value

(* The forwarder runs on every firing of a busy hook, so the store
   key is resolved once into a writer here, and the arg is found by a
   loop that does not allocate the option [List.assoc_opt] would. *)
let forward_hook_arg t ~hook ~arg ?key () =
  let w = Gr_runtime.Feature_store.writer t.store (Option.value ~default:arg key) in
  let rec forward = function
    | [] -> ()
    | (name, v) :: rest ->
      if String.equal name arg then Gr_runtime.Feature_store.write w v else forward rest
  in
  ignore (Gr_kernel.Hooks.subscribe t.kernel.hooks hook forward : Gr_kernel.Hooks.subscription)

let derive_window_avg t ~src ~dst ~window ~every =
  (* The derivation asks for this exact aggregate forever; register it
     so every periodic read is a streaming O(1) hit, not a scan. *)
  Gr_runtime.Feature_store.register_demand t.store ~key:src ~fn:Gr_dsl.Ast.Avg
    ~window_ns:(float_of_int window) ~param:0.;
  let w = Gr_runtime.Feature_store.writer t.store dst in
  ignore
    (Gr_sim.Engine.every t.kernel.engine ~interval:every (fun _ ->
         let avg =
           Gr_runtime.Feature_store.aggregate t.store ~key:src ~fn:Gr_dsl.Ast.Avg
             ~window_ns:(float_of_int window) ~param:0.
         in
         Gr_runtime.Feature_store.write w avg)
      : Gr_sim.Engine.handle)

let derive_periodic t ~key ~every sample =
  let w = Gr_runtime.Feature_store.writer t.store key in
  ignore
    (Gr_sim.Engine.every t.kernel.engine ~interval:every (fun _ ->
         Gr_runtime.Feature_store.write w (sample ()))
      : Gr_sim.Engine.handle)

let bind_control_key t ~key callback =
  Gr_runtime.Feature_store.on_save t.store (fun k v -> if k = key then callback v);
  if Gr_runtime.Feature_store.mem t.store key then
    callback (Gr_runtime.Feature_store.load t.store key)

let wire_scheduler t sched =
  Gr_runtime.Engine.set_deprioritize_handler t.engine (fun ~cls ~weight ->
      ignore (Gr_kernel.Sched.deprioritize_class sched ~cls ~weight : int));
  Gr_runtime.Engine.set_kill_handler t.engine (fun ~cls ->
      ignore (Gr_kernel.Sched.kill_class sched ~cls : int));
  let max_wait () = Gr_kernel.Sched.max_wait_ms sched in
  let jain () =
    let received = List.map snd (Gr_kernel.Sched.received_by_class sched) in
    Stats.jain_index (Array.of_list received)
  in
  (* Seed both keys so guardrails checking before the first periodic
     sample see healthy values, not LOAD's 0-default. *)
  save t "sched_max_wait_ms" (max_wait ());
  save t "sched_jain" (jain ());
  derive_periodic t ~key:"sched_max_wait_ms" ~every:(Time_ns.ms 10) max_wait;
  derive_periodic t ~key:"sched_jain" ~every:(Time_ns.ms 10) jain;
  save t "sched_wasted_cores" 0.;
  derive_periodic t ~key:"sched_wasted_cores" ~every:(Time_ns.ms 10) (fun () ->
      float_of_int (Gr_kernel.Sched.wasted_cores sched))
