(* The single-node workloads, ingest and check: the figure 2 block rig
   (4 SSDs, a LinnOS classifier trained at set-up, Poisson reads,
   devices aging at 2s) under a workload-specific monitor set, served
   through the versioned lifecycle as grc serve --nodes 1 runs it. *)

open Gr_util
module D = Guardrails.Deployment
module E = Guardrails.Engine
module L = Guardrails.Lifecycle
module Sim = Gr_sim.Engine
module S = Gr_runtime.Feature_store

type workload = Ingest | Check

let n_devices = 4
let io_rate = 1500.
let aging_at = Time_ns.sec 2
let slice = Time_ns.ms 10

(* Simulated span of one pass; reads stop a second before the end so
   in-flight I/O drains. *)
let span = function Ingest -> Time_ns.sec 10 | Check -> Time_ns.sec 20

let ingest_forwarders = 256
let ingest_monitors = 16
let check_monitors = 64

(* Samples kept per key: the store's default ring. *)
let store_capacity = 4096

type rig = {
  kernel : Gr_kernel.Kernel.t;
  d : D.t;
  handles : E.handle list;
  listeners : int;  (** io_complete listeners the workload subscribed *)
  train_ns : int;
  compile_ns : int;
  install_ns : int;
  monitors : int;
}

(* Span probes a traced pass threads through set-up: sentinel
   listeners around the io_complete fan-out and a save-stream
   recorder. *)
type probes = {
  log : Probe.Save_log.t;
  mutable fan_t0 : int;
  mutable fanout_ns : int;
  mutable fires : int;
}

let build ~workload ~seed ~probes =
  let kernel = Gr_kernel.Kernel.create ~seed in
  let spec_rng = Rng.create ((seed * 7919) + 17) in
  let devices =
    Array.init n_devices (fun i ->
        Gr_kernel.Ssd.create ~rng:kernel.rng ~profile:Gr_kernel.Ssd.young_profile ~id:i)
  in
  let blk = Gr_kernel.Blk.create ~engine:kernel.engine ~hooks:kernel.hooks ~devices () in
  let t0 = Probe.now_ns () in
  let model = Gr_policy.Linnos.train ~rng:kernel.rng ~devices () in
  let train_ns = Probe.now_ns () - t0 in
  Gr_kernel.Policy_slot.install (Gr_kernel.Blk.slot blk) ~name:"linnos"
    (Gr_policy.Linnos.policy model);
  (* check's violating monitors act at most every 100ms. *)
  let config =
    match workload with
    | Ingest -> E.default_config
    | Check -> { E.default_config with cooldown = Time_ns.ms 100 }
  in
  let d = D.create ~kernel ~config ~store_capacity () in
  Option.iter
    (fun p ->
      Probe.Save_log.attach p.log ~clock:(fun () -> Gr_kernel.Kernel.now kernel) (D.store d);
      ignore
        (Gr_kernel.Hooks.subscribe kernel.hooks "blk:io_complete" (fun _ ->
             p.fan_t0 <- Probe.now_ns ())
          : Gr_kernel.Hooks.subscription))
    probes;
  let forward ~arg ~key = D.forward_hook_arg d ~hook:"blk:io_complete" ~arg ~key () in
  forward ~arg:"false_submit" ~key:"false_submit";
  let listeners =
    match workload with
    | Ingest ->
      for i = 0 to ingest_forwarders - 1 do
        forward ~arg:"latency_us" ~key:(Specs.forwarder_key i)
      done;
      1 + ingest_forwarders
    | Check ->
      forward ~arg:"latency_us" ~key:"io_latency_us";
      forward ~arg:"hedge_counterfactual_us" ~key:"hedge_counterfactual_us";
      (* The distilled model's 24 inputs, published every 100ms. *)
      ignore
        (Sim.every kernel.engine ~interval:(Time_ns.ms 100) (fun _ ->
             for dev = 0 to n_devices - 1 do
               Array.iteri
                 (fun k x -> D.save d (Specs.feature_key ((dev * 6) + k)) x)
                 (Gr_kernel.Blk.features blk ~primary:dev)
             done)
          : Sim.handle);
      3
  in
  Option.iter
    (fun p ->
      ignore
        (Gr_kernel.Hooks.subscribe kernel.hooks "blk:io_complete" (fun _ ->
             p.fanout_ns <- p.fanout_ns + (Probe.now_ns () - p.fan_t0);
             p.fires <- p.fires + 1)
          : Gr_kernel.Hooks.subscription))
    probes;
  D.derive_window_avg d ~src:"false_submit" ~dst:"false_submit_rate" ~window:(Time_ns.sec 2)
    ~every:(Time_ns.ms 100);
  D.save d "ml_enabled" 1.;
  D.bind_control_key d ~key:"ml_enabled" (fun v -> Gr_policy.Linnos.set_enabled model (v <> 0.));
  Gr_kernel.Kernel.register_policy kernel ~name:"linnos"
    ~replace:(fun () -> Gr_policy.Linnos.set_enabled model false)
    ~restore:(fun () -> Gr_policy.Linnos.set_enabled model true)
    ();
  ignore
    (Sim.schedule_at kernel.engine aging_at (fun _ ->
         Array.iter (fun dev -> Gr_kernel.Ssd.set_profile dev Gr_kernel.Ssd.aged_profile) devices)
      : Sim.handle);
  ignore
    (Gr_workload.Io_driver.start ~engine:kernel.engine ~rng:kernel.rng ~blk
       ~arrival:(Gr_workload.Arrival.poisson ~rate_per_sec:io_rate)
       ~n_devices ~zipf_s:0.5
       ~until:(Time_ns.diff (span workload) (Time_ns.sec 1))
       ()
      : Gr_workload.Io_driver.t);
  let sources =
    match workload with
    | Ingest ->
      Specs.ingest_monitors ~rng:spec_rng ~forwarders:ingest_forwarders ~count:ingest_monitors
    | Check -> Specs.check_quantile :: Specs.check_monitors ~rng:spec_rng ~count:check_monitors
  in
  let t0 = Probe.now_ns () in
  let monitors = List.concat_map (fun src -> Guardrails.Compile.source_exn src) sources in
  let t1 = Probe.now_ns () in
  let handles =
    match D.install_monitors d monitors with
    | Ok hs -> hs
    | Error e -> Fmt.failwith "install: %a" D.pp_error e
  in
  let t2 = Probe.now_ns () in
  {
    kernel;
    d;
    handles;
    listeners;
    train_ns;
    compile_ns = t1 - t0;
    install_ns = t2 - t1;
    monitors = List.length monitors;
  }

let outputs rig serve =
  let engine = D.engine rig.d in
  let violations = E.violations engine in
  {
    Report.sim_events = Sim.events_fired rig.kernel.engine;
    check_count = E.Stats.total_checks engine;
    store_saves = S.save_count (D.store rig.d);
    violations = List.length violations;
    violations_digest = Report.violations_digest violations;
    push_decisions = Serve.decisions serve;
    promotions = L.promotions serve.Serve.lc;
    rollbacks = L.rollbacks serve.Serve.lc;
  }

let pass ~workload ~seed ~traced =
  let pass_start = Probe.now_ns () in
  let probes =
    if traced then Some { log = Probe.Save_log.create (); fan_t0 = 0; fanout_ns = 0; fires = 0 }
    else None
  in
  let rig = build ~workload ~seed ~probes in
  let limit = span workload in
  let lc = L.create ~config:Serve.config (L.Deployment rig.d) in
  let serve = Serve.create ~fleet:false ~total_barriers:(limit / slice) lc in
  Serve.boot serve ~source:Specs.node_boot;
  let engine = rig.kernel.engine in
  let slices = Probe.Floats.create () and speed = Probe.Floats.create () in
  let barrier_ns = ref 0 and phase_ns = ref 0 and probe_ns = ref 0 in
  let step_ns = ref 0 and steps = ref 0 in
  if traced then begin
    Guardrails.Selfcost.reset ();
    Guardrails.Selfcost.set_enabled true
  end;
  let gc0 = Probe.gc_snapshot () in
  let run_start = Probe.now_ns () in
  let last = ref run_start in
  (* Barrier: the lifecycle decision, then the slice closes; the push
     that may follow is timed on its own and excluded, and so is the
     host speed sample after it. *)
  let at_barrier boundary =
    let t0 = Probe.now_ns () in
    L.barrier lc boundary;
    let t1 = Probe.now_ns () in
    barrier_ns := !barrier_ns + (t1 - t0);
    phase_ns := !phase_ns + (t0 - !last);
    Probe.Floats.push slices (Probe.ms_of_ns (t1 - !last));
    Serve.after_barrier serve;
    probe_ns := !probe_ns + Probe.Host_speed.sample speed;
    last := Probe.now_ns ()
  in
  if not traced then Sim.run_chunked engine ~epoch:slice ~limit ~at_barrier
  else begin
    (* Same chunk boundaries as run_chunked, with every event stepped
       and timed; run_until then only clamps the clock. *)
    let rec drain boundary =
      match Sim.next_event_time engine with
      | Some at when Time_ns.compare at boundary <= 0 ->
        let t0 = Probe.now_ns () in
        ignore (Sim.step engine : bool);
        step_ns := !step_ns + (Probe.now_ns () - t0);
        incr steps;
        drain boundary
      | _ -> Sim.run_until engine boundary
    in
    let t' = ref (Sim.now engine) in
    while Time_ns.compare !t' limit < 0 do
      let boundary = Time_ns.min (Time_ns.add !t' slice) limit in
      drain boundary;
      at_barrier boundary;
      t' := boundary
    done
  end;
  let run_end = Probe.now_ns () in
  let gc = Probe.gc_since gc0 in
  let top_heap_mb = Probe.top_heap_mb () in
  Guardrails.Selfcost.set_enabled false;
  let push_ms = serve.push_ms in
  let push_total_ms = Probe.Floats.sum push_ms in
  let wall_ns = run_end - run_start - !probe_ns in
  let outputs = outputs rig serve in
  let layers =
    match probes with
    | None -> []
    | Some p ->
      let module C = Guardrails.Selfcost in
      let store = D.store rig.d in
      let handles = rig.handles @ match L.active lc with Some v -> v.L.handles | None -> [] in
      let sim_self =
        float_of_int (!step_ns - p.fanout_ns) -. C.host_ns C.Check -. C.host_ns C.Metrics_record
      in
      let live_rows =
        [
          ("sim.events", Some (float_of_int outputs.sim_events));
          ("sim.self_ns_per_event", Some (sim_self /. float_of_int (max 1 !steps)));
          ("hooks.fires", Some (float_of_int p.fires));
          ("hooks.listeners_per_fire", Some (float_of_int rig.listeners));
          ("hooks.fanout_ns", Report.ratio p.fanout_ns p.fires);
        ]
        @ Report.live_store_rows [ store ]
        @ [ ("store.merge_ns", None) ]
        @ Report.check_rows ~engine:(D.engine rig.d) ~metrics:(D.metrics rig.d) ~handles
        @ Report.setup_rows ~compile_ns:rig.compile_ns ~install_ns:rig.install_ns
            ~monitors:rig.monitors
        @ [ ("policy.train_s", Some (Probe.s_of_ns rig.train_ns)) ]
        @ Report.serve_rows ~slices ~phase_ns:!phase_ns ~barrier_ns:!barrier_ns serve
        @ Report.runtime_rows ~events:outputs.sim_events ~wall_ns gc
            ~attributed_ns:(float_of_int (!step_ns + !barrier_ns) +. (push_total_ms *. 1e6))
      in
      (* The rig is dead from here on: collect it before the replay
         builds a second store of the same size. *)
      let shapes = S.demand_shapes store in
      Gc.full_major ();
      live_rows @ Report.replay_rows [ Probe.Replay.run p.log ~shapes ~capacity:store_capacity ]
  in
  {
    Report.setup_s = Probe.s_of_ns (run_start - pass_start);
    run_s = Probe.s_of_ns wall_ns -. (push_total_ms /. 1e3);
    sim_s = Time_ns.to_float_sec limit;
    top_heap_mb;
    slices_ms = slices;
    push_ms;
    speed_ms = speed;
    outputs;
    layers;
  }
