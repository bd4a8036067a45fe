(* fleet-serve: a 16-node Fleet with periodic per-node feeds,
   fleet-wide merged monitors installed outside the lifecycle, and a
   Lifecycle taking a push every few epochs. There are no hook
   forwarders, and no learned policy, so those rows stay empty.

   The fleet runs on one domain. On a 2-vCPU host the 2-domain epoch
   runtime's timings moved 20-50% (quartile spread over ten seeds)
   with the load on the second vCPU, more than any bound this
   benchmark may set; one domain keeps the fleet's barrier, merged
   reads, admission and canary paths while leaving the vCPU question
   out. The benchmark advances the fleet one epoch per call, the way
   grc serve does, so the barrier hooks fire at every epoch. *)

open Gr_util
module D = Guardrails.Deployment
module E = Guardrails.Engine
module L = Guardrails.Lifecycle
module Fleet = Guardrails.Fleet
module S = Gr_runtime.Feature_store

let nodes = 16
let domains = 1
let keys = 8
let span = Time_ns.sec 25

(* Fleet monitors tick every 100ms; a 25ms epoch puts their merged
   reads in one epoch of four, so the slice median and p99 each sit
   inside one mode of the epoch-time distribution instead of on the
   boundary between them. *)
let epoch = Time_ns.ms 25

(* One node in [nodes] runs 10x slow for one second in five, which
   drives the merged p99 guardrail (GLOBAL save, ON_CHANGE, REPLACE). *)
let degraded ~seed ~id ~now =
  id = seed mod nodes && int_of_float (Time_ns.to_float_sec now) mod 5 = 2

let pass ~seed ~traced =
  let pass_start = Probe.now_ns () in
  let fleet = Fleet.create ~nodes ~seed ~domains ~epoch () in
  let logs = ref [] in
  Array.iteri
    (fun id node ->
      let kernel = D.kernel node in
      let rng = kernel.Gr_kernel.Kernel.rng in
      if traced then begin
        let log = Probe.Save_log.create () in
        Probe.Save_log.attach log ~clock:(fun () -> Gr_kernel.Kernel.now kernel) (D.store node);
        logs := (log, D.store node) :: !logs
      end;
      D.derive_periodic node ~key:"io_lat_us" ~every:(Time_ns.ms 5) (fun () ->
          let base = Rng.lognormal rng ~mu:5.0 ~sigma:0.4 in
          if degraded ~seed ~id ~now:(Gr_kernel.Kernel.now kernel) then base *. 10. else base);
      for k = 0 to keys - 1 do
        D.derive_periodic node ~key:(Specs.fleet_key k) ~every:(Time_ns.ms 10) (fun () ->
            Rng.float rng 100.)
      done;
      Gr_kernel.Kernel.register_policy kernel ~name:"lat_predictor"
        ~replace:(fun () -> ())
        ~restore:(fun () -> ())
        ())
    (Fleet.nodes fleet);
  let sources = Specs.fleet_tail_latency :: Specs.fleet_monitors ~keys in
  let t0 = Probe.now_ns () in
  let monitors = List.concat_map (fun src -> Guardrails.Compile.source_exn src) sources in
  let t1 = Probe.now_ns () in
  let handles =
    match Fleet.install_monitors fleet monitors with
    | Ok hs -> hs
    | Error e -> Fmt.failwith "install: %a" D.pp_error e
  in
  let t2 = Probe.now_ns () in
  (* Bench barrier hooks bracket the lifecycle's: [a] closes the epoch
     phase (node phase, intent replay, control phase), [b] closes the
     lifecycle decision. *)
  let last = ref 0 and at_a = ref 0 in
  let phase_ns = ref 0 and barrier_ns = ref 0 and probe_ns = ref 0 in
  let slices = Probe.Floats.create () and speed = Probe.Floats.create () in
  Fleet.add_barrier_hook fleet (fun _ ->
      at_a := Probe.now_ns ();
      phase_ns := !phase_ns + (!at_a - !last));
  let lc = L.create ~config:Serve.config (L.Fleet fleet) in
  Fleet.add_barrier_hook fleet (fun _ ->
      let t = Probe.now_ns () in
      barrier_ns := !barrier_ns + (t - !at_a);
      Probe.Floats.push slices (Probe.ms_of_ns (t - !last)));
  let serve = Serve.create ~fleet:true ~total_barriers:(span / epoch) lc in
  Serve.boot serve ~source:Specs.fleet_boot;
  if traced then begin
    Guardrails.Selfcost.reset ();
    Guardrails.Selfcost.set_enabled true
  end;
  let gc0 = Probe.gc_snapshot () in
  let run_start = Probe.now_ns () in
  last := run_start;
  let sim = Fleet.sim fleet in
  while Time_ns.compare (Gr_sim.Engine.now sim) span < 0 do
    Fleet.run_until fleet (Time_ns.min (Time_ns.add (Gr_sim.Engine.now sim) epoch) span);
    Serve.after_barrier serve;
    probe_ns := !probe_ns + Probe.Host_speed.sample speed;
    last := Probe.now_ns ()
  done;
  let run_end = Probe.now_ns () in
  let gc = Probe.gc_since gc0 in
  let top_heap_mb = Probe.top_heap_mb () in
  Guardrails.Selfcost.set_enabled false;
  let engine = Fleet.engine fleet in
  let violations = Fleet.violations fleet in
  let stores = Fleet.store fleet :: Array.to_list (Array.map D.store (Fleet.nodes fleet)) in
  let outputs =
    {
      Report.sim_events = Fleet.events_fired fleet;
      check_count = E.Stats.total_checks engine;
      store_saves = List.fold_left (fun acc s -> acc + S.save_count s) 0 stores;
      violations = List.length violations;
      violations_digest = Report.violations_digest violations;
      push_decisions = Serve.decisions serve;
      promotions = L.promotions lc;
      rollbacks = L.rollbacks lc;
    }
  in
  let push_total_ms = Probe.Floats.sum serve.push_ms in
  let wall_ns = run_end - run_start - !probe_ns in
  let layers =
    if not traced then []
    else begin
      let module C = Guardrails.Selfcost in
      let handles = handles @ match L.active lc with Some v -> v.L.handles | None -> [] in
      let hook_fires =
        Array.fold_left
          (fun acc node ->
            let hooks = (D.kernel node).Gr_kernel.Kernel.hooks in
            List.fold_left
              (fun acc h -> acc + Gr_kernel.Hooks.fire_count hooks h)
              acc (Gr_kernel.Hooks.known_hooks hooks))
          0 (Fleet.nodes fleet)
      in
      (* The epoch phase's self time: checks, their metrics records and
         merged reads all run inside it. *)
      let inner_ns = C.host_ns C.Check +. C.host_ns C.Metrics_record +. C.host_ns C.Store_merge in
      let merge_ns =
        if C.ops C.Store_merge = 0 then None
        else Some (C.host_ns C.Store_merge /. float_of_int (C.ops C.Store_merge))
      in
      [
        ("sim.events", Some (float_of_int outputs.sim_events));
        ( "sim.self_ns_per_event",
          Some ((float_of_int !phase_ns -. inner_ns) /. float_of_int (max 1 outputs.sim_events)) );
        ("hooks.fires", Some (float_of_int hook_fires));
        ("hooks.listeners_per_fire", Some 0.);
        ("hooks.fanout_ns", None);
      ]
      @ Report.live_store_rows stores
      @ [ ("store.merge_ns", merge_ns) ]
      @ Report.check_rows ~engine ~metrics:(D.metrics (Fleet.control fleet)) ~handles
      @ Report.setup_rows ~compile_ns:(t1 - t0) ~install_ns:(t2 - t1)
          ~monitors:(List.length monitors)
      @ [ ("policy.train_s", None) ]
      @ Report.serve_rows ~slices ~phase_ns:!phase_ns ~barrier_ns:!barrier_ns serve
      @ Report.runtime_rows ~events:outputs.sim_events ~wall_ns gc
          ~attributed_ns:(float_of_int (!phase_ns + !barrier_ns) +. (push_total_ms *. 1e6))
      @ Report.replay_rows
          (List.map
             (fun (log, store) ->
               Probe.Replay.run log ~shapes:(S.demand_shapes store) ~capacity:4096)
             !logs)
    end
  in
  {
    Report.setup_s = Probe.s_of_ns (run_start - pass_start);
    run_s = Probe.s_of_ns wall_ns -. (push_total_ms /. 1e3);
    sim_s = Time_ns.to_float_sec span;
    top_heap_mb;
    slices_ms = slices;
    push_ms = serve.push_ms;
    speed_ms = speed;
    outputs;
    layers;
  }
