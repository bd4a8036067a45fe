(* What one pass reports: the outputs run.py validates, the raw
   end-to-end samples, and (traced passes) the per-layer profile.
   Layer rows a workload cannot fill from outside print as null. *)

module J = Guardrails.Json

type outputs = {
  sim_events : int;
  check_count : int;
  store_saves : int;
  violations : int;
  violations_digest : string;
  push_decisions : string list;
  promotions : int;
  rollbacks : int;
}

type pass = {
  setup_s : float;
  run_s : float;  (** run-phase host seconds, pushes excluded *)
  sim_s : float;
  top_heap_mb : float;  (** peak major heap at run end *)
  slices_ms : Probe.Floats.t;
  push_ms : Probe.Floats.t;
  speed_ms : Probe.Floats.t;  (** one Host_speed sample per barrier *)
  outputs : outputs;
  layers : (string * float option) list;  (** empty on untraced passes *)
}

let violations_digest records =
  let b = Buffer.create 4096 in
  List.iter
    (fun (v : Guardrails.Engine.violation_record) ->
      Printf.bprintf b "%s@%d:%s|" v.monitor v.at v.message;
      List.iter (fun (k, x) -> Printf.bprintf b "%s=%h;" k x) v.snapshot;
      Buffer.add_char b '\n')
    records;
  Digest.to_hex (Digest.string (Buffer.contents b))

let num x = if Float.is_finite x then J.Num x else J.Null
let int n = J.Num (float_of_int n)
let floats f = J.Arr (List.map num (Probe.Floats.to_list f))

let to_json ~workload ~seed ~traced p =
  let o = p.outputs in
  J.Obj
    [
      ("workload", J.Str workload);
      ("seed", int seed);
      ("traced", J.Bool traced);
      ("ocaml", J.Str Sys.ocaml_version);
      ( "outputs",
        J.Obj
          [
            ("sim.events", int o.sim_events);
            ("check.count", int o.check_count);
            ("store.saves", int o.store_saves);
            ("violations", int o.violations);
            ("violations_digest", J.Str o.violations_digest);
            ("push_decisions", J.Arr (List.map (fun s -> J.Str s) o.push_decisions));
            ("promotions", int o.promotions);
            ("rollbacks", int o.rollbacks);
          ] );
      ("setup_s", num p.setup_s);
      ("run_s", num p.run_s);
      ("sim_s", num p.sim_s);
      ("top_heap_mb", num p.top_heap_mb);
      ("slices_ms", floats p.slices_ms);
      ("push_ms", floats p.push_ms);
      ("speed_ms", floats p.speed_ms);
      ( "layers",
        J.Obj (List.map (fun (k, v) -> (k, match v with Some x -> num x | None -> J.Null)) p.layers)
      );
    ]

let ratio a b = if b = 0 then None else Some (float_of_int a /. float_of_int b)

(* Store counters of the live run, summed over the given stores. *)
let live_store_rows (stores : Gr_runtime.Feature_store.t list) =
  let module S = Gr_runtime.Feature_store in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stores in
  let hits = sum S.agg_hit_count and misses = sum S.agg_miss_count in
  let reads = hits + misses in
  let per_read n = ratio n reads in
  [
    ("store.saves", Some (float_of_int (sum S.save_count)));
    ("store.agg_reads", Some (float_of_int reads));
    ("store.agg_hit_ratio", per_read hits);
    ("store.expired_per_read", per_read (sum S.expired_count));
  ]

(* Store-write and store-read costs from save-stream replays, plus the
   cost model's error per aggregate function: measured read ns over
   the model's estimate for that function's Agg instruction. *)
let replay_rows (replays : Probe.Replay.t list) =
  let saves = List.fold_left (fun acc (r : Probe.Replay.t) -> acc + r.saves) 0 replays in
  let per_save f =
    if saves = 0 then None
    else Some (List.fold_left (fun acc r -> acc +. f r) 0. replays /. float_of_int saves)
  in
  let reads = List.concat_map (fun (r : Probe.Replay.t) -> r.reads) replays in
  let mean f = function
    | [] -> None
    | l -> Some (List.fold_left (fun acc x -> acc +. f x) 0. l /. float_of_int (List.length l))
  in
  let agg_ns (r : Probe.Replay.read_cost) = r.agg_ns in
  let with_fn p = List.filter (fun (r : Probe.Replay.read_cost) -> p r.fn) reads in
  let fns = List.sort_uniq compare (List.map (fun (r : Probe.Replay.read_cost) -> r.fn) reads) in
  let model_error fn =
    let modelled =
      Gr_compiler.Ir.inst_cost_ns
        (Gr_compiler.Ir.Agg { dst = 0; fn; slot = 0; window_ns = 0.; param = 0. })
    in
    ( "model_error." ^ Gr_dsl.Ast.agg_name fn,
      Option.map (fun m -> m /. modelled) (mean agg_ns (with_fn (( = ) fn))) )
  in
  [
    ("store.save_ns", per_save (fun r -> r.save_ns));
    ("store.save_minor_words", per_save (fun r -> r.save_minor_words));
    ("store.streaming_agg_ns", mean agg_ns (with_fn (( <> ) Gr_dsl.Ast.Quantile)));
    ("store.quantile_ns", mean agg_ns (with_fn (( = ) Gr_dsl.Ast.Quantile)));
    ("store.export_ns", mean (fun (r : Probe.Replay.read_cost) -> r.export_ns) reads);
  ]
  @ List.map model_error fns

(* Check rows: counts from the engine and metrics registry, host cost
   from Selfcost's Check account, and that cost over the engine's
   estimated ns per check. *)
let check_rows ~engine ~metrics ~handles =
  let module E = Guardrails.Engine in
  let module C = Guardrails.Selfcost in
  let monitors = Guardrails.Metrics.monitors metrics in
  let sum f = List.fold_left (fun acc m -> acc + f m) 0 monitors in
  let checks = E.Stats.total_checks engine in
  let jit = List.filter (fun h -> E.tier h = Guardrails.Vm.Jit) handles in
  let ops = C.ops C.Check in
  let measured = if ops = 0 then None else Some (C.host_ns C.Check /. float_of_int ops) in
  let estimated =
    if checks = 0 then 0. else E.Stats.total_overhead_ns engine /. float_of_int checks
  in
  [
    ("check.count", Some (float_of_int checks));
    ("check.ns", measured);
    ("check.insts", ratio (sum (fun m -> m.Guardrails.Metrics.vm_insts)) checks);
    ("check.jit_share", ratio (List.length jit) (List.length handles));
    ( "check.model_error",
      if estimated > 0. then Option.map (fun m -> m /. estimated) measured else None );
    ("action.firings", Some (float_of_int (sum (fun m -> m.Guardrails.Metrics.fires))));
  ]

let setup_rows ~compile_ns ~install_ns ~monitors =
  [
    ("compile.ms_per_monitor", Some (Probe.ms_of_ns compile_ns /. float_of_int monitors));
    ("install.ms_per_monitor", Some (Probe.ms_of_ns install_ns /. float_of_int monitors));
  ]

(* Barrier rows: [phase_ns] is the time advancing the simulation up to
   each barrier, [barrier_ns] the lifecycle's decisions at them. *)
let serve_rows ~slices ~phase_ns ~barrier_ns (serve : Serve.t) =
  let n = max 1 (Probe.Floats.length slices) in
  let per_barrier ns = Some (Probe.ms_of_ns ns /. float_of_int n) in
  let admit_compile, admit_audit = Serve.admission_ms ~fleet:serve.fleet in
  [
    ("fleet.epochs", Some (float_of_int (Probe.Floats.length slices)));
    ("fleet.phase_ms", per_barrier phase_ns);
    ("lifecycle.barrier_ms", per_barrier barrier_ns);
    ("lifecycle.promotions", Some (float_of_int (Guardrails.Lifecycle.promotions serve.lc)));
    ("lifecycle.rollbacks", Some (float_of_int (Guardrails.Lifecycle.rollbacks serve.lc)));
    ("lifecycle.rejects", Some (float_of_int serve.rejects));
    ("admit.compile_ms", Some admit_compile);
    ("admit.audit_ms", Some admit_audit);
  ]

(* OCaml runtime rows over the run phase, and the share of the run's
   wall time no layer span covers. *)
let runtime_rows ~events ~wall_ns ~attributed_ns (g : Probe.gc_delta) =
  let per x = if events = 0 then None else Some (x /. float_of_int events) in
  [
    ("gc.minor_words_per_event", per g.minor_words);
    ("gc.promoted_words_per_event", per g.promoted_words);
    ("gc.major_collections", Some (float_of_int g.major_collections));
    ( "profile.unattributed_share",
      Some ((float_of_int wall_ns -. attributed_ns) /. float_of_int wall_ns) );
  ]
