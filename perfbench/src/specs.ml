(* Guardrail sources the workloads install and push. Every source is
   embedded here rather than read from the repository's spec files, so
   the benchmark's inputs cannot drift when those files change; the
   seeded generators derive keys, weights, windows and thresholds
   from the workload seed. *)

open Gr_util

(* The paper's Listing 2 without RETRAIN, as the figure 2 rig runs it. *)
let listing2 =
  {|guardrail low-false-submit {
  trigger: { TIMER(0, 1s) }
  rule: { LOAD(false_submit_rate) <= 0.05 }
  action: {
    REPORT("false-submit rate exceeded 5%", false_submit_rate)
    SAVE(ml_enabled, false)
  }
}|}

let forwarder_key i = Printf.sprintf "fw_%03d" i

(* ingest: one-second TIMER monitors over keys of the per-key
   forwarder fan-out, one aggregate each, cycling through every
   aggregate function so each has a registered demand. *)
let ingest_monitors ~rng ~forwarders ~count =
  let shapes =
    [|
      ("AVG(%s, 1s)", 900.);
      ("MAX(%s, 2s)", 20000.);
      ("STDDEV(%s, 1s)", 2500.);
      ("RATE(%s, 1s)", 1e9);
      ("QUANTILE(%s, 0.99, 1s)", 8000.);
      ("MIN(%s, 1s)", 1e9);
      ("SUM(%s, 1s)", 1e12);
      ("COUNT(%s, 1s)", 1e9);
      ("DELTA(%s, 1s)", 1e9);
    |]
  in
  listing2
  :: List.init (count - 1) (fun i ->
         let key = forwarder_key (Rng.int rng forwarders) in
         let fmt, bound = shapes.(i mod Array.length shapes) in
         let term = Printf.sprintf (Scanf.format_from_string fmt "%s") key in
         Printf.sprintf
           {|guardrail ingest-%02d { trigger: { TIMER(0, 1s) } rule: { %s <= %.1f } action: { REPORT("ingest %02d over bound", %s) } }|}
           i term bound i key)

let feature_key i = Printf.sprintf "feat_%02d" i
let n_features = 24

(* check: 10ms distilled-linear monitors. Each weighs the 24 block
   layer features (4 devices x [queue depths; 4 recent latencies])
   plus a streaming STDDEV over a window no other monitor uses (an
   unshared demand) and MAX / RATE terms every monitor shares. One
   monitor in eight has a bound (25) between the young regime's rule
   values (about 10-15) and the aged regime's (about 50), so it fires
   from the aging event on, at the same rate for every seed. *)
let check_monitors ~rng ~count =
  List.init count (fun i ->
      let terms =
        List.init n_features (fun j ->
            Printf.sprintf "%.4f * LOAD(%s)" (0.001 +. Rng.float rng 0.01) (feature_key j))
      in
      let stddev_window_ms = 200 + (10 * i) in
      let bound = if i mod 8 = 0 then 25. else 1e6 in
      Printf.sprintf
        {|guardrail distilled-%02d { trigger: { TIMER(0, 10ms) } rule: { %s + %.4f * STDDEV(io_latency_us, %dms) + 0.0010 * MAX(io_latency_us, 1s) + 0.0100 * RATE(false_submit, 1s) <= %.2f } action: { REPORT("distilled model out of range", io_latency_us) } }|}
        i (String.concat " + " terms)
        (0.001 +. Rng.float rng 0.004)
        stddev_window_ms bound)

let check_quantile =
  {|guardrail tail-p99 {
  trigger: { TIMER(0, 100ms) }
  rule: { COUNT(io_latency_us, 1s) == 0 || QUANTILE(io_latency_us, 0.99, 1s) <= 20000 }
  action: { REPORT("p99 over bound", io_latency_us) }
}|}

(* fleet-serve: merged AVG / MAX monitors over every node's shard. *)
let fleet_key i = Printf.sprintf "k%d" i

let fleet_monitors ~keys =
  List.init keys (fun i ->
      let k = fleet_key i in
      Printf.sprintf
        {|guardrail fleet-%s { trigger: { TIMER(0, 100ms) } rule: { AVG(%s, 1s) <= 90 && MAX(%s, 1s) <= 1e6 } action: { REPORT("fleet %s high", %s) } }|}
        k k k k k)

(* A copy of specs/fleet_tail_latency.grd: merged QUANTILE, a GLOBAL
   save, an ON_CHANGE subscriber and a fleet REPLACE. *)
let fleet_tail_latency =
  {|guardrail fleet-tail-latency {
  trigger: { TIMER(0, 100ms) }
  rule: {
    COUNT(io_lat_us, 2s) == 0 ||
    QUANTILE(io_lat_us, 0.99, 2s) <= 800
  }
  action: {
    REPORT("fleet p99 latency above bound", io_lat_us)
    SAVE(GLOBAL(fleet_pressure), QUANTILE(io_lat_us, 0.99, 2s))
    REPLACE("lat_predictor")
  }
}

guardrail fleet-pressure-watch {
  trigger: { ON_CHANGE(GLOBAL(fleet_pressure)) }
  rule: { LOAD(GLOBAL(fleet_pressure)) <= 2000 }
  action: {
    REPORT("fleet pressure critical", GLOBAL(fleet_pressure))
  }
}|}

(* Pushed specs. Every push cycle is: a promotable spec, a spec whose
   canary breaks the lifecycle's fire-rate limit (it rolls back), and
   a spec lint rejects (GRL003). The promotable spec alternates
   between two bounds so consecutive promotions differ. *)
type push_kind = Promote | Rollback | Reject

let push_kinds = [| Promote; Rollback; Reject |]

let push_kind_name = function
  | Promote -> "promote"
  | Rollback -> "rollback"
  | Reject -> "reject"

let reject_spec =
  {|guardrail backlog-ratio {
  trigger: { TIMER(0, 1s) }
  rule: { LOAD(backlog) / (COUNT(requests, 1s) * 0) + LOAD(spill) > 0 }
  action: { REPORT("bogus ratio", backlog) }
}|}

(* Single-node serving (the grc serve --nodes 1 path). *)
let node_boot =
  {|guardrail serve-slo {
  trigger: { TIMER(0, 100ms) }
  rule: { COUNT(false_submit, 1s) == 0 || AVG(false_submit, 1s) <= 0.95 }
  action: { REPORT("serve slo", false_submit) }
}|}

let node_promote n =
  Printf.sprintf
    {|guardrail serve-slo {
  trigger: { TIMER(0, 100ms) }
  rule: { COUNT(false_submit, 1s) == 0 || AVG(false_submit, 1s) <= %s }
  action: { REPORT("serve slo", false_submit) }
}|}
    (if n land 1 = 0 then "0.9" else "0.97")

let node_rollback =
  {|guardrail serve-heartbeat {
  trigger: { TIMER(0, 10ms) }
  rule: { COUNT(serve_heartbeat, 1s) >= 1 }
  action: { REPORT("no heartbeat", serve_heartbeat) }
}|}

(* Fleet serving: the control-plane specs of grc serve's smoke test. *)
let fleet_boot =
  {|guardrail serve-tail {
  trigger: { TIMER(0, 100ms) },
  rule: { COUNT(latency_us, 1s) == 0 || QUANTILE(latency_us, 0.99, 1s) <= 1e9 },
  action: {
    REPORT("p99 degraded", latency_us)
    REPLACE("lat_predictor")
  }
}|}

let fleet_promote n =
  Printf.sprintf
    {|guardrail serve-tail {
  trigger: { TIMER(0, 100ms) },
  rule: { COUNT(latency_us, 1s) == 0 || QUANTILE(latency_us, 0.99, 1s) <= %s },
  action: {
    REPORT("p99 degraded", latency_us)
    REPLACE("lat_predictor")
  }
}|}
    (if n land 1 = 0 then "5e8" else "6e8")

let fleet_rollback =
  {|guardrail serve-heartbeat {
  trigger: { TIMER(0, 10ms) },
  rule: { COUNT(serve_heartbeat, 1s) >= 1 },
  action: {
    REPORT("no heartbeat", serve_heartbeat)
    REPLACE("lat_predictor")
  }
}|}

(* The [n]th push (0-based) of a run and the source it carries. *)
let push_source ~fleet n =
  let kind = push_kinds.(n mod Array.length push_kinds) in
  let cycle = n / Array.length push_kinds in
  let source =
    match (kind, fleet) with
    | Promote, false -> node_promote cycle
    | Promote, true -> fleet_promote cycle
    | Rollback, false -> node_rollback
    | Rollback, true -> fleet_rollback
    | Reject, _ -> reject_spec
  in
  (kind, source)

