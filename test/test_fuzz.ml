(* Fuzz-style tests, in two tiers.

   Robustness: the compiler front end must never raise anything
   except its declared error type, no matter the input.

   Differential: random well-typed specs are compiled twice — the
   real pipeline (optimised, streaming aggregates) and a reference
   configuration (unoptimised, naive full-scan aggregates) — and the
   result is compared three ways: the tree-walking VM, the closure
   template JIT (Jit.compile), and an independent IR reference
   interpreter written directly from the semantics in vm.mli. The two
   engine tiers must agree BIT-exactly — value, instruction count,
   scanned samples, estimated cost, and store counter effects; the
   reference comparison allows a rounding tolerance. A sharded arm
   repeats the tree/JIT comparison on a fleet-tier store whose reads
   merge 2-3 node shards. A divergence means a bug in the optimiser,
   a VM tier, or the incremental store, and the failure message
   carries a `grc run --engine` repro line.

   Every case derives from a pinned seed ([0x5EED + i]), so CI runs
   the exact same 500 programs every time and a failure message
   identifies the case by index alone. Odd cases feed their stores
   through write handles ({!Store.writer}) instead of saves by key,
   so the streaming state every tier reads is also built by the
   pinned write path. *)

module Store = Gr_runtime.Feature_store
module Vm = Gr_runtime.Vm
module Jit = Gr_runtime.Jit
module Ir = Gr_compiler.Ir
module Monitor = Gr_compiler.Monitor
module Compile = Gr_compiler.Compile
module Rng = Gr_util.Rng
module Time_ns = Gr_util.Time_ns

let parser_total_on_garbage =
  QCheck2.Test.make ~name:"parser returns Ok/Error on arbitrary bytes, never raises" ~count:1000
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_range 0 200))
    (fun s ->
      match Gr_dsl.Parser.parse s with Ok _ | Error _ -> true)

let printable_gen =
  (* Biased toward token-shaped fragments so the parser gets past the
     lexer often enough to exercise deeper paths. *)
  QCheck2.Gen.(
    map (String.concat " ")
      (list_size (int_range 0 40)
         (oneofl
            [
              "guardrail"; "trigger"; "rule"; "action"; "{"; "}"; "("; ")"; ","; ";"; ":";
              "TIMER"; "FUNCTION"; "ON_CHANGE"; "LOAD"; "SAVE"; "REPORT"; "REPLACE"; "RETRAIN";
              "AVG"; "QUANTILE"; "&&"; "||"; "!"; "<="; "=="; "+"; "-"; "*"; "/"; "0"; "1e9";
              "50ms"; "true"; "false"; "x"; "y"; "\"s\""; "low-false-submit";
            ])))

let parser_total_on_token_soup =
  QCheck2.Test.make ~name:"parser total on token soup" ~count:1000 printable_gen (fun s ->
      match Gr_dsl.Parser.parse s with Ok _ | Error _ -> true)

let compile_total_on_token_soup =
  QCheck2.Test.make ~name:"full compile pipeline total on token soup" ~count:500 printable_gen
    (fun s ->
      match Gr_compiler.Compile.source s with Ok _ | Error _ -> true)

let compiled_monitors_always_verify =
  (* Everything the pipeline accepts must satisfy the verifier — the
     compiler cannot emit monitors the loader would reject. *)
  QCheck2.Test.make ~name:"pipeline output always passes the verifier" ~count:300
    Gen.guardrail_gen
    (fun g ->
      let src = Gr_dsl.Pretty.spec_to_string [ g ] in
      match Gr_compiler.Compile.source src with
      | Error _ -> true (* rejected inputs are fine *)
      | Ok monitors ->
        List.for_all
          (fun m -> Result.is_ok (Gr_compiler.Verify.verify m))
          monitors)

(* ------------------------------------------------------------------ *)
(* Differential fuzzer: VM vs. a direct IR reference interpreter.     *)
(* ------------------------------------------------------------------ *)

let fuzz_cases = 500

(* Reference interpreter, written against the documented semantics
   (vm.mli): booleans are 0/1, any non-zero value is truthy, division
   by zero yields 0. Deliberately shares no code with Vm.run. *)
let eval_ref ~store ~slots (p : Ir.program) =
  let regs = Array.make (max 1 p.Ir.n_regs) 0. in
  let truthy v = v <> 0. in
  let of_bool b = if b then 1. else 0. in
  Array.iter
    (fun (inst : Ir.inst) ->
      match inst with
      | Ir.Const { dst; value } -> regs.(dst) <- value
      | Ir.Load { dst; slot } -> regs.(dst) <- Store.load store slots.(slot)
      | Ir.Agg { dst; fn; slot; window_ns; param } ->
        regs.(dst) <- Store.aggregate store ~key:slots.(slot) ~fn ~window_ns ~param
      | Ir.Unop { dst; op; src } ->
        let v = regs.(src) in
        regs.(dst) <-
          (match op with
          | Gr_dsl.Ast.Neg -> -.v
          | Gr_dsl.Ast.Abs -> Float.abs v
          | Gr_dsl.Ast.Not -> of_bool (not (truthy v)))
      | Ir.Binop { dst; op; lhs; rhs } ->
        let a = regs.(lhs) and b = regs.(rhs) in
        regs.(dst) <-
          (match op with
          | Gr_dsl.Ast.Add -> a +. b
          | Gr_dsl.Ast.Sub -> a -. b
          | Gr_dsl.Ast.Mul -> a *. b
          | Gr_dsl.Ast.Div -> if b = 0. then 0. else a /. b
          | Gr_dsl.Ast.Lt -> of_bool (a < b)
          | Gr_dsl.Ast.Le -> of_bool (a <= b)
          | Gr_dsl.Ast.Gt -> of_bool (a > b)
          | Gr_dsl.Ast.Ge -> of_bool (a >= b)
          | Gr_dsl.Ast.Eq -> of_bool (a = b)
          | Gr_dsl.Ast.Ne -> of_bool (a <> b)
          | Gr_dsl.Ast.And -> of_bool (truthy a && truthy b)
          | Gr_dsl.Ast.Or -> of_bool (truthy a || truthy b)))
    p.Ir.insts;
  regs.(p.Ir.result)

(* The rule program plus every SAVE value program, labelled. Both
   compiles see the same source, so the lists zip positionally. *)
let labeled_programs (m : Monitor.t) =
  ("rule", m.Monitor.rule)
  :: List.concat_map
       (function
         | Monitor.Save { key; value } -> [ ("save:" ^ key, value) ]
         | _ -> [])
       m.Monitor.actions

(* Register every aggregate shape the monitor will ask for, exactly
   as the runtime does at install time, so the VM side exercises the
   streaming path while the reference side scans naively. *)
let register_demands store (m : Monitor.t) =
  List.iter
    (fun (_, (p : Ir.program)) ->
      Array.iter
        (function
          | Ir.Agg { fn; slot; window_ns; param; _ } ->
            Store.register_demand store ~key:m.Monitor.slots.(slot) ~fn ~window_ns ~param
          | _ -> ())
        p.Ir.insts)
    (labeled_programs m)

(* Samples are small integers, so streaming and naive sums are exact
   and boolean results cannot flip on a rounding knife-edge; the
   tolerance only absorbs the two stddev formulations (running
   sum-of-squares vs. two-pass). Occasional NaNs check that both
   interpreters propagate them identically. *)
let close a b =
  (Float.is_nan a && Float.is_nan b)
  || a = b
  || Float.abs (a -. b) <= 1e-9 +. (1e-6 *. (Float.abs a +. Float.abs b))

let fuzz_keys = [| "lat"; "rate"; "depth"; "err"; "load_avg" |]

(* How case [i] writes [fuzz_keys.(k)] into [store]: by key on even
   cases, through writers created up front on odd ones. *)
let fuzz_saver i store =
  if i mod 2 = 0 then fun k v -> Store.save store fuzz_keys.(k) v
  else
    let writers = Array.map (Store.writer store) fuzz_keys in
    fun k v -> Store.write writers.(k) v

(* Runs [exec] and pairs its result with the load/hit/miss counter
   deltas it caused, summed over [stores]. *)
let counted stores exec =
  let counters () =
    List.fold_left
      (fun (l, h, m) s ->
        (l + Store.load_count s, h + Store.agg_hit_count s, m + Store.agg_miss_count s))
      (0, 0, 0) stores
  in
  let l0, h0, m0 = counters () in
  let r : Vm.result = exec () in
  let l1, h1, m1 = counters () in
  (r, (l1 - l0, h1 - h0, m1 - m0))

(* Bit-exact agreement of two counted runs. *)
let same_run ((a : Vm.result), da) ((b : Vm.result), db) =
  let bits = Int64.bits_of_float in
  bits a.Vm.value = bits b.Vm.value
  && a.Vm.insts_executed = b.Vm.insts_executed
  && a.Vm.samples_scanned = b.Vm.samples_scanned
  && bits a.Vm.est_cost_ns = bits b.Vm.est_cost_ns
  && da = db

let describe_run ((r : Vm.result), (l, h, m)) =
  Printf.sprintf "value %h insts %d scanned %d cost %h counters %d,%d,%d" r.Vm.value
    r.Vm.insts_executed r.Vm.samples_scanned r.Vm.est_cost_ns l h m

(* Sharded arm: the case's programs on a fleet-tier store whose plain
   keys read as the merged view over 2-3 node shards, with the saves
   spread over the root and every shard. Tree and JIT must agree bit
   for bit, including JIT executors compiled before a [set_shards]:
   their handles must notice the routing change in both directions
   (unsharded -> sharded, then sharded -> unsharded). *)
let run_sharded_arm i ~src opts failures =
  let fail fmt =
    Printf.ksprintf (fun msg -> failures := Printf.sprintf "case %d: %s" i msg :: !failures) fmt
  in
  let clock = ref Time_ns.zero in
  let mk () = Store.create ~clock:(fun () -> !clock) ~capacity_per_key:1024 () in
  let root = mk () in
  let rng = Rng.create (0x5A4D + i) in
  let shards = Array.init (2 + Rng.int rng 2) (fun _ -> mk ()) in
  let members = root :: Array.to_list shards in
  let programs =
    List.concat_map
      (fun (m : Monitor.t) ->
        List.map (fun (label, p) -> (label, m.Monitor.slots, p)) (labeled_programs m))
      opts
  in
  let compile_all () =
    List.map (fun (_, slots, p) -> Jit.compile ~store:root ~slots p) programs
  in
  let compare phase stale =
    List.iter2
      (fun (label, slots, p) j_stale ->
        (* the first run settles lazy window expiry on every member *)
        ignore (Vm.run ~store:root ~slots p : Vm.result);
        let tree = counted members (fun () -> Vm.run ~store:root ~slots p) in
        List.iter
          (fun (what, j) ->
            let r = counted members (fun () -> Jit.run j) in
            if not (same_run r tree) then
              fail
                "%s (%s, JIT %s): jit diverged from tree (%s vs %s)\n\
                 repro: generator seed 0x%X, sharded arm\n\
                 %s"
                label phase what (describe_run r) (describe_run tree) (0x5EED + i) src)
          [
            ("compiled now", Jit.compile ~store:root ~slots p);
            ("compiled before set_shards", j_stale);
          ])
      programs stale
  in
  let before_sharding = compile_all () in
  Store.set_shards root shards;
  List.iter (register_demands root) opts;
  let targets = Array.of_list (List.map (fuzz_saver i) members) in
  for _ = 1 to 400 do
    clock := Time_ns.add !clock (Time_ns.us (1 + Rng.int rng 4999));
    let v = if Rng.int rng 50 = 0 then Float.nan else float_of_int (Rng.int rng 17) in
    (* key before target: the draw order the pinned cases were
       recorded with *)
    let k = Rng.int rng (Array.length fuzz_keys) in
    targets.(Rng.int rng (Array.length targets)) k v
  done;
  compare "sharded" before_sharding;
  let before_unsharding = compile_all () in
  Store.set_shards root [||];
  compare "unsharded" before_unsharding

let run_case i failures =
  let fail fmt =
    Printf.ksprintf (fun msg -> failures := Printf.sprintf "case %d: %s" i msg :: !failures) fmt
  in
  let rand = Random.State.make [| 0x5EED + i |] in
  let g = QCheck2.Gen.generate1 ~rand Gen.guardrail_gen in
  (* The verifier rejects duplicate SAVE keys; keep the first write
     per key so every generated case compiles and gets compared. *)
  let g =
    let seen = Hashtbl.create 4 in
    {
      g with
      Gr_dsl.Ast.actions =
        List.filter
          (fun (a : Gr_dsl.Ast.action Gr_dsl.Ast.located) ->
            match a.Gr_dsl.Ast.node with
            | Gr_dsl.Ast.Save { key; _ } ->
              if Hashtbl.mem seen key then false
              else (
                Hashtbl.add seen key ();
                true)
            | _ -> true)
          g.Gr_dsl.Ast.actions;
    }
  in
  let src = Gr_dsl.Pretty.spec_to_string [ g ] in
  match (Compile.source ~optimize:true src, Compile.source ~optimize:false src) with
  | Error e, _ | _, Error e ->
    fail "generated spec failed to compile: %a@\n%s" (fun () -> Format.asprintf "%a" Compile.pp_error) e src
  | Ok opts, Ok refs when List.length opts <> List.length refs ->
    fail "optimised/unoptimised monitor counts differ (%d vs %d)" (List.length opts)
      (List.length refs)
  | Ok opts, Ok refs ->
    let clock = ref Time_ns.zero in
    let store = Store.create ~clock:(fun () -> !clock) ~capacity_per_key:1024 () in
    List.iter (register_demands store) opts;
    let rng = Rng.create (0xD1FF + i) in
    let save = fuzz_saver i store in
    for _ = 1 to 400 do
      clock := Time_ns.add !clock (Time_ns.us (1 + Rng.int rng 4999));
      let v = if Rng.int rng 50 = 0 then Float.nan else float_of_int (Rng.int rng 17) in
      save (Rng.int rng (Array.length fuzz_keys)) v
    done;
    List.iter2
      (fun (om : Monitor.t) (rm : Monitor.t) ->
        List.iter2
          (fun (label, p_opt) (_, p_ref) ->
            (* The optimiser (CSE + DCE) only removes instructions. *)
            if Array.length p_opt.Ir.insts > Array.length p_ref.Ir.insts then
              fail "%s: optimised program longer than unoptimised (%d > %d)" label
                (Array.length p_opt.Ir.insts)
                (Array.length p_ref.Ir.insts);
            let vm = Vm.run ~store ~slots:om.Monitor.slots p_opt in
            let again = Vm.run ~store ~slots:om.Monitor.slots p_opt in
            if not (close vm.Vm.value again.Vm.value) then
              fail "%s: VM not idempotent at fixed clock (%h vs %h)" label vm.Vm.value
                again.Vm.value;
            (* Cross-tier: the first run above paid any lazy window
               expiry, so from here the store is at a steady state and
               both execution tiers must agree bit-for-bit — value,
               accounting AND store counter effects. *)
            let slots = om.Monitor.slots in
            let tree = counted [ store ] (fun () -> Vm.run ~store ~slots p_opt) in
            let jit = counted [ store ] (fun () -> Jit.run (Jit.compile ~store ~slots p_opt)) in
            if not (same_run jit tree) then
              fail
                "%s: jit diverged from tree (%s vs %s)\n\
                 repro: save the spec below as f.grd, then `grc run f.grd --engine jit` \
                 (generator seed 0x%X)\n\
                 %s"
                label (describe_run jit) (describe_run tree) (0x5EED + i) src;
            Store.set_force_naive store true;
            let reference = eval_ref ~store ~slots:rm.Monitor.slots p_ref in
            Store.set_force_naive store false;
            if not (close vm.Vm.value reference) then
              fail "%s: VM=%h reference=%h@\n%s" label vm.Vm.value reference src)
          (labeled_programs om) (labeled_programs rm))
      opts refs;
    run_sharded_arm i ~src opts failures

(* Property: cost accounting is tier-invariant. GRL105's budget
   enforcement reads est_cost_ns / samples_scanned; if a faster tier
   reported cheaper checks, budget verdicts would change with the
   --engine flag. *)
let accounting_tier_invariant =
  QCheck2.Test.make ~name:"cost accounting identical across tree/jit" ~count:200
    Gen.guardrail_gen (fun g ->
      let src = Gr_dsl.Pretty.spec_to_string [ g ] in
      match Compile.source src with
      | Error _ -> true
      | Ok monitors ->
        let clock = ref Time_ns.zero in
        let store = Store.create ~clock:(fun () -> !clock) ~capacity_per_key:512 () in
        List.iter (register_demands store) monitors;
        let rng = Rng.create 0xACC7 in
        for _ = 1 to 200 do
          clock := Time_ns.add !clock (Time_ns.us (1 + Rng.int rng 999));
          Store.save store
            fuzz_keys.(Rng.int rng (Array.length fuzz_keys))
            (float_of_int (Rng.int rng 13))
        done;
        List.for_all
          (fun (m : Monitor.t) ->
            List.for_all
              (fun (_, (p : Ir.program)) ->
                let slots = m.Monitor.slots in
                (* the first run settles lazy window expiry *)
                ignore (Vm.run ~store ~slots p : Vm.result);
                let tree = Vm.run ~static_cost_ns:(Vm.static_cost_ns p) ~store ~slots p in
                let jit = Jit.run (Jit.compile ~store ~slots p) in
                let same (a : Vm.result) (b : Vm.result) =
                  a.Vm.insts_executed = b.Vm.insts_executed
                  && a.Vm.samples_scanned = b.Vm.samples_scanned
                  && Int64.bits_of_float a.Vm.est_cost_ns = Int64.bits_of_float b.Vm.est_cost_ns
                in
                same tree jit)
              (labeled_programs m))
          monitors)

let test_differential () =
  let failures = ref [] in
  for i = 0 to fuzz_cases - 1 do
    run_case i failures
  done;
  match List.rev !failures with
  | [] -> ()
  | fs ->
    let shown = List.filteri (fun i _ -> i < 10) fs in
    Alcotest.failf "%d/%d differential cases diverged (first %d shown):\n%s" (List.length fs)
      fuzz_cases (List.length shown) (String.concat "\n" shown)

(* ------------------------------------------------------------------ *)
(* Fleet differential: sequential vs. parallel epoch-barrier mode.    *)
(* ------------------------------------------------------------------ *)

module Fleet = Guardrails.Fleet
module D = Guardrails.Deployment

let fleet_fuzz_cases = 30

(* Distinct prime feeder cadences (µs). Primes above 5000 cannot land
   on the ms-grained epoch boundaries or monitor timers inside a
   sub-2s horizon, and two distinct primes first coincide at their
   product (>= 25 simulated seconds), so cross-node event order is
   unambiguous and seq/par equality is exact rather than modulo
   tie-breaking (docs/PARALLEL.md explains why ties are the only
   wiggle room the protocol leaves). *)
let fleet_primes =
  [| 5003; 6007; 7919; 8009; 9973; 12007; 15013; 23003; 31013; 41999; 104729; 149993 |]

let run_fleet_case i failures violations_seen =
  let fail fmt =
    Printf.ksprintf
      (fun msg -> failures := Printf.sprintf "fleet case %d: %s" i msg :: !failures)
      fmt
  in
  let rng = Rng.create (0xF1EE7 + i) in
  let nodes = 2 + Rng.int rng 5 in
  let seed = 101 + Rng.int rng 10_000 in
  (* Epoch-compatible workload (docs/PARALLEL.md): control-side TIMER
     periods and the horizon are multiples of the epoch, so every
     control tick lands on a barrier where both modes have dispatched
     exactly the same node events. A tick strictly inside an epoch
     would read the shards' streaming aggregate state as of the
     enclosing boundary — deterministic, but ahead of the sequential
     interleaving by up to one epoch. *)
  let epoch_ms = 10 * (2 + Rng.int rng 9) in
  let epoch = Time_ns.ms epoch_ms in
  let limit = Time_ns.ms (epoch_ms * (8 + Rng.int rng 8)) in
  let beacon_stride = 1 + Rng.int rng 3 in
  (* Random permutation of the cadence table: node n feeds "lat" on
     perm[n], beacon publishers tick on perm[nodes + n]. *)
  let perm = Array.init (Array.length fleet_primes) (fun j -> j) in
  for j = Array.length perm - 1 downto 1 do
    let k = Rng.int rng (j + 1) in
    let tmp = perm.(j) in
    perm.(j) <- perm.(k);
    perm.(k) <- tmp
  done;
  let source =
    Printf.sprintf
      {|guardrail fz_lat { trigger: { TIMER(0, %dms) } rule: { AVG(lat, 1s) <= %d } action: { REPORT("lat high", lat) } }
        guardrail fz_beacon { trigger: { ON_CHANGE(GLOBAL(beacon)) } rule: { COUNT(GLOBAL(beacon), 1s) <= %d } action: { REPORT("beacon burst", GLOBAL(beacon)) } }
        guardrail fz_act { trigger: { TIMER(0, %dms) } rule: { QUANTILE(lat, 0.9, 1s) <= %d } action: { REPORT("tail", lat) REPLACE("dummy_policy") } }|}
      (epoch_ms * (1 + Rng.int rng 3))
      (30 + (10 * Rng.int rng 7))
      (Rng.int rng 6)
      (epoch_ms * (1 + Rng.int rng 5))
      (40 + (10 * Rng.int rng 8))
  in
  let build domains =
    let fleet = Fleet.create ~nodes ~seed ~tracing:true ~domains ~epoch () in
    Array.iteri
      (fun n node ->
        let krng = (D.kernel node).Gr_kernel.Kernel.rng in
        D.derive_periodic node ~key:"lat"
          ~every:(Time_ns.us fleet_primes.(perm.(n)))
          (fun () -> Rng.float krng 100.);
        if n mod beacon_stride = 0 then
          D.derive_periodic node
            ~key:(Gr_dsl.Ast.global_key "beacon")
            ~every:(Time_ns.us fleet_primes.(perm.(nodes + n)))
            (fun () -> Rng.float krng 10.);
        Gr_kernel.Policy_slot.Registry.register
          (D.kernel node).Gr_kernel.Kernel.registry "dummy_policy"
          { replace = (fun () -> ()); restore = (fun () -> ()); retrain = (fun () -> ()) })
      (Fleet.nodes fleet);
    ignore (Fleet.install_source_exn fleet source : Gr_runtime.Engine.handle list);
    Fleet.run_until fleet limit;
    fleet
  in
  let seq = build 1 and par = build 4 in
  if Fleet.domains seq <> 1 then fail "seq side not sequential";
  if Fleet.domains par < 2 then fail "par side did not engage domains";
  let vs, acts_s, aggs_s, gs = Test_par.observables seq in
  let vp, acts_p, aggs_p, gp = Test_par.observables par in
  violations_seen := !violations_seen + List.length vs;
  if List.length vs <> List.length vp then
    fail "violation counts diverged (seq %d vs par %d)" (List.length vs) (List.length vp)
  else
    List.iter2 (fun a b -> if a <> b then fail "violation record diverged: %s vs %s" a b) vs vp;
  if acts_s <> acts_p then fail "fleet action counters diverged";
  if aggs_s <> aggs_p then fail "merged aggregates diverged";
  if not (gs = gp || (Float.is_nan gs && Float.is_nan gp)) then
    fail "global-tier beacon value diverged (%h vs %h)" gs gp;
  List.iter2
    (fun ts tp ->
      let es = Test_par.normalized_events ts and ep = Test_par.normalized_events tp in
      if es <> ep then
        fail "trace channel diverged (%d vs %d observable events)" (List.length es)
          (List.length ep))
    (Test_par.channels seq) (Test_par.channels par)

let test_fleet_differential () =
  let failures = ref [] in
  let violations_seen = ref 0 in
  for i = 0 to fleet_fuzz_cases - 1 do
    run_fleet_case i failures violations_seen
  done;
  if !violations_seen = 0 then
    Alcotest.fail "fleet differential never produced a violation — thresholds too lax to test anything";
  match List.rev !failures with
  | [] -> ()
  | fs ->
    let shown = List.filteri (fun i _ -> i < 10) fs in
    Alcotest.failf "%d/%d fleet differential cases diverged (first %d shown):\n%s"
      (List.length fs) fleet_fuzz_cases (List.length shown) (String.concat "\n" shown)

(* Pin the property tests' seed too: CI replays the same inputs. *)
let pinned t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5EED |]) t

let suite =
  [
    ( "fuzz",
      [
        pinned parser_total_on_garbage;
        pinned parser_total_on_token_soup;
        pinned compile_total_on_token_soup;
        pinned compiled_monitors_always_verify;
        pinned accounting_tier_invariant;
        Alcotest.test_case
          "differential: tree/jit/reference 3-way plus sharded arm, 500 pinned seeds" `Quick
          test_differential;
        Alcotest.test_case
          "differential: fleet sequential vs parallel epoch-barrier, 30 pinned seeds" `Quick
          test_fleet_differential;
      ] );
  ]
