(* The client side of spec serving: a push every [push_every]
   barriers, each one timed as the admission decision a client waits
   for, with the decision recorded for validation. Pushes stop early
   enough that the last rollout finishes inside the run. *)

module L = Guardrails.Lifecycle

let push_every = 4

(* A rollout needs two barriers after its push (canary install, then
   the verdict), with canary_barriers = 1. *)
let config = { L.default_config with canary_barriers = 1 }

type t = {
  lc : L.t;
  fleet : bool;
  last_push_barrier : int;
  mutable barriers : int;
  mutable pushes : int;
  mutable rejects : int;
  push_ms : Probe.Floats.t;
  decisions : Buffer.t;
}

let create ~fleet ~total_barriers lc =
  {
    lc;
    fleet;
    last_push_barrier = total_barriers - 3;
    barriers = 0;
    pushes = 0;
    rejects = 0;
    push_ms = Probe.Floats.create ();
    decisions = Buffer.create 4096;
  }

let boot t ~source =
  match L.boot t.lc ~who:"perfbench" source with
  | Ok _ -> ()
  | Error e -> Fmt.failwith "boot: %a" Guardrails.Deployment.pp_error e

(* Called once per barrier, after the lifecycle's own decision. *)
let after_barrier t =
  t.barriers <- t.barriers + 1;
  if t.barriers mod push_every = 0 && t.barriers <= t.last_push_barrier then begin
    let kind, source = Specs.push_source ~fleet:t.fleet t.pushes in
    let t0 = Probe.now_ns () in
    let decision = L.push t.lc ~who:"perfbench" source in
    Probe.Floats.push t.push_ms (Probe.ms_of_ns (Probe.now_ns () - t0));
    t.pushes <- t.pushes + 1;
    let outcome =
      match decision with
      | L.Admitted { version } -> Printf.sprintf "admitted v%d" version
      | L.Rejected { version; diagnostics; _ } ->
        t.rejects <- t.rejects + 1;
        Printf.sprintf "rejected v%d %s" version
          (String.concat "," (List.map (fun d -> d.Gr_analysis.Diagnostic.code) diagnostics))
    in
    Printf.bprintf t.decisions "%s %s\n" (Specs.push_kind_name kind) outcome
  end

let decisions t =
  String.split_on_char '\n' (Buffer.contents t.decisions) |> List.filter (( <> ) "")

(* Host cost of the admission pipeline's two stages on the sources
   this run pushed, timed outside the run: compile alone, and the full
   audit (compile + lint + model checking) the lifecycle performs. *)
let admission_ms ~fleet =
  let reps = 5 in
  let kinds = Array.length Specs.push_kinds in
  let time f =
    let t0 = Probe.now_ns () in
    for _ = 1 to reps do
      f ()
    done;
    Probe.ms_of_ns (Probe.now_ns () - t0) /. float_of_int reps
  in
  let compile = ref 0. and audit = ref 0. in
  for n = 0 to kinds - 1 do
    let _, source = Specs.push_source ~fleet n in
    compile :=
      !compile
      +. time (fun () ->
             ignore (Guardrails.Compile.source source : _ result));
    audit :=
      !audit
      +. time (fun () ->
             ignore
               (Guardrails.Audit.admit ~config:config.L.admission source
                 : Guardrails.Audit.admission))
  done;
  (!compile /. float_of_int kinds, !audit /. float_of_int kinds)
