(* One benchmark pass: build a workload from its seed, run it, and
   print one JSON object (outputs, raw end-to-end samples and, when
   traced, the per-layer profile) on stdout. perfbench/run.py runs
   passes, validates their outputs and aggregates the metrics.

   Usage: perfbench.exe WORKLOAD SEED TRACED
     WORKLOAD  ingest | check | fleet-serve
     SEED      non-negative integer
     TRACED    0 | 1 *)

let () =
  match Array.to_list Sys.argv with
  | [ _; workload; seed; traced ] -> (
    let seed = int_of_string seed and traced = traced = "1" in
    let p =
      match workload with
      | "ingest" -> Some (Single.pass ~workload:Single.Ingest ~seed ~traced)
      | "check" -> Some (Single.pass ~workload:Single.Check ~seed ~traced)
      | "fleet-serve" -> Some (Fleet_serve.pass ~seed ~traced)
      | _ -> None
    in
    match p with
    | Some p ->
      print_endline (Guardrails.Json.to_string (Report.to_json ~workload ~seed ~traced p))
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ workload);
      exit 2)
  | _ ->
    prerr_endline "usage: perfbench.exe WORKLOAD SEED TRACED";
    exit 2
