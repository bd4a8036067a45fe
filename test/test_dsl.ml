(* Tests for gr_dsl: lexer, parser, typechecker, pretty-printer. *)

open Gr_dsl

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let parse_ok src =
  match Parser.parse src with
  | Ok spec -> spec
  | Error (pos, msg) -> Alcotest.failf "parse error at %d:%d: %s" pos.line pos.col msg

let parse_err src =
  match Parser.parse src with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error (_, msg) -> msg

let parse_expr_ok src =
  match Parser.parse_expr src with
  | Ok e -> e
  | Error (pos, msg) -> Alcotest.failf "parse error at %d:%d: %s" pos.line pos.col msg

(* ---------- Lexer ---------- *)

let test_duration_literals () =
  let num src =
    match Lexer.tokenize src with
    | (Lexer.NUMBER f, _) :: _ -> f
    | _ -> Alcotest.fail "expected a number token"
  in
  check_float "ns" 5. (num "5ns");
  check_float "us" 7e3 (num "7us");
  check_float "ms" 1.5e6 (num "1.5ms");
  check_float "s" 2e9 (num "2s");
  check_float "plain exponent" 1e9 (num "1e9");
  check_float "negative exponent" 0.05 (num "5e-2")

let test_comments_skipped () =
  let toks = Lexer.tokenize "1 // line comment\n /* block \n comment */ 2" in
  check_int "two numbers plus eof" 3 (List.length toks)

let test_lexer_errors () =
  let fails src =
    match Lexer.tokenize src with
    | exception Lexer.Error _ -> true
    | _ -> false
  in
  check_bool "bad char" true (fails "#");
  check_bool "single &" true (fails "a & b");
  check_bool "single =" true (fails "a = b");
  check_bool "unterminated string" true (fails {|"abc|});
  check_bool "unterminated comment" true (fails "/* abc");
  check_bool "unknown suffix" true (fails "5parsecs")

let test_string_escapes () =
  match Lexer.tokenize {|"a\"b\nc"|} with
  | (Lexer.STRING s, _) :: _ -> Alcotest.(check string) "escapes" "a\"b\nc" s
  | _ -> Alcotest.fail "expected string token"

(* ---------- Parser ---------- *)

let listing2 =
  {|
guardrail low-false-submit {
  trigger: {
    TIMER(start_time, 1e9) // Periodically check every 1s.
  },
  rule: {
    LOAD(false_submit_rate) <= 0.05
  },
  action: {
    SAVE(ml_enabled, false)
  }
}
|}

let test_parses_listing2 () =
  match parse_ok listing2 with
  | [ g ] ->
    Alcotest.(check string) "hyphenated name" "low-false-submit" g.Ast.name;
    check_int "one trigger" 1 (List.length g.triggers);
    check_int "one rule" 1 (List.length g.rules);
    check_int "one action" 1 (List.length g.actions);
    (match (List.hd g.triggers).node with
    | Ast.Timer { start; interval; stop } ->
      check_bool "start folds to 0" true (Typecheck.const_value start = Some 0.);
      check_bool "interval is 1s" true (Typecheck.const_value interval = Some 1e9);
      check_bool "no stop" true (stop = None)
    | _ -> Alcotest.fail "expected TIMER")
  | gs -> Alcotest.failf "expected one guardrail, got %d" (List.length gs)

let test_precedence () =
  let e = parse_expr_ok "LOAD(a) + 2 * 3 <= 10 && true" in
  (* Must parse as ((a + (2*3)) <= 10) && true *)
  match e.node with
  | Ast.Binop (Ast.And, lhs, _) -> (
    match lhs.node with
    | Ast.Binop (Ast.Le, sum, _) -> (
      match sum.node with
      | Ast.Binop (Ast.Add, _, product) -> (
        match product.node with
        | Ast.Binop (Ast.Mul, _, _) -> ()
        | _ -> Alcotest.fail "expected * under +")
      | _ -> Alcotest.fail "expected + under <=")
    | _ -> Alcotest.fail "expected <= under &&")
  | _ -> Alcotest.fail "expected && at top"

let test_unary_and_abs () =
  let e = parse_expr_ok "ABS(-LOAD(x)) > 1" in
  match e.node with
  | Ast.Binop (Ast.Gt, { node = Ast.Unop (Ast.Abs, { node = Ast.Unop (Ast.Neg, _); _ }); _ }, _)
    -> ()
  | _ -> Alcotest.fail "expected ABS(Neg(Load))"

let test_quantile_arity () =
  let e = parse_expr_ok "QUANTILE(lat, 0.99, 10s) < 500" in
  (match e.node with
  | Ast.Binop (_, { node = Ast.Agg { fn = Ast.Quantile; param = Some _; _ }; _ }, _) -> ()
  | _ -> Alcotest.fail "expected quantile with param");
  check_bool "AVG with three args rejected" true
    (Result.is_error (Parser.parse_expr "AVG(lat, 0.5, 10s) < 1"))

let test_multiple_sections_merge () =
  let src =
    {|
guardrail multi {
  trigger: { TIMER(0, 1s) }
  trigger: { FUNCTION("hook:x") }
  rule: { LOAD(a) < 1, LOAD(b) < 2 }
  action: { REPORT("r") ; REPLACE("p") }
}
|}
  in
  match parse_ok src with
  | [ g ] ->
    check_int "two triggers" 2 (List.length g.triggers);
    check_int "two rules" 2 (List.length g.rules);
    check_int "two actions" 2 (List.length g.actions)
  | _ -> Alcotest.fail "one guardrail expected"

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let test_missing_sections_rejected () =
  let msg = parse_err "guardrail g { rule: { true } action: { REPORT(\"m\") } }" in
  check_bool "mentions the missing trigger section" true (contains ~needle:"trigger" msg)

let test_parse_errors_have_positions () =
  match Parser.parse "guardrail g {\n  bogus: { }\n}" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error (pos, _) -> check_int "line 2" 2 pos.line

let test_numeric_name_fragments () =
  let src =
    {|guardrail retry-guard-2 { trigger: { TIMER(0, 1s) } rule: { true } action: { REPORT("m") } }|}
  in
  match parse_ok src with
  | [ g ] -> Alcotest.(check string) "versioned name" "retry-guard-2" g.Ast.name
  | _ -> Alcotest.fail "one guardrail expected"

let test_all_actions_parse () =
  let src =
    {|
guardrail actions {
  trigger: { ON_CHANGE(k) }
  rule: { LOAD(k) < 5 }
  action: {
    REPORT("msg", k, j)
    REPLACE("p")
    RESTORE("p")
    RETRAIN("p")
    DEPRIORITIZE("batch", 64)
    KILL("batch")
    SAVE(out, LOAD(k) * 2)
  }
}
|}
  in
  match parse_ok src with
  | [ g ] -> check_int "seven actions" 7 (List.length g.actions)
  | _ -> Alcotest.fail "one guardrail expected"

(* ---------- Typecheck ---------- *)

let check_spec_err src =
  match Typecheck.check_spec (parse_ok src) with
  | Ok () -> Alcotest.fail "expected type errors"
  | Error errs -> errs

let wrap rule = Printf.sprintf
  {|guardrail g { trigger: { TIMER(0, 1s) } rule: { %s } action: { REPORT("m") } }|} rule

let test_rule_must_be_bool () =
  let errs = check_spec_err (wrap "LOAD(a) + 1") in
  check_bool "flagged" true (List.length errs >= 1)

let test_type_mismatches () =
  check_bool "num && bool" true (List.length (check_spec_err (wrap "LOAD(a) && true")) >= 1);
  check_bool "bool + num" true (List.length (check_spec_err (wrap "(true + 1) < 2")) >= 1);
  check_bool "eq across types" true (List.length (check_spec_err (wrap "LOAD(a) == true")) >= 1);
  check_bool "not of num" true (List.length (check_spec_err (wrap "!LOAD(a)")) >= 1)

let test_timer_constraints () =
  let bad interval =
    Printf.sprintf
      {|guardrail g { trigger: { TIMER(0, %s) } rule: { true } action: { REPORT("m") } }|}
      interval
  in
  check_bool "zero interval" true (List.length (check_spec_err (bad "0")) >= 1);
  check_bool "non-constant interval" true (List.length (check_spec_err (bad "LOAD(x)")) >= 1);
  (match Typecheck.check_spec (parse_ok (bad "2 * 500ms")) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "folded constant interval must typecheck");
  let stop_before_start =
    {|guardrail g { trigger: { TIMER(5s, 1s, 2s) } rule: { true } action: { REPORT("m") } }|}
  in
  check_bool "stop before start" true (List.length (check_spec_err stop_before_start) >= 1)

let test_quantile_range_checked () =
  check_bool "q out of range" true
    (List.length (check_spec_err (wrap "QUANTILE(lat, 1.5, 1s) < 10")) >= 1);
  check_bool "window must be positive" true
    (List.length (check_spec_err (wrap "AVG(lat, 0 - 5) < 10")) >= 1)

let test_duplicate_names_rejected () =
  let src = wrap "true" ^ "\n" ^ wrap "true" in
  check_bool "duplicate guardrail name" true (List.length (check_spec_err src) >= 1)

let test_save_bool_ok () =
  let src =
    {|guardrail g { trigger: { TIMER(0, 1s) } rule: { true } action: { SAVE(k, false) } }|}
  in
  match Typecheck.check_spec (parse_ok src) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "SAVE of a boolean must typecheck"

let test_delta_builtin () =
  let e = parse_expr_ok "DELTA(lat, 5s) <= 200" in
  (match e.node with
  | Ast.Binop (Ast.Le, { node = Ast.Agg { fn = Ast.Delta; param = None; _ }; _ }, _) -> ()
  | _ -> Alcotest.fail "expected DELTA aggregation");
  (* DELTA takes no quantile parameter. *)
  check_bool "DELTA with three args rejected" true
    (Result.is_error (Parser.parse_expr "DELTA(lat, 0.5, 10s) < 1"))

let test_duration_suffix_in_windows () =
  List.iter
    (fun (src, expected_ns) ->
      match (parse_expr_ok src).node with
      | Ast.Binop (_, { node = Ast.Agg { window; _ }; _ }, _) ->
        check_bool src true (Typecheck.const_value window = Some expected_ns)
      | _ -> Alcotest.fail "expected aggregation")
    [
      ("AVG(x, 250ns) < 1", 250.);
      ("AVG(x, 250us) < 1", 250e3);
      ("AVG(x, 250ms) < 1", 250e6);
      ("AVG(x, 2s) < 1", 2e9);
      ("AVG(x, 2 * 500ms) < 1", 1e9);
    ]

let test_string_keys_for_hooks () =
  (* Keys with characters outside the identifier syntax are written
     as strings. *)
  let src =
    {|guardrail g { trigger: { FUNCTION("blk:io_complete") } rule: { LOAD("weird:key") < 1 } action: { SAVE("other:key", 1) } }|}
  in
  match parse_ok src with
  | [ g ] -> (
    match ((List.hd g.rules).node, (List.hd g.actions).node) with
    | Ast.Binop (_, { node = Ast.Load "weird:key"; _ }, _), Ast.Save { key = "other:key"; _ } -> ()
    | _ -> Alcotest.fail "string keys not preserved")
  | _ -> Alcotest.fail "one guardrail expected"

(* ---------- const_fold ---------- *)

let fold_to_value src =
  Typecheck.const_value (parse_expr_ok src)

let test_const_fold_arithmetic () =
  check_bool "3*4+2" true (fold_to_value "3 * 4 + 2" = Some 14.);
  check_bool "neg" true (fold_to_value "-(2 + 3)" = Some (-5.));
  check_bool "abs" true (fold_to_value "ABS(2 - 10)" = Some 8.);
  check_bool "div" true (fold_to_value "10 / 4" = Some 2.5)

let test_const_fold_identities () =
  let folded src = Typecheck.const_fold (parse_expr_ok src) in
  (match (folded "LOAD(a) * 1").node with
  | Ast.Load "a" -> ()
  | _ -> Alcotest.fail "x*1 should fold to x");
  (match (folded "0 + LOAD(a)").node with
  | Ast.Load "a" -> ()
  | _ -> Alcotest.fail "0+x should fold to x");
  (match (folded "true && LOAD(a) < 1").node with
  | Ast.Binop (Ast.Lt, _, _) -> ()
  | _ -> Alcotest.fail "true && e should fold to e");
  (match (folded "false && LOAD(a) < 1").node with
  | Ast.Bool false -> ()
  | _ -> Alcotest.fail "false && e should fold to false");
  match (folded "!!(LOAD(a) < 1)").node with
  | Ast.Binop (Ast.Lt, _, _) -> ()
  | _ -> Alcotest.fail "double negation should cancel"

let test_const_fold_keeps_div_by_zero () =
  match (Typecheck.const_fold (parse_expr_ok "1 / 0")).node with
  | Ast.Binop (Ast.Div, _, _) -> ()
  | _ -> Alcotest.fail "x/0 must not fold"

(* ---------- Pretty / round-trip ---------- *)

let test_listing2_roundtrip () =
  let spec = parse_ok listing2 in
  let printed = Pretty.spec_to_string spec in
  let spec2 = parse_ok printed in
  Alcotest.(check string) "pretty is a fixpoint" printed (Pretty.spec_to_string spec2)

let roundtrip_property =
  QCheck2.Test.make ~name:"print/parse round-trip preserves expression structure" ~count:500
    Gen.expr_gen
    (fun e ->
      let printed = Pretty.expr_to_string e in
      match Parser.parse_expr printed with
      | Error _ -> false
      | Ok e2 -> Gen.strip e2 = Gen.strip e)

let guardrail_roundtrip_property =
  QCheck2.Test.make ~name:"print/parse round-trip preserves guardrails" ~count:200
    Gen.guardrail_gen
    (fun g ->
      let printed = Pretty.spec_to_string [ g ] in
      match Parser.parse printed with
      | Error _ -> false
      | Ok [ g2 ] -> Gen.strip_guardrail g2 = Gen.strip_guardrail g
      | Ok _ -> false)

let global_guardrail_roundtrip_property =
  QCheck2.Test.make ~name:"print/parse round-trip preserves all-GLOBAL guardrails" ~count:200
    QCheck2.Gen.(map Gen.globalize_guardrail Gen.guardrail_gen)
    (fun g ->
      let printed = Pretty.spec_to_string [ g ] in
      match Parser.parse printed with
      | Error _ -> false
      | Ok [ g2 ] -> Gen.strip_guardrail g2 = Gen.strip_guardrail g
      | Ok _ -> false)

(* [is_global_key] compares the prefix in place; it must agree with
   the allocating definition it replaced on strings built around the
   prefix: empty, the exact prefix, one character short of it, the
   prefix with a suffix, one character changed, and the prefix
   embedded later in the string. *)
let global_key_reference key =
  let n = String.length Ast.global_prefix in
  String.length key >= n && String.sub key 0 n = Ast.global_prefix

let is_global_key_property =
  let open QCheck2.Gen in
  let p = Ast.global_prefix in
  let n = String.length p in
  let piece = string_size ~gen:(oneofl [ 'g'; 'l'; ':'; 'x'; 'o' ]) (int_range 0 4) in
  let key =
    oneof
      [
        pure "";
        pure p;
        map (fun k -> String.sub p 0 k) (int_range 0 (n - 1));
        map (fun s -> p ^ s) piece;
        map2 (fun s k -> String.sub p 0 k ^ s) piece (int_range 0 n);
        map2
          (fun i c -> String.mapi (fun j x -> if j = i then c else x) p)
          (int_range 0 (n - 1)) printable;
        map2 (fun a b -> a ^ p ^ b) (string_size ~gen:printable (int_range 1 4)) piece;
      ]
  in
  QCheck2.Test.make ~name:"is_global_key agrees with the String.sub definition" ~count:500
    ~print:(Printf.sprintf "%S") key (fun k -> Ast.is_global_key k = global_key_reference k)

let test_global_key_syntax () =
  let spec =
    parse_ok
      {|guardrail g {
          trigger: { ON_CHANGE(GLOBAL(pressure)) },
          rule: { LOAD(GLOBAL(pressure)) <= AVG(lat, 1s) },
          action: { SAVE(GLOBAL(alarm), 1) REPORT("over", GLOBAL(pressure), lat) }
        }|}
  in
  let g = List.hd spec in
  (match (List.hd g.Ast.triggers).Ast.node with
  | Ast.On_change k ->
    Alcotest.(check bool) "trigger key is global" true (Ast.is_global_key k);
    Alcotest.(check string) "local name survives" "pressure" (Ast.local_name k)
  | _ -> Alcotest.fail "expected ON_CHANGE trigger");
  let printed = Pretty.spec_to_string spec in
  Alcotest.(check bool)
    "pretty restores GLOBAL(...) surface syntax" true
    (let contains s sub =
       let n = String.length sub in
       let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
       go 0
     in
     contains printed "GLOBAL(pressure)" && contains printed "GLOBAL(alarm)");
  Alcotest.(check string) "round-trips" printed
    (Pretty.spec_to_string (parse_ok printed))

let folding_preserves_types =
  QCheck2.Test.make ~name:"const_fold preserves well-typedness" ~count:300 Gen.expr_gen
    (fun e ->
      match Typecheck.infer_expr e with
      | Error _ -> QCheck2.assume_fail ()
      | Ok ty -> Typecheck.infer_expr (Typecheck.const_fold e) = Ok ty)

let suite =
  [
    ( "dsl.lexer",
      [
        Alcotest.test_case "duration literals" `Quick test_duration_literals;
        Alcotest.test_case "comments" `Quick test_comments_skipped;
        Alcotest.test_case "errors" `Quick test_lexer_errors;
        Alcotest.test_case "string escapes" `Quick test_string_escapes;
      ] );
    ( "dsl.parser",
      [
        Alcotest.test_case "parses Listing 2" `Quick test_parses_listing2;
        Alcotest.test_case "precedence" `Quick test_precedence;
        Alcotest.test_case "unary and ABS" `Quick test_unary_and_abs;
        Alcotest.test_case "quantile arity" `Quick test_quantile_arity;
        Alcotest.test_case "repeated sections merge" `Quick test_multiple_sections_merge;
        Alcotest.test_case "missing sections rejected" `Quick test_missing_sections_rejected;
        Alcotest.test_case "errors carry positions" `Quick test_parse_errors_have_positions;
        Alcotest.test_case "all actions parse" `Quick test_all_actions_parse;
        Alcotest.test_case "DELTA builtin" `Quick test_delta_builtin;
        Alcotest.test_case "numeric name fragments" `Quick test_numeric_name_fragments;
        Alcotest.test_case "duration suffixes in windows" `Quick test_duration_suffix_in_windows;
        Alcotest.test_case "string keys" `Quick test_string_keys_for_hooks;
      ] );
    ( "dsl.typecheck",
      [
        Alcotest.test_case "rule must be bool" `Quick test_rule_must_be_bool;
        Alcotest.test_case "type mismatches" `Quick test_type_mismatches;
        Alcotest.test_case "timer constraints" `Quick test_timer_constraints;
        Alcotest.test_case "quantile/window ranges" `Quick test_quantile_range_checked;
        Alcotest.test_case "duplicate names" `Quick test_duplicate_names_rejected;
        Alcotest.test_case "SAVE of bool" `Quick test_save_bool_ok;
      ] );
    ( "dsl.fold",
      [
        Alcotest.test_case "arithmetic" `Quick test_const_fold_arithmetic;
        Alcotest.test_case "identities" `Quick test_const_fold_identities;
        Alcotest.test_case "division by zero preserved" `Quick test_const_fold_keeps_div_by_zero;
        QCheck_alcotest.to_alcotest folding_preserves_types;
      ] );
    ( "dsl.pretty",
      [
        Alcotest.test_case "Listing 2 round-trip" `Quick test_listing2_roundtrip;
        Alcotest.test_case "GLOBAL key syntax" `Quick test_global_key_syntax;
        QCheck_alcotest.to_alcotest roundtrip_property;
        QCheck_alcotest.to_alcotest guardrail_roundtrip_property;
        QCheck_alcotest.to_alcotest global_guardrail_roundtrip_property;
        QCheck_alcotest.to_alcotest is_global_key_property;
      ] );
  ]
