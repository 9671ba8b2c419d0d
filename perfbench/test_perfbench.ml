(* The benchmark's own tests: seeded inputs are reproducible, the metric
   tables match BENCHMARK.json and run.py's constants match the
   library's, the correctness gate catches a tampered answer, and the
   traced replay answers as the program does. *)

open Perfbench
module P = Bg_serve.Protocol
module J = Obs_tools.Jsonl

(* The warm-up and the first [n] timed requests (all of a finite trace). *)
let take ?(n = max_int) (t : Workload.trace) =
  let rec go k acc =
    if k = n then List.rev acc
    else match t.next () with Some i -> go (k + 1) (i :: acc) | None -> List.rev acc
  in
  t.warmup @ go 0 []

let lines items = List.map (fun (i : Workload.item) -> P.request_to_string i.req) items

let with_dir f =
  let dir = Filename.temp_dir "perfbench_test" "" in
  Fun.protect ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir))) (fun () -> f dir)

let files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f -> (f, In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))

let test_hot_reproducible () =
  let a = lines (take ~n:300 (Workload.serve_hot ~seed:7)) in
  let b = lines (take ~n:300 (Workload.serve_hot ~seed:7)) in
  let c = lines (take ~n:300 (Workload.serve_hot ~seed:8)) in
  Alcotest.(check (list string)) "same seed, same request lines" a b;
  Alcotest.(check bool) "another seed, other request lines" false (a = c)

let test_cold_reproducible () =
  let run seed =
    with_dir (fun dir ->
        let t = Workload.serve_cold_files ~seed ~requests:9 ~dir in
        (* The file specs carry the directory; compare the rest. *)
        let strip (i : Workload.item) =
          match i.req.P.space with
          | Some (P.File path) ->
              { i with req = { i.req with P.space = Some (P.File (Filename.basename path)) } }
          | _ -> i
        in
        (lines (List.map strip (take t)), files dir))
  in
  let a_lines, a_files = run 7 and b_lines, b_files = run 7 and c_lines, c_files = run 8 in
  Alcotest.(check int) "one file per 3 requests plus warm-up" (3 + Workload.cold_warmup) (List.length a_files);
  Alcotest.(check (list string)) "same seed, same request lines" a_lines b_lines;
  Alcotest.(check bool) "same seed, same file bytes" true (a_files = b_files);
  Alcotest.(check bool) "another seed, other request lines" false (a_lines = c_lines);
  Alcotest.(check bool) "another seed, other file bytes" false
    (List.map snd a_files = List.map snd c_files)

let test_cold_keys_unique () =
  with_dir (fun dir ->
      let t = Workload.serve_cold_files ~seed:3 ~requests:30 ~dir in
      let keys = List.map (fun (i : Workload.item) -> i.key) (take t) in
      Alcotest.(check int) "no (space, op) key repeats" (List.length keys)
        (List.length (List.sort_uniq compare keys)))

(* ------------------------------------------------------- metric names *)

let benchmark_table key =
  match J.parse (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) with
  | J.Obj fields -> (
      match List.assoc key fields with
      | J.Arr ms ->
          List.map
            (function
              | J.Obj m -> (
                  match (List.assoc "name" m, List.assoc "unit" m) with
                  | J.Str n, J.Str u -> (n, u)
                  | _ -> Alcotest.fail "name/unit must be strings")
              | _ -> Alcotest.fail "metric must be an object")
            ms
      | _ -> Alcotest.fail (key ^ " must be a list"))
  | _ -> Alcotest.fail "BENCHMARK.json must be an object"

let name_unit = Alcotest.(pair string string)

let test_names_match () =
  Alcotest.(check (list name_unit)) "end_to_end" (benchmark_table "end_to_end") Report.end_to_end;
  Alcotest.(check (list name_unit)) "per_layer" (benchmark_table "per_layer") Report.per_layer

let test_result_line () =
  let values = List.mapi (fun i (n, _) -> (n, float_of_int (i + 1) /. 3.)) Report.end_to_end in
  let line = Report.result_json ~table:Report.end_to_end ~attempted:5 ~failed:0 values in
  (match J.parse line with
  | J.Obj [ ("correct", J.Bool true); ("attempted", J.Num 5.); ("failed", J.Num 0.); ("metrics", J.Obj ms) ]
    ->
      Alcotest.(check (list string)) "printed names" (List.map fst Report.end_to_end) (List.map fst ms)
  | _ -> Alcotest.fail ("unexpected result line: " ^ line));
  Alcotest.check_raises "a missing metric is refused"
    (Invalid_argument "Report.result_json: metric names differ from the table") (fun () ->
      ignore (Report.result_json ~table:Report.end_to_end ~attempted:1 ~failed:0 (List.tl values)))

(* run.py computes experiment-suite's metrics itself; its fast rank and
   yardstick reference must be the ones the serve workloads use. *)
let test_run_py_constants () =
  let lines = In_channel.with_open_bin "run.py" In_channel.input_lines in
  let constant name =
    match List.find_map (fun l -> Scanf.sscanf_opt l (name ^^ " = %f%!") Fun.id) lines with
    | Some v -> v
    | None -> Alcotest.fail ("run.py sets no " ^ string_of_format name)
  in
  Alcotest.(check (float 0.)) "FAST_RANK" Report.fast_rank (constant "FAST_RANK");
  Alcotest.(check (float 0.)) "YARDSTICK_REFERENCE_S" Yardstick.reference_s
    (constant "YARDSTICK_REFERENCE_S")

(* ----------------------------------------------------- correctness gate *)

let flip_last_bit f = Int64.float_of_bits (Int64.logxor (Int64.bits_of_float f) 1L)

(* Change one float of a result by one ulp. *)
let rec tamper = function
  | J.Num f -> Some (J.Num (flip_last_bit f))
  | J.Obj ((k, v) :: rest) -> (
      match tamper v with
      | Some v' -> Some (J.Obj ((k, v') :: rest))
      | None -> Option.map (function J.Obj r -> J.Obj ((k, v) :: r) | x -> x) (tamper (J.Obj rest)))
  | _ -> None

let test_gate () =
  let engine = Gate.reference_engine () in
  let answers =
    take ~n:40 { (Workload.serve_hot ~seed:11) with warmup = [] }
    |> List.map (fun (i : Workload.item) ->
           match Gate.recompute engine i.req with
           | Some r -> (i, r)
           | None -> Alcotest.fail "reference engine did not answer")
  in
  Alcotest.(check int) "true answers pass" 0 (Gate.mismatches answers);
  let tampered =
    List.mapi
      (fun k (i, r) -> if k = 17 then (i, Option.get (tamper r)) else (i, r))
      answers
  in
  Alcotest.(check int) "one tampered answer fails" 1 (Gate.mismatches tampered);
  Alcotest.(check bool) "one ulp is a mismatch" false
    (Gate.same_bits (J.Num 1.) (J.Num (flip_last_bit 1.)))

(* The traced replay runs the benchmark's copy of the daemon's pipeline;
   its answers must be the reference engine's, bit for bit. *)
let test_replay_matches () =
  with_dir (fun dir ->
      let engine = Gate.reference_engine () in
      let check name items =
        let cache = Filename.concat dir (name ^ ".jsonl") in
        let r = Layers.replay ~traced:true ~window:4 ~cache ~warmup:[] items in
        List.iter
          (fun (i : Workload.item) ->
            match (Hashtbl.find_opt r.answers i.req.P.id, Gate.recompute engine i.req) with
            | Some got, Some want ->
                Alcotest.(check bool) ("replayed " ^ i.key) true (Gate.same_bits want got)
            | _ -> Alcotest.fail ("no answer for " ^ i.key))
          items
      in
      check "hot" (take ~n:60 { (Workload.serve_hot ~seed:5) with warmup = [] });
      check "cold" (take { (Workload.serve_cold_files ~seed:5 ~requests:6 ~dir) with warmup = [] }))

let () =
  Alcotest.run "perfbench"
    [ ( "workload",
        [ Alcotest.test_case "serve-hot reproducible" `Quick test_hot_reproducible;
          Alcotest.test_case "serve-cold-files reproducible" `Quick test_cold_reproducible;
          Alcotest.test_case "serve-cold-files keys unique" `Quick test_cold_keys_unique ] );
      ( "report",
        [ Alcotest.test_case "names match BENCHMARK.json" `Quick test_names_match;
          Alcotest.test_case "result line" `Quick test_result_line;
          Alcotest.test_case "run.py constants" `Quick test_run_py_constants ] );
      ( "gate",
        [ Alcotest.test_case "tampered answer fails" `Quick test_gate;
          Alcotest.test_case "replay matches the reference engine" `Quick test_replay_matches ] ) ]
