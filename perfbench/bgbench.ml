(* bgbench — the benchmark's measuring process, driven by run.py.

     bgbench serve --workload serve-hot|serve-cold-files --seed N
                   --seconds S --bg PATH --dir DIR
                   [--trace FILE]
     bgbench suite-trace --ids E1,E2,... --seconds S --trace FILE
     bgbench yardstick --reps N

   `serve` runs one serve workload against `bg serve` and prints the
   result line last on stdout: the end-to-end metrics, or with --trace
   the per-layer metrics and the span file.  `suite-trace` prints the
   per-layer metrics of experiment-suite, whose passes run the registry
   entries --ids in that order.  `yardstick` prints the wall seconds of
   N units of the yardstick, one per line.  A wrong answer or a failed
   experiment exits 1 after the result line. *)

open Perfbench

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let bg = ref "" and dir = ref "" in
  let trace = ref "" and ids = ref "" and reps = ref 20 in
  let specs =
    [ ("--workload", Arg.Set_string workload, "NAME serve workload");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--bg", Arg.Set_string bg, "PATH the bg executable");
      ("--dir", Arg.Set_string dir, "DIR private run directory (must exist)");
      ("--trace", Arg.Set_string trace, "FILE traced run; spans go to FILE");
      ("--ids", Arg.Set_string ids, "E1,E2,... experiments of a suite pass");
      ("--reps", Arg.Set_int reps, "N yardstick units to time") ]
  in
  let command = ref "" in
  Arg.parse specs (fun c -> command := c) "bgbench serve|suite-trace|yardstick [options]";
  let line, failed =
    match !command with
    | "serve" -> (
        match Workload.of_name !workload with
        | Some kind ->
            let cfg =
              { Serve.kind; seed = !seed; seconds = !seconds; bg = !bg; dir = !dir }
            in
            if !trace = "" then Serve.run_untraced cfg else Serve.run_traced cfg ~spans_out:!trace
        | None ->
            prerr_endline ("bgbench: not a serve workload: " ^ !workload);
            exit 2)
    | "yardstick" ->
        List.iter (Printf.printf "%.9f\n") (Yardstick.time ~reps:!reps);
        exit 0
    | "suite-trace" ->
        let ids = List.filter (( <> ) "") (String.split_on_char ',' !ids) in
        if ids = [] then begin
          prerr_endline "bgbench: suite-trace needs --ids";
          exit 2
        end;
        Suite.run_traced ~ids ~seconds:!seconds ~trace_file:!trace
    | c ->
        prerr_endline ("bgbench: unknown command: " ^ c);
        exit 2
  in
  print_endline line;
  if failed then exit 1
