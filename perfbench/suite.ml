(* The traced run of experiment-suite: the registry run in-process, once
   bare and once traced.  The traced pass times each entry's run call and
   records the program's own spans to a file, from which the kernel
   sweep times are read; the serving engine that E30 runs in-process
   leaves its store, queue and batch figures in the metrics registry. *)

module R = Bg_experiments.Registry
module Isolate = Bg_experiments.Isolate
module Obs = Core.Prelude.Obs
module Trace = Obs_tools.Trace
module Ks = Core.Decay.Kernel_stats
module Met = Core.Decay.Metricity
module Fad = Core.Decay.Fading

(* Entries that each take a large share of a pass, reported on their
   own; the rest are summed. *)
let named_ids = [ "E2"; "E24"; "E27"; "E30"; "E31" ]

(* Experiments print their tables to stdout, which carries the result. *)
let quietly f =
  flush stdout;
  let saved = Unix.dup ~cloexec:true Unix.stdout in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  Unix.dup2 null Unix.stdout;
  Unix.close null;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f

(* One pass from cold caches and zeroed counters, as a fresh `bg
   experiment` process would start: (id, seconds, passed) per entry, and
   the pass's wall time. *)
let pass entries =
  Met.clear_caches ();
  Fad.clear_caches ();
  Obs.reset_metrics ();
  Ks.reset ();
  quietly (fun () ->
      let t0 = Unix.gettimeofday () in
      let rows =
        List.map
          (fun (e : R.entry) ->
            let s = Unix.gettimeofday () in
            let r = Isolate.run_entry e in
            (e.id, Unix.gettimeofday () -. s, Isolate.passed r))
          entries
      in
      (rows, Unix.gettimeofday () -. t0))

let counter name = float_of_int (Obs.counter_value (Obs.counter name))

(* The registry entries [ids], in that order: the same fixed list the
   untraced passes run, so that an experiment added to the registry
   later does not change the workload. *)
let entries ids =
  List.map
    (fun id ->
      match List.find_opt (fun (e : R.entry) -> e.id = id) R.all with
      | Some e -> e
      | None -> invalid_arg ("Suite.entries: no experiment " ^ id))
    ids

(* Bare and traced passes over [ids] alternate until [seconds] have
   passed.  Entry times are medians over the traced passes; kernel spans,
   kernel counters and the metrics registry are those of the last traced
   pass (each pass starts from zero). *)
let run_traced ~ids ~seconds ~trace_file =
  let entries = entries ids in
  let t0 = Unix.gettimeofday () in
  let rec pairs acc =
    let bare = pass entries in
    Obs.set_trace_file trace_file;
    let traced = pass entries in
    Obs.close_trace ();
    let acc = (bare, traced) :: acc in
    if Unix.gettimeofday () -. t0 >= seconds then List.rev acc else pairs acc
  in
  let runs = pairs [] in
  let bare = List.map fst runs and traced = List.map snd runs in
  let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs in
  let ks = Ks.snapshot () in
  let kinds = Trace.aggregate (Trace.load trace_file) in
  let kind_total ?(self = false) p =
    List.fold_left
      (fun acc (k : Trace.kind_stats) ->
        if p k.kind then acc +. if self then k.kself_s else k.total_s else acc)
      0. kinds
  in
  let is name k = k = name in
  let entry_s id (rows, _) = sum (fun (i, s, _) -> if i = id then s else 0.) rows in
  let median_of f = Report.median (List.map f traced) in
  let entries_s (rows, _) = sum (fun (_, s, _) -> s) rows in
  let named_s run = sum (fun id -> entry_s id run) named_ids in
  let rows = List.concat_map fst (bare @ traced) in
  let failed = List.length (List.filter (fun (_, _, ok) -> not ok) rows) in
  let wall = sum snd traced and bare_wall = sum snd bare in
  let hits = counter "memo.store.hits" and misses = counter "memo.store.misses" in
  Printf.eprintf "experiment-suite traced: %d pass pairs, %.3fs bare, %.3fs traced; spans in %s\n%!"
    (List.length runs) bare_wall wall trace_file;
  let last_wall = snd (List.nth traced (List.length traced - 1)) in
  let mean name =
    let h = Obs.histogram name in
    Obs.histogram_sum h /. float_of_int (max 1 (Obs.histogram_count h))
  in
  ( Report.result_json ~table:Report.per_layer ~attempted:(List.length rows) ~failed
      (Report.zero_fill ~table:Report.per_layer
         ~absent:[ "protocol."; "line_reader."; "space."; "store."; "kernel.summarize" ]
         ([ ("trace.request_s", median_of snd);
            ("store.hit_ratio", if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
            ("store.syncs", counter "store.wal_syncs");
            ("server.queue_wait_s", mean "serve.queue_wait_s");
            ("server.elapsed_s", mean "serve.latency_s");
            ("server.batch_size_mean", mean "serve.batch_fill");
            ("server.coalesced", counter "serve.coalesced");
            ("kernel.zeta_share", kind_total (is "zeta_sweep") /. last_wall);
            ("kernel.phi_share", kind_total (is "phi_sweep") /. last_wall);
            ("kernel.gamma_share", kind_total (is "gamma_sweep") /. last_wall);
            ("kernel.estimate_share", kind_total ~self:true (String.ends_with ~suffix:"_estimate") /. last_wall);
            ("kernel.sweeps", float_of_int ks.Ks.sweeps);
            ("kernel.pruned_fraction", Ks.pruned_fraction ks) ]
         @ List.map
             (fun id -> ("experiment." ^ id ^ "_share", median_of (fun run -> entry_s id run /. snd run)))
             named_ids
         @ [ ("experiment.rest_share", median_of (fun run -> (entries_s run -. named_s run) /. snd run));
             ("trace.unattributed_share", 1. -. (sum entries_s traced /. wall));
             ("trace.overhead_share", (wall /. bare_wall) -. 1.) ])),
    failed > 0 )
