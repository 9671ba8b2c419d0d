(* The result line: the metric names, their units, and the one JSON
   object a run prints last.  BENCHMARK.json lists the same names in the
   same order; the benchmark's tests hold the two together. *)

module J = Obs_tools.Jsonl

let end_to_end =
  [ ("throughput_rps", "1/s"); ("latency_p50_s", "s"); ("latency_p90_s", "s");
    ("cpu_s", "s"); ("peak_rss_mb", "MB"); ("setup_s", "s") ]

(* The rank, counted from the fast end, at which every timed end-to-end
   metric is read off a run's blocks of work (run.py's FAST_RANK, which
   the tests hold equal): the 5th percentile of block times and the
   95th of block throughputs.  See perfbench/README.md, Fast blocks. *)
let fast_rank = 0.05

(* Layer times are shares of [trace.request_s], the traced time of one
   unit of work, so that a layer a workload never calls reads 0 as a
   ratio, never as a time. *)
let per_layer =
  [ ("trace.request_s", "s");
    ("protocol.encode_req_share", "ratio"); ("protocol.decode_req_share", "ratio");
    ("protocol.encode_resp_share", "ratio"); ("protocol.decode_resp_share", "ratio");
    ("protocol.req_bytes", "bytes"); ("protocol.resp_bytes", "bytes");
    ("line_reader.read_share", "ratio"); ("space.resolve_share", "ratio");
    ("store.find_share", "ratio"); ("store.add_share", "ratio"); ("store.hit_ratio", "ratio");
    ("store.sync_share", "ratio"); ("store.syncs", "count");
    ("server.queue_wait_s", "s"); ("server.elapsed_s", "s");
    ("server.batch_size_mean", "count"); ("server.coalesced", "count");
    ("kernel.zeta_share", "ratio"); ("kernel.phi_share", "ratio");
    ("kernel.gamma_share", "ratio"); ("kernel.summarize_share", "ratio");
    ("kernel.estimate_share", "ratio"); ("kernel.sweeps", "count");
    ("kernel.pruned_fraction", "ratio");
    ("experiment.E2_share", "ratio"); ("experiment.E24_share", "ratio");
    ("experiment.E27_share", "ratio"); ("experiment.E30_share", "ratio");
    ("experiment.E31_share", "ratio"); ("experiment.rest_share", "ratio");
    ("trace.unattributed_share", "ratio"); ("trace.overhead_share", "ratio") ]

(* [values] completed with 0 for every metric of [table] it lacks whose
   name starts with one of [absent] — layers the workload never calls. *)
let zero_fill ~table ~absent values =
  values
  @ List.filter_map
      (fun (name, _) ->
        if (not (List.mem_assoc name values))
           && List.exists (fun prefix -> String.starts_with ~prefix name) absent
        then Some (name, 0.)
        else None)
      table

(* Nearest-rank quantile of a sorted array. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (Float.round (q *. float_of_int (n - 1)))))

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs = quantile (sorted xs) 0.5

(* [values] must name exactly the metrics of [table] ({!end_to_end} or
   {!per_layer}); they are printed in the table's order with its units.
   A layer a workload never calls is given as 0 ({!zero_fill}). *)
let result_json ~table ~attempted ~failed values =
  let names = List.sort compare (List.map fst values) in
  if names <> List.sort compare (List.map fst table) then
    invalid_arg "Report.result_json: metric names differ from the table";
  let metric (name, unit) =
    (name, J.Obj [ ("value", J.Num (List.assoc name values)); ("unit", J.Str unit) ])
  in
  J.to_string
    (J.Obj
       [ ("correct", J.Bool (failed = 0));
         ("attempted", J.Num (float_of_int attempted));
         ("failed", J.Num (float_of_int failed));
         ("metrics", J.Obj (List.map metric table)) ])
