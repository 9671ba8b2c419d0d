(* The two serve workloads: set-up, the timed closed loop against a real
   `bg serve -j 1` daemon, the correctness gate, and (traced runs) the
   in-process layer replay of the same requests. *)

module P = Bg_serve.Protocol
module J = Obs_tools.Jsonl
module Obs = Core.Prelude.Obs
module Ks = Core.Decay.Kernel_stats

type config = {
  kind : Workload.kind;
  seed : int;
  seconds : float;
  bg : string;  (** path to the bg executable *)
  dir : string;  (** the run's private directory, removed by the caller *)
}

(* Requests in flight on the pipe. *)
let in_flight = 4

(* serve-cold-files requests written per run: enough for the run's
   length at rates well above any measured here.  Its keys never repeat,
   so a much faster program ends the timed phase early by exhausting
   them. *)
let cold_requests cfg = int_of_float (Float.ceil (cfg.seconds *. 60.))

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

type ready = { daemon : Drive.daemon; trace : Workload.trace; setup_s : float }

let setup_dir cfg k = Filename.concat cfg.dir (Printf.sprintf "setup-%d" k)

(* One full set-up, from nothing to the first timed request: spawn the
   daemon on a fresh cache and wait for its ping, generate the trace
   (writing its files), and send the warm-up round. *)
let set_up cfg k =
  let t0 = Drive.now () in
  let dir = setup_dir cfg k in
  Unix.mkdir dir 0o755;
  let daemon =
    Drive.spawn ~bg:cfg.bg
      ~cache:(Filename.concat dir "cache.jsonl")
      ~log:(Filename.concat dir "serve.log")
  in
  Drive.ping daemon ~missing_file:(Filename.concat dir "no-such-space.bgd");
  let trace = Workload.generate cfg.kind ~seed:cfg.seed ~requests:(cold_requests cfg) ~dir in
  let warm = Drive.closed_loop ~window:in_flight daemon (Workload.of_list trace.warmup) in
  if warm.lost > 0 || List.length warm.answers <> List.length trace.warmup then
    failwith "warm-up: the daemon left requests unanswered";
  { daemon; trace; setup_s = Drive.now () -. t0 }

(* Set-up [k], torn down again at once; its time. *)
let throwaway_set_up cfg k =
  let r = set_up cfg k in
  ignore (Drive.shutdown r.daemon);
  rm_rf (setup_dir cfg k);
  r.setup_s

(* The timed phase runs in [segments] equal segments on one daemon.
   Before each segment and after the last, with nothing in flight, the
   driver times [yardstick_reps] units of the yardstick on the same CPU,
   so that the yardstick sees the host as the requests do.  serve-hot
   also takes one more set-up after every fourth segment, while the
   daemon idles and outside the clock: its set-up samples then spread
   over the run as evenly as its requests do.  serve-cold-files writes
   its whole trace of files at each set-up, so it takes three, all
   before the timed phase. *)
let segments = 40
let yardstick_reps = 8

(* The timed metrics are read off blocks of consecutive answers, each
   the value of a fast block ({!Report.fast_rank}), then scaled to the
   yardstick's reference speed.  A block holds [block_size] answers,
   10-15 ms of serve-hot and about 0.2 s of serve-cold-files, so every
   per-request and per-batch cost (the WAL sync) is inside every
   block. *)
let block_size = function Workload.Serve_hot -> 16 | Workload.Serve_cold_files -> 8

type block = {
  b_wall : float;  (** from the answer before the block to its last answer *)
  b_cpu : float;  (** driver plus daemon *)
  b_lat : float array;  (** the block's latencies, sorted *)
}

type timed = {
  outcome : Drive.outcome;  (** all segments *)
  wall_s : float;  (** summed over segments, each from its first send to its last answer *)
  cpu_s : float;  (** driver plus daemon, summed over segments *)
  blocks : block list;
  yard : float list;  (** wall seconds of each yardstick unit *)
  peak_rss_mb : float;  (** the daemon's *)
  ok : (Workload.item * J.t) list;
  failed : int;  (** rejected, failed, degraded, lost or corrupt *)
  mismatches : int;
}

let is_ok (a : Drive.answer) = match a.resp with P.Done { degraded = false; _ } -> true | _ -> false

(* [segments] closed-loop segments of [seconds / segments] each, with
   [between k] run after segment [k].  A segment's answers fall into
   blocks of [block_size cfg.kind]; a segment's last, partial block is
   left out of [blocks]. *)
let timed_phase cfg (r : ready) ~seconds ~segments ~between =
  let pid = r.daemon.pid and me = Unix.getpid () in
  let cpu () = Drive.task_cpu_s me +. Drive.task_cpu_s pid in
  let width = seconds /. float_of_int segments in
  let size = block_size cfg.kind in
  let blocks = ref [] in
  let yard = ref [] in
  let rec run k acc wall_s cpu_s =
    yard := Yardstick.time ~reps:yardstick_reps @ !yard;
    if k = segments then (List.rev acc, wall_s, cpu_s)
    else begin
      let t0 = Drive.now () and c0 = cpu () in
      let stop () = Drive.now () -. t0 >= width in
      let bt = ref t0 and bc = ref c0 and lat = ref [] and count = ref 0 in
      let on_answer (a : Drive.answer) =
        lat := a.latency_s :: !lat;
        incr count;
        if !count = size then begin
          let c = cpu () in
          blocks := { b_wall = a.answered_at -. !bt; b_cpu = c -. !bc; b_lat = Report.sorted !lat } :: !blocks;
          bt := a.answered_at;
          bc := c;
          lat := [];
          count := 0
        end
      in
      let o = Drive.closed_loop ~window:in_flight ~stop ~on_answer r.daemon r.trace.next in
      let last = List.fold_left (fun m (a : Drive.answer) -> Float.max m a.answered_at) t0 o.answers in
      let wall_s = wall_s +. (last -. t0) and cpu_s = cpu_s +. (cpu () -. c0) in
      (* A daemon that closed its output leaves requests lost: stop. *)
      if o.lost > 0 then (List.rev (o :: acc), wall_s, cpu_s)
      else begin
        between k;
        run (k + 1) (o :: acc) wall_s cpu_s
      end
    end
  in
  let parts, wall_s, cpu_s = run 0 [] 0. 0. in
  let outcome =
    { Drive.sent = List.concat_map (fun (o : Drive.outcome) -> o.sent) parts;
      answers = List.concat_map (fun (o : Drive.outcome) -> o.answers) parts;
      lost = List.fold_left (fun n (o : Drive.outcome) -> n + o.lost) 0 parts;
      corrupt = List.fold_left (fun n (o : Drive.outcome) -> n + o.corrupt) 0 parts }
  in
  let peak_rss_mb = Drive.proc_peak_rss_mb pid in
  (match Drive.shutdown r.daemon with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "bg serve exited abnormally");
  let failed = outcome.lost + outcome.corrupt + List.length (List.filter (fun a -> not (is_ok a)) outcome.answers) in
  let ok =
    List.filter_map
      (fun (a : Drive.answer) ->
        match a.resp with P.Done { result; degraded = false; _ } -> Some (a.item, result) | _ -> None)
      outcome.answers
  in
  let mismatches = Gate.mismatches ok in
  { outcome; wall_s; cpu_s; blocks = List.rev !blocks; yard = !yard; peak_rss_mb; ok; failed = failed + mismatches;
    mismatches }

let report_line fmt = Printf.eprintf (fmt ^^ "\n%!")

(* --trace 0: the end-to-end metrics, over all ok answers of the timed
   phase. *)
let run_untraced cfg =
  let interleave, before =
    match cfg.kind with Workload.Serve_hot -> (true, 1) | Workload.Serve_cold_files -> (false, 3)
  in
  let early = List.init (before - 1) (fun i -> throwaway_set_up cfg (i + 1)) in
  let ready = set_up cfg before in
  let late = ref [] in
  let between k =
    if interleave && k mod 4 = 3 then late := throwaway_set_up cfg (before + 1 + List.length !late) :: !late
  in
  let t = timed_phase cfg ready ~seconds:cfg.seconds ~segments ~between in
  let setup_times = early @ (ready.setup_s :: List.rev !late) in
  let lat =
    Report.sorted
      (List.filter_map
         (fun (a : Drive.answer) -> if is_ok a then Some a.latency_s else None)
         t.outcome.answers)
  in
  let n_ok = List.length t.ok in
  let attempted = List.length t.outcome.sent in
  report_line "%s seed %d: %d sent, %d ok, %d failed (%d gate mismatches), error_rate %.4f"
    (Workload.name cfg.kind) cfg.seed attempted n_ok t.failed t.mismatches
    (float_of_int t.failed /. float_of_int (max 1 attempted));
  report_line "  latency p50 %.6fs p90 %.6fs p99 %.6fs over %d samples (p99 supported: %b)"
    (Report.quantile lat 0.5) (Report.quantile lat 0.9) (Report.quantile lat 0.99) (Array.length lat)
    (Array.length lat >= 1000);
  report_line "  set-ups: %s" (String.concat " " (List.map (Printf.sprintf "%.4fs") setup_times));
  if n_ok = 0 then failwith "no request was answered ok";
  if t.blocks = [] then failwith "the timed phase did not fill one block";
  let size = float_of_int (block_size cfg.kind) in
  let fast f = Report.quantile (Report.sorted (List.map f t.blocks)) Report.fast_rank in
  let yard = Report.quantile (Report.sorted t.yard) Report.fast_rank in
  let scale = Yardstick.reference_s /. yard in
  let show = List.map (fun (k, v) -> Printf.sprintf "%s=%.6g" k v) in
  let thr = size /. fast (fun b -> b.b_wall) in
  let times =
    [ ("latency_p50_s", fast (fun b -> Report.quantile b.b_lat 0.5));
      ("latency_p90_s", fast (fun b -> Report.quantile b.b_lat 0.9));
      ("cpu_s", fast (fun b -> b.b_cpu) /. size) ]
  in
  report_line "  pooled over the run: %s"
    (String.concat " "
       (show
          [ ("throughput_rps", float_of_int n_ok /. t.wall_s); ("latency_p50_s", Report.quantile lat 0.5);
            ("latency_p90_s", Report.quantile lat 0.9); ("cpu_s", t.cpu_s /. float_of_int n_ok) ]));
  report_line "  fast block of %d (%g answers each), unscaled: %s" (List.length t.blocks) size
    (String.concat " " (show (("throughput_rps", thr) :: times)));
  report_line "  yardstick %.6gs over %d units: times scaled by %.4f" yard (List.length t.yard) scale;
  ( Report.result_json ~table:Report.end_to_end ~attempted ~failed:t.failed
      ((("throughput_rps", thr /. scale) :: List.map (fun (k, v) -> (k, v *. scale)) times)
      @ [ ("peak_rss_mb", t.peak_rss_mb); ("setup_s", Report.median setup_times *. scale) ]),
    t.failed > 0 )

(* --trace 1: an untraced daemon phase for half the run, then the same
   requests replayed in-process, bare and then traced. *)
let run_traced cfg ~spans_out =
  let ready = set_up cfg 1 in
  let t = timed_phase cfg ready ~seconds:(cfg.seconds /. 2.) ~segments:1 ~between:(fun _ -> ()) in
  let attempted = List.length t.outcome.sent in
  let items = t.outcome.sent in
  let n = float_of_int (max 1 attempted) in
  let cache name = Filename.concat cfg.dir name in
  let warmup = ready.trace.warmup in
  let bare = Layers.replay ~traced:false ~window:in_flight ~cache:(cache "bare.jsonl") ~warmup items in
  let syncs0 = Obs.counter_value (Obs.counter "store.wal_syncs") in
  Ks.reset ();
  let traced = Layers.replay ~traced:true ~window:in_flight ~cache:(cache "traced.jsonl") ~warmup items in
  let ks = Ks.snapshot () in
  let syncs = Obs.counter_value (Obs.counter "store.wal_syncs") - syncs0 in
  Layers.write_spans spans_out traced;
  (* The replay runs the benchmark's copy of the daemon's pipeline
     (Layers.compute); any answer that differs from the daemon's, which
     the gate has checked, means the copy has gone stale. *)
  let stale =
    List.length
      (List.filter
         (fun ((item : Workload.item), result) ->
           List.exists
             (fun (r : Layers.result) ->
               match Hashtbl.find_opt r.answers item.req.P.id with
               | Some v -> not (Gate.same_bits v result)
               | None -> true)
             [ bare; traced ])
         t.ok)
  in
  if stale > 0 then
    report_line "%s traced: %d replayed answers differ from the daemon's: Layers is stale"
      (Workload.name cfg.kind) stale;
  let failed = t.failed + stale in
  let per_request layer = Layers.total traced layer /. n in
  let request_s = traced.wall_s /. n in
  let layer_sum = List.fold_left (fun acc l -> acc +. per_request l) 0. Layers.layers in
  let service_s = t.wall_s /. float_of_int (max 1 (List.length t.outcome.answers)) in
  let dones =
    List.filter_map
      (fun (a : Drive.answer) ->
        match a.resp with
        | P.Done { cache; queue_wait_s; batch; elapsed_s; _ } -> Some (cache, queue_wait_s, batch, elapsed_s)
        | _ -> None)
      t.outcome.answers
  in
  let n_done = float_of_int (max 1 (List.length dones)) in
  let count p = float_of_int (List.length (List.filter p dones)) in
  let mean f = List.fold_left (fun acc d -> acc +. f d) 0. dones /. n_done in
  let batches = List.sort_uniq compare (List.map (fun (_, _, b, _) -> b) dones) in
  report_line "%s seed %d traced: %d requests replayed; layer sum %.6fs/request against %.6fs/request \
               served untraced"
    (Workload.name cfg.kind) cfg.seed attempted layer_sum service_s;
  report_line "  spans written to %s" spans_out;
  ( Report.result_json ~table:Report.per_layer ~attempted ~failed
      (Report.zero_fill ~table:Report.per_layer ~absent:[ "experiment." ]
         (List.map (fun l -> (l ^ "_share", per_request l /. request_s)) Layers.layers
         @ [ ("trace.request_s", request_s);
             ("protocol.req_bytes", float_of_int traced.req_bytes /. n);
             ("protocol.resp_bytes", float_of_int traced.resp_bytes /. n);
             ("store.hit_ratio", count (fun (c, _, _, _) -> c = P.Hit) /. n_done);
             ("store.syncs", float_of_int syncs);
             ("server.queue_wait_s", mean (fun (_, q, _, _) -> q));
             ("server.elapsed_s", mean (fun (_, _, _, e) -> e));
             ("server.batch_size_mean", n_done /. float_of_int (max 1 (List.length batches)));
             ("server.coalesced", count (fun (c, _, _, _) -> c = P.Coalesced));
             ("kernel.sweeps", float_of_int ks.Ks.sweeps);
             ("kernel.pruned_fraction", Ks.pruned_fraction ks);
             ("trace.unattributed_share", 1. -. (layer_sum /. service_s));
             ("trace.overhead_share", (traced.wall_s /. bare.wall_s) -. 1.) ])),
    failed > 0 )
