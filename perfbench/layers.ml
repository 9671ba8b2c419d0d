(* The traced replay: a serve trace pushed in-process through the public
   call of each layer the daemon runs, with one span per call.

   Per request, in daemon order: the client encodes the request
   (Protocol), the line crosses a pipe into a Server.Line_reader, the
   line is decoded (Protocol), its space resolved (Decay_space.of_matrix
   or Decay_io.load_raw_mmap, plus the digest), the key looked up in the
   Store, the kernel run on a miss and its result added to the Store,
   and the response encoded and decoded (Protocol).  Every [window]
   requests the Store journal is synced, as the daemon group-commits per
   batch.  Spans are kept in memory, keyed by request id, and written out
   when the replay ends. *)

module P = Bg_serve.Protocol
module J = Obs_tools.Jsonl
module Store = Bg_serve.Store
module Line_reader = Bg_serve.Server.Line_reader
module D = Core.Decay.Decay_space
module Io = Core.Decay.Decay_io
module Met = Core.Decay.Metricity
module Fad = Core.Decay.Fading
module Stat = Core.Decay.Statistics
module Est = Core.Decay.Estimators
module Ctx = Core.Decay.Ctx
module Rng = Core.Prelude.Rng

let layers =
  [ "protocol.encode_req"; "line_reader.read"; "protocol.decode_req";
    "space.resolve"; "store.find"; "kernel.zeta"; "kernel.phi";
    "kernel.gamma"; "kernel.summarize"; "kernel.estimate"; "store.add";
    "store.sync"; "protocol.encode_resp"; "protocol.decode_resp" ]

type span = { id : string; layer : string; start_s : float; dur_s : float }

type result = {
  wall_s : float;
  totals : (string, float) Hashtbl.t;  (** layer -> summed self time *)
  spans : span list;  (** newest first *)
  req_bytes : int;
  resp_bytes : int;
  answers : (string, J.t) Hashtbl.t;  (** request id -> result, timed requests *)
}

(* The daemon's compute (Server.compute is internal), result shapes
   included, so the replay's store holds what the daemon's would.  A
   traced run checks every replayed answer against the daemon's. *)
let witness_json (w : Met.witness) =
  J.Obj
    [ ("x", J.Num (float_of_int w.x)); ("y", J.Num (float_of_int w.y));
      ("z", J.Num (float_of_int w.z)) ]

let compute ~ctx op space =
  match op with
  | P.Zeta ->
      let w = Met.zeta_witness ~ctx space in
      J.Obj [ ("zeta", J.Num w.value); ("witness", witness_json w) ]
  | P.Phi ->
      let w = Met.phi_witness ~ctx space in
      J.Obj [ ("phi", J.Num w.value); ("witness", witness_json w) ]
  | P.Gamma r -> J.Obj [ ("gamma", J.Num (Fad.gamma ~ctx space ~r)); ("r", J.Num r) ]
  | P.Summarize ->
      let s = Stat.summarize ~ctx space in
      J.Obj
        [ ("n", J.Num (float_of_int s.n)); ("min_db", J.Num s.min_db);
          ("max_db", J.Num s.max_db); ("median_db", J.Num s.median_db);
          ("dynamic_range_db", J.Num s.dynamic_range_db);
          ("asymmetry_db", J.Num s.asymmetry_db) ]
  | P.Estimate { nodes; replicates; seed } ->
      let e = Est.zeta ~ctx ~replicates ~nodes (Rng.create seed) (Est.of_space space) in
      J.Obj
        [ ("zeta_lower", J.Num e.point); ("hi", J.Num e.hi);
          ("confidence", J.Num e.confidence) ]
  | P.Ping | P.Metrics -> invalid_arg "Layers.compute: health op"

let kernel_layer = function
  | P.Zeta -> "kernel.zeta"
  | P.Phi -> "kernel.phi"
  | P.Gamma _ -> "kernel.gamma"
  | P.Summarize -> "kernel.summarize"
  | P.Estimate _ -> "kernel.estimate"
  | P.Ping | P.Metrics -> invalid_arg "Layers.kernel_layer: health op"

let resolve_space = function
  | P.Inline (name, rows) -> D.of_matrix ~name rows
  | P.Csv text -> Io.of_csv text
  | P.File path ->
      let raw =
        In_channel.with_open_bin path (fun ic ->
            match really_input_string ic 8 with
            | m -> m = "BGDECAY1"
            | exception End_of_file -> false)
      in
      if raw then Io.load_raw_mmap path else Io.load path

(* Push [line] through a pipe into [reader] and time only the reader's
   calls; lines longer than the pipe buffer alternate writes and reads. *)
let through_pipe ~w reader line =
  let s = line ^ "\n" in
  let len = String.length s in
  let off = ref 0 and got = ref None and spent = ref 0. in
  while !got = None do
    (if !off < len then
       match Unix.write_substring w s !off (len - !off) with
       | n -> off := !off + n
       | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
    let t0 = Unix.gettimeofday () in
    Line_reader.read_chunk reader;
    (match Line_reader.next ~block:false reader with
    | `Line l -> got := Some l
    | `Nothing | `Eof -> ());
    spent := !spent +. (Unix.gettimeofday () -. t0)
  done;
  (Option.get !got, !spent)

(* Replay [warmup] untimed, then [items] timed.  With [traced] each call
   is spanned; without, the same calls run bare, which measures the
   spans' own cost.  [cache] is the store file, fresh per replay. *)
let replay ~traced ~window ~cache ~warmup items =
  Met.clear_caches ();
  Fad.clear_caches ();
  Gc.compact ();
  let ctx = Ctx.make ~jobs:1 () in
  let store = Store.open_ ~path:cache () in
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock r;
  Unix.set_nonblock w;
  let reader = Line_reader.create r in
  let totals = Hashtbl.create 16 in
  let spans = ref [] in
  let req_bytes = ref 0 and resp_bytes = ref 0 in
  let answers = Hashtbl.create 1024 in
  let timing = ref false in
  let on () = !timing && traced in
  let record id layer start_s dur_s =
    spans := { id; layer; start_s; dur_s } :: !spans;
    Hashtbl.replace totals layer
      (dur_s +. Option.value ~default:0. (Hashtbl.find_opt totals layer))
  in
  let span id layer f =
    if on () then begin
      let t0 = Unix.gettimeofday () in
      let v = f () in
      record id layer t0 (Unix.gettimeofday () -. t0);
      v
    end
    else f ()
  in
  let one (item : Workload.item) =
    let id = item.req.P.id in
    let line = span id "protocol.encode_req" (fun () -> P.request_to_string item.req) in
    let t0 = Unix.gettimeofday () in
    let line, dur_s = through_pipe ~w reader line in
    if on () then record id "line_reader.read" t0 dur_s;
    let req =
      match span id "protocol.decode_req" (fun () -> P.request_of_string line) with
      | Ok req -> req
      | Error m -> failwith ("replay: request did not decode: " ^ m)
    in
    let spec = Option.get req.P.space in
    let space, key =
      span id "space.resolve" (fun () ->
          let space = resolve_space spec in
          (space, Digest.to_hex (D.digest space) ^ "/" ^ P.op_key req.P.op))
    in
    let result, cache =
      match span id "store.find" (fun () -> Store.find store key) with
      | Some v -> (v, P.Hit)
      | None ->
          let v = span id (kernel_layer req.P.op) (fun () -> compute ~ctx req.P.op space) in
          span id "store.add" (fun () -> Store.add store key v);
          (v, P.Miss)
    in
    let resp =
      P.Done
        { id; op_name = P.op_name req.P.op; result; cache; queue_wait_s = 0.;
          batch = 0; elapsed_s = 0.; degraded = false; trace = None }
    in
    let out = span id "protocol.encode_resp" (fun () -> P.response_to_string resp) in
    (match span id "protocol.decode_resp" (fun () -> P.response_of_string out) with
    | Ok _ -> ()
    | Error m -> failwith ("replay: response did not decode: " ^ m));
    if !timing then begin
      Hashtbl.replace answers id result;
      req_bytes := !req_bytes + String.length line + 1;
      resp_bytes := !resp_bytes + String.length out + 1
    end
  in
  let batches items =
    List.iteri
      (fun i item ->
        one item;
        if (i + 1) mod window = 0 then span "-" "store.sync" (fun () -> Store.sync store))
      items;
    span "-" "store.sync" (fun () -> Store.sync store)
  in
  batches warmup;
  timing := true;
  let t0 = Unix.gettimeofday () in
  batches items;
  let wall_s = Unix.gettimeofday () -. t0 in
  Store.close store;
  Unix.close r;
  Unix.close w;
  { wall_s; totals; spans = !spans; req_bytes = !req_bytes; resp_bytes = !resp_bytes; answers }

let total r layer = Option.value ~default:0. (Hashtbl.find_opt r.totals layer)

let write_spans path r =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          output_string oc
            (J.to_string
               (J.Obj
                  [ ("id", J.Str s.id); ("layer", J.Str s.layer);
                    ("start_s", J.Num s.start_s); ("dur_s", J.Num s.dur_s) ]));
          output_char oc '\n')
        (List.rev r.spans))
