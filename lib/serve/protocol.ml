(* The JSONL wire schema of `bg serve`.

   One request per line in, one response per line out.  Requests carry
   the decay space inline (matrix rows or CSV text) or by file path, so
   the daemon never needs shared state with its clients beyond the
   stream itself.  Responses are typed: a request always gets exactly
   one of ok / rejected / error back, and overload is a first-class
   answer (status "rejected"), never a hung connection.

   Ping is the one op with no space: a health probe answered at
   admission (never queued), whose result reports uptime, queue depth,
   hit rate and degraded-mode status.

   A Done response may additionally carry degraded:true — the answer
   came from the estimator tier (with its confidence interval in the
   result) rather than an exact sweep, because the server was above its
   load watermark.  The flag is omitted when false, so pre-resilience
   response lines parse identically.

   All parsing goes through Obs_tools.Jsonl.  Inline matrices go out as
   "raw": the base64 of their BGDECAY1 bytes (Decay_io.raw_of_rows), so
   cells cross the wire as bits.  The "matrix" array of JSON numbers is
   still read.  Space digests are taken over the cells' bits, so both
   forms key the same store entries, and the persistent cache hits
   across restarts whichever form a client sends. *)

module J = Obs_tools.Jsonl
module Io = Core.Decay.Decay_io

type op =
  | Zeta
  | Phi
  | Gamma of float
  | Summarize
  | Estimate of { nodes : int; replicates : int; seed : int }
  | Ping
  | Metrics

type space_spec =
  | Inline of string * float array array
  | Csv of string
  | File of string

(* Trace context rides every request and is echoed on its responses:
   [trace_id] names the logical request across every process it touches;
   [parent_span] is the sender's span id, so the server's spans can be
   re-parented under the client's when trace files are merged
   (Obs_tools.Trace.merge).  Both fields are omitted from the wire when
   absent, so pre-tracing lines parse unchanged. *)
type trace_context = { trace_id : string; parent_span : int }

type request = {
  id : string;
  op : op;
  space : space_spec option;
  trace : trace_context option;
}

type cache_outcome = Hit | Miss | Coalesced

type response =
  | Done of {
      id : string;
      op_name : string;
      result : J.t;
      cache : cache_outcome;
      queue_wait_s : float;
      batch : int;
      elapsed_s : float;
      degraded : bool;
      trace : trace_context option;
    }
  | Rejected of { id : string; reason : string; trace : trace_context option }
  | Failed of { id : string; reason : string; trace : trace_context option }

let op_name = function
  | Zeta -> "zeta"
  | Phi -> "phi"
  | Gamma _ -> "gamma"
  | Summarize -> "summarize"
  | Estimate _ -> "estimate"
  | Ping -> "ping"
  | Metrics -> "metrics"

(* The cache key suffix: every parameter that changes the result must be
   part of it (gamma's separation, the estimator design), so distinct
   questions about one space never collide in the store. *)
let op_key = function
  | Zeta -> "zeta"
  | Phi -> "phi"
  | Gamma r -> Printf.sprintf "gamma:%.17g" r
  | Summarize -> "summarize"
  | Estimate { nodes; replicates; seed } ->
      Printf.sprintf "estimate:%d:%d:%d" nodes replicates seed
  | Ping -> "ping"
  | Metrics -> "metrics"

let cache_outcome_name = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Coalesced -> "coalesced"

let cache_outcome_of_name = function
  | "hit" -> Some Hit
  | "miss" -> Some Miss
  | "coalesced" -> Some Coalesced
  | _ -> None

let response_id = function
  | Done { id; _ } | Rejected { id; _ } | Failed { id; _ } -> id

let response_trace = function
  | Done { trace; _ } | Rejected { trace; _ } | Failed { trace; _ } -> trace

(* -------------------------------------------------------- trace context *)

let trace_fields = function
  | None -> []
  | Some { trace_id; parent_span } ->
      ("trace_id", J.Str trace_id)
      ::
      (if parent_span > 0 then
         [ ("parent_span", J.Num (float_of_int parent_span)) ]
       else [])

let trace_of_json j =
  match J.mem_str "trace_id" j with
  | None -> None
  | Some trace_id ->
      let parent_span =
        match J.mem_num "parent_span" j with
        | Some v when Float.is_finite v && v > 0. -> int_of_float v
        | _ -> 0
      in
      Some { trace_id; parent_span }

(* ------------------------------------------------------------ requests *)

(* ---------------------------------------------------- inline matrices *)

(* An inline matrix travels as the base64 of its raw BGDECAY1 bytes
   (Decay_io.raw_of_rows): 8 bytes of bits per cell, no decimal
   formatting on the way out and no float parsing on the way in.
   Standard alphabet, padded (RFC 4648 section 4). *)
let b64_alphabet =
  "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

(* Hot loops (a request's cells are most of its bytes) with no closures
   and no bounds checks past the ones the lengths already guarantee. *)
let[@inline] sym v = String.unsafe_get b64_alphabet (v land 63)
let[@inline] byte s i = Char.code (String.unsafe_get s i)

let b64_encode s =
  let len = String.length s in
  let out = Bytes.create (4 * ((len + 2) / 3)) in
  let full = len / 3 in
  for q = 0 to full - 1 do
    let i = 3 * q and o = 4 * q in
    let v = (byte s i lsl 16) lor (byte s (i + 1) lsl 8) lor byte s (i + 2) in
    Bytes.unsafe_set out o (sym (v lsr 18));
    Bytes.unsafe_set out (o + 1) (sym (v lsr 12));
    Bytes.unsafe_set out (o + 2) (sym (v lsr 6));
    Bytes.unsafe_set out (o + 3) (sym v)
  done;
  let rem = len - (3 * full) in
  if rem > 0 then begin
    let i = 3 * full and o = 4 * full in
    let v = (byte s i lsl 16) lor if rem = 2 then byte s (i + 1) lsl 8 else 0 in
    Bytes.set out o (sym (v lsr 18));
    Bytes.set out (o + 1) (sym (v lsr 12));
    Bytes.set out (o + 2) (if rem = 2 then sym (v lsr 6) else '=');
    Bytes.set out (o + 3) '='
  end;
  Bytes.unsafe_to_string out

let b64_value =
  let t = Array.make 256 (-1) in
  String.iteri (fun i c -> t.(Char.code c) <- i) b64_alphabet;
  t

(* The decoded length of a padded base64 string, or [Error] for a length
   that is not a multiple of 4.  Computed from the text alone, before
   anything is decoded. *)
let b64_decoded_length s =
  let len = String.length s in
  if len mod 4 <> 0 then Error "space.raw: base64 length is not a multiple of 4"
  else
    let pad =
      if len = 0 || s.[len - 1] <> '=' then 0
      else if s.[len - 2] = '=' then 2
      else 1
    in
    Ok ((3 * (len / 4)) - pad)

let[@inline] value s i = Array.unsafe_get b64_value (byte s i)

(* Decode the first [out_len] bytes' worth of [s] (whole 4-character
   groups, so a prefix costs only its own length; [s] must hold them).
   A character outside the alphabet is an [Error] naming its offset; so
   is a '=' anywhere but in the place of a byte past [out_len]. *)
let b64_decode_prefix s out_len =
  let out = Bytes.create out_len in
  let full = out_len / 3 in
  let rec quads q =
    if q >= full then -1
    else
      let i = 4 * q in
      let a = value s i and b = value s (i + 1) and c = value s (i + 2)
      and d = value s (i + 3) in
      if a lor b lor c lor d < 0 then i
      else begin
        let w = (a lsl 18) lor (b lsl 12) lor (c lsl 6) lor d in
        let o = 3 * q in
        Bytes.unsafe_set out o (Char.unsafe_chr (w lsr 16));
        Bytes.unsafe_set out (o + 1) (Char.unsafe_chr ((w lsr 8) land 255));
        Bytes.unsafe_set out (o + 2) (Char.unsafe_chr (w land 255));
        quads (q + 1)
      end
  in
  let bad_quad = quads 0 in
  let bad_quad =
    if bad_quad >= 0 || out_len = 3 * full then bad_quad
    else begin
      (* The last group carries one or two bytes; its other places hold
         padding (or, in a prefix, the next bytes' symbols). *)
      let i = 4 * full and w = ref 0 and bad = ref (-1) in
      for k = 0 to 3 do
        let v = value s (i + k) in
        if v >= 0 then w := !w lor (v lsl (18 - (6 * k)))
        else if not (s.[i + k] = '=' && (3 * full) + k - 1 >= out_len) then
          bad := i
      done;
      Bytes.set out (3 * full) (Char.unsafe_chr (!w lsr 16));
      if (3 * full) + 1 < out_len then
        Bytes.set out ((3 * full) + 1) (Char.unsafe_chr ((!w lsr 8) land 255));
      !bad
    end
  in
  if bad_quad < 0 then Ok (Bytes.unsafe_to_string out)
  else
    let rec first i = if value s i < 0 then i else first (i + 1) in
    Error
      (Printf.sprintf "space.raw: bad base64 character at offset %d"
         (first bad_quad))

(* Header first: decode only the 16-byte header and check the node count
   against the length the text decodes to, so a header claiming a huge n
   over a short payload is refused before its n^2 cells are allocated. *)
let rows_of_b64 text =
  let ( let* ) = Result.bind in
  let raw r = Result.map_error (fun e -> "space.raw: " ^ e) r in
  let* len = b64_decoded_length text in
  let* header = b64_decode_prefix text (min len Io.raw_header_len) in
  let* _n = raw (Io.raw_node_count ~header ~len:(Int64.of_int len)) in
  let* bytes = b64_decode_prefix text len in
  raw (Io.rows_of_raw bytes)

let space_to_json = function
  | Inline (name, rows) ->
      J.Obj
        [ ("name", J.Str name);
          ("raw", J.Str (b64_encode (Io.raw_of_rows rows))) ]
  | Csv text -> J.Obj [ ("csv", J.Str text) ]
  | File path -> J.Obj [ ("file", J.Str path) ]

let request_to_json r =
  let base = [ ("id", J.Str r.id); ("op", J.Str (op_name r.op)) ] in
  let params =
    match r.op with
    | Gamma sep -> [ ("r", J.Num sep) ]
    | Estimate { nodes; replicates; seed } ->
        [ ("nodes", J.Num (float_of_int nodes));
          ("replicates", J.Num (float_of_int replicates));
          ("seed", J.Num (float_of_int seed)) ]
    | Zeta | Phi | Summarize | Ping | Metrics -> []
  in
  let space =
    match r.space with
    | None -> []
    | Some s -> [ ("space", space_to_json s) ]
  in
  J.Obj (base @ params @ trace_fields r.trace @ space)

let request_to_string r = J.to_string (request_to_json r)

(* Two inline forms are accepted: "raw" (what every OCaml client sends)
   and the "matrix" array of JSON numbers, the one form a person can
   type.  Both give the same cells, so the same digest and answers. *)
let space_of_json j =
  let name () = Option.value (J.mem_str "name" j) ~default:"inline" in
  match
    (J.member "raw" j, J.member "matrix" j, J.mem_str "csv" j, J.mem_str "file" j)
  with
  | Some (J.Str text), _, _, _ ->
      Result.map (fun rows -> Inline (name (), rows)) (rows_of_b64 text)
  | Some _, _, _, _ -> Error "space.raw: not a string"
  | _, Some (J.Arr rows), _, _ ->
      let row_of = function
        | J.Arr cells ->
            cells
            |> List.map (function
                 | J.Num v -> v
                 | _ -> failwith "space.matrix: non-numeric cell")
            |> Array.of_list
        | _ -> failwith "space.matrix: row is not an array"
      in
      Ok (Inline (name (), Array.of_list (List.map row_of rows)))
  | _, _, Some text, _ -> Ok (Csv text)
  | _, _, _, Some path -> Ok (File path)
  | _ -> Error "space: need one of raw / matrix / csv / file"

let int_field name j ~default =
  match J.mem_num name j with
  | None -> default
  | Some v -> int_of_float v

let request_of_json j =
  match (J.mem_str "id" j, J.mem_str "op" j) with
  | None, _ -> Error "request: missing id"
  | _, None -> Error "request: missing op"
  | Some id, Some op -> (
      match
        match op with
        | "zeta" -> Ok Zeta
        | "phi" -> Ok Phi
        | "summarize" -> Ok Summarize
        | "ping" -> Ok Ping
        | "metrics" -> Ok Metrics
        | "gamma" -> (
            match J.mem_num "r" j with
            | Some r when r > 0. && Float.is_finite r -> Ok (Gamma r)
            | Some _ -> Error "gamma: r must be finite and positive"
            | None -> Error "gamma: missing r")
        | "estimate" ->
            Ok
              (Estimate
                 {
                   nodes = int_field "nodes" j ~default:32;
                   replicates = int_field "replicates" j ~default:6;
                   seed = int_field "seed" j ~default:0;
                 })
        | other -> Error (Printf.sprintf "unknown op %S" other)
      with
      | Error e -> Error e
      | Ok op -> (
          let trace = trace_of_json j in
          match J.member "space" j with
          | None ->
              if op = Ping || op = Metrics then Ok { id; op; space = None; trace }
              else Error "request: missing space"
          | Some space_j -> (
              match space_of_json space_j with
              | Error e -> Error e
              | exception Failure e -> Error e
              | Ok space -> Ok { id; op; space = Some space; trace })))

let request_of_string line =
  match J.parse line with
  | exception J.Bad msg -> Error ("malformed JSON: " ^ msg)
  | j -> request_of_json j

(* ----------------------------------------------------------- responses *)

let response_to_json = function
  | Done
      { id; op_name; result; cache; queue_wait_s; batch; elapsed_s; degraded;
        trace }
    ->
      J.Obj
        ([ ("id", J.Str id); ("status", J.Str "ok"); ("op", J.Str op_name);
           ("cache", J.Str (cache_outcome_name cache));
           ("queue_wait_s", J.Num queue_wait_s);
           ("batch", J.Num (float_of_int batch));
           ("elapsed_s", J.Num elapsed_s) ]
        @ (if degraded then [ ("degraded", J.Bool true) ] else [])
        @ trace_fields trace
        @ [ ("result", result) ])
  | Rejected { id; reason; trace } ->
      J.Obj
        ([ ("id", J.Str id); ("status", J.Str "rejected");
           ("reason", J.Str reason) ]
        @ trace_fields trace)
  | Failed { id; reason; trace } ->
      J.Obj
        ([ ("id", J.Str id); ("status", J.Str "error");
           ("reason", J.Str reason) ]
        @ trace_fields trace)

let response_to_string r = J.to_string (response_to_json r)

let response_of_json j =
  match (J.mem_str "id" j, J.mem_str "status" j) with
  | None, _ -> Error "response: missing id"
  | _, None -> Error "response: missing status"
  | Some id, Some "rejected" ->
      Ok
        (Rejected
           { id; reason = Option.value (J.mem_str "reason" j) ~default:"";
             trace = trace_of_json j })
  | Some id, Some "error" ->
      Ok
        (Failed
           { id; reason = Option.value (J.mem_str "reason" j) ~default:"";
             trace = trace_of_json j })
  | Some id, Some "ok" -> (
      match
        ( J.mem_str "op" j,
          Option.bind (J.mem_str "cache" j) cache_outcome_of_name,
          J.member "result" j )
      with
      | Some op_name, Some cache, Some result ->
          Ok
            (Done
               {
                 id;
                 op_name;
                 result;
                 cache;
                 queue_wait_s =
                   Option.value (J.mem_num "queue_wait_s" j) ~default:0.;
                 batch = int_field "batch" j ~default:0;
                 elapsed_s =
                   Option.value (J.mem_num "elapsed_s" j) ~default:0.;
                 degraded =
                   Option.value (J.mem_bool "degraded" j) ~default:false;
                 trace = trace_of_json j;
               })
      | _ -> Error "ok response: missing op / cache / result")
  | Some _, Some other -> Error (Printf.sprintf "unknown status %S" other)

let response_of_string line =
  match J.parse line with
  | exception J.Bad msg -> Error ("malformed JSON: " ^ msg)
  | j -> response_of_json j
