(* The serve wire's codec and input stage: inline matrices as base64
   BGDECAY1 bytes (bit-exact round trips, the same digest and answer as
   the JSON matrix form, typed errors for every malformed payload), the
   JSON string fast paths, Server.Line_reader under arbitrary chunking,
   and the stdio daemon answering admission-time requests without
   waiting for EOF. *)

module P = Bg_serve.Protocol
module Server = Bg_serve.Server
module J = Obs_tools.Jsonl
module D = Core.Decay.Decay_space
module Io = Core.Decay.Decay_io
module Ctx = Core.Decay.Ctx
module Obs = Core.Prelude.Obs
open Testutil

let engine ?(max_queue = 256) () =
  Server.create
    { Server.default_config with
      Server.ctx = Ctx.make ~jobs:1 ~cache:false ();
      max_queue }

let bits = Int64.bits_of_float

let rows_bit_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun r r' ->
         Array.length r = Array.length r'
         && Array.for_all2 (fun x y -> Int64.equal (bits x) (bits y)) r r')
       a b

(* Feed [lines] to a fresh engine's run loop; the responses in arrival
   order. *)
let run_lines ?max_queue lines =
  let t = engine ?max_queue () in
  let remaining = ref lines and got = ref [] in
  let read ~block:_ =
    match !remaining with
    | [] -> `Eof
    | line :: rest ->
        remaining := rest;
        `Req (line, fun resp -> got := resp :: !got)
  in
  ignore (Server.run_loop t { Server.read; flush = (fun () -> ()) });
  List.rev_map
    (fun l ->
      match P.response_of_string l with
      | Ok r -> r
      | Error e -> Alcotest.failf "unparseable response %S: %s" l e)
    !got

(* ------------------------------------------------------ raw round trip *)

(* Cells the decimal form has trouble with, or cannot carry at all. *)
let special_cells =
  [| 0.; -0.; 5e-324; 2.2250738585072009e-308; Float.min_float;
     Float.max_float; -.Float.max_float; Float.infinity;
     Float.neg_infinity; Float.nan;
     Int64.float_of_bits 0x7ff0000000000001L (* signalling NaN *);
     Int64.float_of_bits 0x7ff8deadbeef0001L (* quiet NaN, payload *);
     Int64.float_of_bits 0xfff4000000000abcL (* negative NaN, payload *);
     1.5; 0.1; 1e300 |]

let matrix_gen =
  QCheck.make
    ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
    QCheck.Gen.(pair (int_range 1 40) (int_bound 1_000_000))

let matrix_of (n, seed) =
  let g = Core.Prelude.Rng.create seed in
  Array.init n (fun _ ->
      Array.init n (fun _ ->
          if Core.Prelude.Rng.int g 3 = 0 then
            special_cells.(Core.Prelude.Rng.int g (Array.length special_cells))
          else
            Int64.float_of_bits (Core.Prelude.Rng.int64 g)))

let prop_raw_round_trip =
  qcheck ~count:200 "inline matrix round-trips bit for bit" matrix_gen
    (fun spec ->
      let rows = matrix_of spec in
      let r =
        { P.id = "q"; op = P.Zeta; space = Some (P.Inline ("m", rows));
          trace = None }
      in
      let line = P.request_to_string r in
      (match J.member "space" (J.parse line) with
      | Some space ->
          if J.member "matrix" space <> None || J.mem_str "raw" space = None
          then QCheck.Test.fail_report "not sent in the raw form"
      | None -> QCheck.Test.fail_report "no space on the line");
      match P.request_of_string line with
      | Ok { P.space = Some (P.Inline ("m", rows')); id = "q"; op = P.Zeta; _ }
        ->
          rows_bit_equal rows rows'
      | Ok _ -> QCheck.Test.fail_report "decoded to another request"
      | Error e -> QCheck.Test.fail_report e)

let test_raw_is_the_file_format () =
  let d = random_asym_space ~n:7 41 in
  let path = Filename.temp_file "bgwire" ".bgd" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Io.save_raw d path;
  let file = In_channel.with_open_bin path In_channel.input_all in
  let rows = Array.init 7 (fun i -> Array.init 7 (fun j -> D.decay d i j)) in
  check_true "raw_of_rows writes the save_raw bytes"
    (String.equal file (Io.raw_of_rows rows));
  match Io.rows_of_raw file with
  | Ok rows' -> check_true "rows_of_raw reads them back" (rows_bit_equal rows rows')
  | Error e -> Alcotest.failf "rows_of_raw: %s" e

(* The matrix form a person types and the raw form every OCaml client
   sends name the same space: same cells, same digest, same answer. *)
let test_matrix_and_raw_forms_agree () =
  let rows =
    [| [| 0.; 1.5; 2.000000000000001 |]; [| 1.2; 0.; 3.1e-7 |];
       [| 2.; 0.1; 0. |] |]
  in
  let matrix_line =
    let cell v = Printf.sprintf "%.17g" v in
    let row r = "[" ^ String.concat "," (Array.to_list (Array.map cell r)) ^ "]" in
    Printf.sprintf
      {|{"id":"m","op":"summarize","space":{"name":"s","matrix":[%s]}}|}
      (String.concat "," (Array.to_list (Array.map row rows)))
  in
  let raw_line =
    P.request_to_string
      { P.id = "m"; op = P.Summarize; space = Some (P.Inline ("s", rows));
        trace = None }
  in
  let decoded line =
    match P.request_of_string line with
    | Ok ({ P.space = Some (P.Inline (_, rows')); _ } as r) -> (r, rows')
    | _ -> Alcotest.failf "did not decode to an inline space: %s" line
  in
  let rm, matrix_rows = decoded matrix_line and rr, raw_rows = decoded raw_line in
  check_true "same cells, bit for bit" (rows_bit_equal matrix_rows raw_rows);
  check_true "same digest"
    (D.digest (D.of_matrix matrix_rows) = D.digest (D.of_matrix raw_rows));
  let answer r =
    match Server.process_batch (engine ()) [ (r, Obs.now_s ()) ] with
    | [ P.Done { result; _ } ] -> J.to_string result
    | other ->
        Alcotest.failf "no answer: %s"
          (String.concat " | " (List.map P.response_to_string other))
  in
  Alcotest.(check string) "same answer" (answer rm) (answer rr)

(* A bit-at-a-time base64 encoder, independent of the codec's. *)
let reference_base64 s =
  let alphabet =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
  in
  let nbits = 8 * String.length s in
  let bit i = (Char.code s.[i / 8] lsr (7 - (i mod 8))) land 1 in
  let b = Buffer.create 64 in
  let i = ref 0 in
  while !i < nbits do
    let v = ref 0 in
    for k = 0 to 5 do
      v := (2 * !v) + if !i + k < nbits then bit (!i + k) else 0
    done;
    Buffer.add_char b alphabet.[!v];
    i := !i + 6
  done;
  while Buffer.length b mod 4 <> 0 do
    Buffer.add_char b '='
  done;
  Buffer.contents b

(* Every malformed raw payload is a typed error for its own request id,
   and the stream goes on. *)
let test_bad_raw_payloads_answer_errors () =
  let b64 = reference_base64 in
  let good = Io.raw_of_rows [| [| 0.; 2. |]; [| 3.; 0. |] |] in
  let line id raw =
    Printf.sprintf {|{"id":"%s","op":"zeta","space":{"name":"x","raw":"%s"}}|}
      id raw
  in
  let header n =
    let b = Bytes.create 16 in
    Bytes.blit_string "BGDECAY1" 0 b 0 8;
    Bytes.set_int64_le b 8 n;
    Bytes.to_string b
  in
  let flip i c s = String.mapi (fun k x -> if k = i then c else x) s in
  (* n = 3 is 88 bytes, so its base64 ends in "==". *)
  let good3 = b64 (Io.raw_of_rows (Array.make_matrix 3 3 1.)) in
  let cut s k = String.sub s 0 (String.length s - k) in
  let cases =
    [ ("char", flip 5 '*' (b64 good));
      ("bodychar", flip 40 '!' (b64 good));
      ("length", b64 good ^ "=");
      ("midpad", flip 8 '=' (b64 good));
      ("pad3", cut good3 3 ^ "===");
      ("pad-split", cut good3 4 ^ "A=B=");
      ("magic", b64 ("BGDECAY2" ^ String.sub good 8 (String.length good - 8)));
      ("short", b64 (String.sub good 0 (String.length good - 8)));
      ("long", b64 (good ^ String.make 8 '\000'));
      ("zero", b64 (header 0L));
      ("huge", b64 (header (Int64.shift_left 1L 40) ^ String.make 64 '\000'));
      ("empty", "") ]
  in
  let lines =
    List.map (fun (id, raw) -> line id raw) cases
    @ [ {|{"id":"notstring","op":"zeta","space":{"raw":7}}|} ]
  in
  let cases = cases @ [ ("notstring", "") ] in
  check_true "the n = 3 control decodes"
    (Result.is_ok (P.request_of_string (line "ok3" good3)));
  let ok_line =
    P.request_to_string
      { P.id = "fine"; op = P.Zeta;
        space = Some (P.Inline ("x", [| [| 0.; 2. |]; [| 3.; 0. |] |]));
        trace = None }
  in
  let responses = run_lines (lines @ [ ok_line ]) in
  List.iter
    (fun (id, _) ->
      match List.find_opt (fun r -> P.response_id r = id) responses with
      | Some (P.Failed { reason; _ }) ->
          check_true
            (Printf.sprintf "%s: reason names the payload (%s)" id reason)
            (String.length reason > 0)
      | Some r -> Alcotest.failf "%s: not an error: %s" id (P.response_to_string r)
      | None -> Alcotest.failf "%s: no answer" id)
    cases;
  check_true "a good request after them is answered"
    (List.exists
       (function P.Done { id = "fine"; _ } -> true | _ -> false)
       responses)

let test_raw_header_check_is_pure () =
  let header n =
    let b = Bytes.create 16 in
    Bytes.blit_string "BGDECAY1" 0 b 0 8;
    Bytes.set_int64_le b 8 n;
    Bytes.to_string b
  in
  let ok n len = Io.raw_node_count ~header:(header n) ~len = Ok (Int64.to_int n) in
  let err h len = Result.is_error (Io.raw_node_count ~header:h ~len) in
  check_true "n = 3 over 16 + 72 bytes" (ok 3L 88L);
  check_true "one byte short" (err (header 3L) 87L);
  check_true "n = 2^40 over a short payload" (err (header (Int64.shift_left 1L 40)) 80L);
  check_true "n = 2^32 whose square wraps to 0" (err (header (Int64.shift_left 1L 32)) 16L);
  check_true "negative n" (err (header (-1L)) 24L);
  check_true "short header" (err "BGDECAY1" 24L);
  check_true "wrong magic" (err ("X" ^ String.sub (header 1L) 1 15) 24L)

(* ------------------------------------------------ JSON string fast path *)

(* The escaping emitter as it was before the no-escape fast path. *)
let reference_escape s =
  let b = Buffer.create 16 in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_string_gen =
  QCheck.(
    string_gen_of_size Gen.(int_bound 40)
      Gen.(
        frequency
          [ (8, char_range 'a' 'z'); (1, oneofl [ '"'; '\\'; '\n'; '\t'; '\001'; '/' ]);
            (1, char_range '\128' '\255') ]))

let prop_json_strings =
  qcheck ~count:500 "JSON strings: same bytes out, same string back"
    json_string_gen (fun s ->
      let out = J.to_string (J.Str s) in
      String.equal out (reference_escape s)
      && J.parse out = J.Str s
      && J.parse (Printf.sprintf {|{"k":%s,"n":1}|} out)
         = J.Obj [ ("k", J.Str s); ("n", J.Num 1.) ])

let test_json_string_errors_unchanged () =
  let bad s =
    match J.parse s with _ -> false | exception J.Bad _ -> true
  in
  check_true "unterminated" (bad {|"abc|});
  check_true "unterminated after escape" (bad {|"a\"bc|});
  check_true "dangling escape" (bad {|"abc\|});
  check_true "bad escape" (bad {|"a\qb"|});
  check_true "escaped slash decodes" (J.parse {|"a\/b"|} = J.Str "a/b")

(* --------------------------------------------------------- Line_reader *)

(* What a line reader must return: complete lines, blank ones dropped,
   a trailing partial line withheld. *)
let reference_lines text =
  match List.rev (String.split_on_char '\n' text) with
  | [] -> []
  | _partial :: complete ->
      List.rev complete |> List.filter (fun l -> String.trim l <> "")

(* Push [text] through a nonblocking pipe in chunks of the given sizes
   (cycled), reading as it goes; the lines the reader hands back, then
   the partial-line count it reports once the writer has closed. *)
let through_reader text sizes =
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock r;
  Unix.set_nonblock w;
  let reader = Server.Line_reader.create r in
  let got = ref [] in
  let rec drain () =
    match Server.Line_reader.next ~block:false reader with
    | `Line l ->
        got := l :: !got;
        drain ()
    | `Nothing | `Eof -> ()
  in
  let len = String.length text and sizes = Array.of_list sizes in
  let off = ref 0 and k = ref 0 in
  while !off < len do
    let want = min (len - !off) (max 1 sizes.(!k mod Array.length sizes)) in
    incr k;
    let sent = ref 0 in
    while !sent < want do
      (match Unix.write_substring w text (!off + !sent) (want - !sent) with
      | n -> sent := !sent + n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
      Server.Line_reader.read_chunk reader;
      drain ()
    done;
    off := !off + want
  done;
  Unix.close w;
  let finished = ref false in
  while not !finished do
    match Server.Line_reader.next ~block:true reader with
    | `Line l -> got := l :: !got
    | `Eof -> finished := true
    | `Nothing -> ()
  done;
  let partial = Server.Line_reader.pending_partial reader in
  Unix.close r;
  (List.rev !got, partial)

let partial_of text =
  match String.rindex_opt text '\n' with
  | None -> String.length text
  | Some i -> String.length text - i - 1

let stream_gen =
  let open QCheck.Gen in
  let line =
    frequency
      [ (6, string_size ~gen:(char_range 'a' 'z') (int_bound 80));
        (1, return "");
        (1, oneofl [ " "; "\t \r"; "\012" ]);
        (1, string_size ~gen:(char_range 'a' 'z') (int_range 5000 70000)) ]
  in
  triple (list_size (int_bound 30) line)
    (oneofl [ ""; "tail-without-newline" ])
    (list_size (int_range 1 6) (int_range 1 9000))

let prop_line_reader_chunking =
  qcheck ~count:60 "Line_reader: any chunking gives the reference lines"
    (QCheck.make stream_gen) (fun (lines, tail, sizes) ->
      let text = String.concat "" (List.map (fun l -> l ^ "\n") lines) ^ tail in
      let got, partial = through_reader text sizes in
      got = reference_lines text && partial = partial_of text)

let test_line_reader_long_line () =
  let long = String.init 300_000 (fun i -> Char.chr (97 + (i mod 26))) in
  let text = "a\n\n" ^ long ^ "\n  \nb\n" ^ long ^ "x\n" in
  List.iter
    (fun sizes ->
      let got, partial = through_reader text sizes in
      check_true
        (Printf.sprintf "chunks %s" (String.concat "," (List.map string_of_int sizes)))
        (got = [ "a"; long; "b"; long ^ "x" ] && partial = 0))
    [ [ 65536 ]; [ 1000; 7 ]; [ 300_004 ]; [ 4095; 4097 ] ]

let test_line_reader_every_split () =
  let text = "{\"id\":1}\n\n  \n{\"id\":22}\r\nlast\nparti" in
  for k = 1 to String.length text - 1 do
    let got, partial = through_reader text [ k; String.length text ] in
    if got <> reference_lines text || partial <> partial_of text then
      Alcotest.failf "split at byte %d: got [%s], partial %d" k
        (String.concat "|" got) partial
  done

(* ----------------------------------------------------------- admission *)

(* A full queue rejects a request that did parse with that request's
   own id and trace context. *)
let test_queue_full_echoes_request () =
  let line id trace_id =
    P.request_to_string
      { P.id; op = P.Zeta;
        space = Some (P.Inline ("x", [| [| 0.; 2. |]; [| 3.; 0. |] |]));
        trace = Some { P.trace_id; parent_span = 7 } }
  in
  let responses =
    run_lines ~max_queue:1 [ line "first" "T1"; line "second" "T2" ]
  in
  match List.find_opt (fun r -> P.response_id r = "second") responses with
  | Some (P.Rejected { trace; _ }) ->
      check_true "trace context echoed"
        (trace = Some { P.trace_id = "T2"; parent_span = 7 })
  | Some r -> Alcotest.failf "not rejected: %s" (P.response_to_string r)
  | None -> Alcotest.fail "no answer with the request's id"

(* Over stdio, what is answered at admission reaches the client while
   stdin is still open, not at the next batch or EOF. *)
let test_stdio_answers_admission_promptly () =
  if not (Sys.file_exists bg_exe) then Alcotest.skip ()
  else begin
    let req_r, req_w = Unix.pipe ~cloexec:true () in
    let resp_r, resp_w = Unix.pipe ~cloexec:true () in
    let pid =
      Unix.create_process bg_exe [| bg_exe; "serve"; "-j"; "1" |] req_r resp_w
        Unix.stderr
    in
    Unix.close req_r;
    Unix.close resp_w;
    let reader = Server.Line_reader.create resp_r in
    let rec answer deadline =
      match Server.Line_reader.next ~block:false reader with
      | `Line l -> Some l
      | `Eof -> None
      | `Nothing ->
          let left = deadline -. Unix.gettimeofday () in
          if left <= 0. then None
          else begin
            ignore (Unix.select [ resp_r ] [] [] left);
            answer deadline
          end
    in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close req_w with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        Unix.close resp_r)
    @@ fun () ->
    List.iter
      (fun (what, line, expect) ->
        let s = line ^ "\n" in
        ignore (Unix.write_substring req_w s 0 (String.length s));
        match answer (Unix.gettimeofday () +. 1.) with
        | None -> Alcotest.failf "%s: no answer within 1 s" what
        | Some l -> (
            match P.response_of_string l with
            | Ok r when expect r -> ()
            | _ -> Alcotest.failf "%s: unexpected answer %s" what l))
      [ ( "ping",
          {|{"id":"hp","op":"ping"}|},
          function P.Done { id = "hp"; op_name = "ping"; _ } -> true | _ -> false );
        ( "metrics",
          {|{"id":"mx","op":"metrics"}|},
          function P.Done { id = "mx"; op_name = "metrics"; _ } -> true | _ -> false );
        ( "malformed line",
          {|{"id":"bad","op":|},
          function P.Failed _ -> true | _ -> false );
        ( "unknown op",
          {|{"id":"u","op":"warp"}|},
          function P.Failed { id = "u"; _ } -> true | _ -> false ) ]
  end

let suite =
  [
    ( "wire.raw",
      [
        prop_raw_round_trip;
        case "raw bytes are the save_raw file" test_raw_is_the_file_format;
        case "matrix and raw forms agree" test_matrix_and_raw_forms_agree;
        case "bad raw payloads answer typed errors"
          test_bad_raw_payloads_answer_errors;
        case "header check is pure and overflow-safe"
          test_raw_header_check_is_pure;
      ] );
    ( "wire.json",
      [
        prop_json_strings;
        case "string errors unchanged" test_json_string_errors_unchanged;
      ] );
    ( "wire.line_reader",
      [
        prop_line_reader_chunking;
        case "lines of 300 KB" test_line_reader_long_line;
        case "a split at every byte" test_line_reader_every_split;
      ] );
    ( "wire.admission",
      [
        case "queue-full rejection echoes the request"
          test_queue_full_echoes_request;
        case "stdio answers admission without EOF"
          test_stdio_answers_admission_promptly;
      ] );
  ]
