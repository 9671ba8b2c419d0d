(* A closed-loop client for a real `bg serve` subprocess over one pipe
   pair.

   Each request is timed from the client's own Protocol.request_to_string
   call to its decoded Protocol.response_of_string answer, so the codec
   cost a real client pays is inside every latency sample.  At most
   [window] requests are in flight; the next one is encoded and sent only
   when an answer arrives. *)

module P = Bg_serve.Protocol
module Line_reader = Bg_serve.Server.Line_reader

let now = Unix.gettimeofday

type daemon = {
  pid : int;
  req_w : Unix.file_descr;
  resp_r : Unix.file_descr;
  reader : Line_reader.t;
}

(* Spawn `bg serve -j 1 --cache CACHE`, its stderr going to [log]. *)
let spawn ~bg ~cache ~log =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let argv = [| bg; "serve"; "-j"; "1"; "--cache"; cache |] in
  let pid = Unix.create_process bg argv req_r resp_w err in
  List.iter Unix.close [ req_r; resp_w; err ];
  { pid; req_w; resp_r; reader = Line_reader.create resp_r }

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len

let send d line =
  let s = line ^ "\n" in
  write_all d.req_w s 0 (String.length s)

let rec next_line d =
  match Line_reader.next ~block:true d.reader with
  | `Line l -> Some l
  | `Eof -> None
  | `Nothing -> next_line d

(* Block until the daemon answers a ping.  Over stdio the daemon writes
   a ping answer out only with the next batch's replies, so a probe that
   is queued and fails (a file that does not exist) follows it; the
   probe leaves nothing in the store. *)
let ping d ~missing_file =
  send d (P.request_to_string { P.id = "ping"; op = P.Ping; space = None; trace = None });
  send d
    (P.request_to_string
       { P.id = "probe"; op = P.Summarize; space = Some (P.File missing_file); trace = None });
  let answer () =
    match next_line d with
    | Some l -> (
        match P.response_of_string l with
        | Ok r -> r
        | Error _ -> failwith ("bg serve: bad answer during start-up: " ^ l))
    | None -> failwith "bg serve: exited before answering ping"
  in
  let a = answer () in
  let b = answer () in
  match (a, b) with
  | P.Done { id = "ping"; _ }, P.Failed { id = "probe"; _ } -> ()
  | _ -> failwith "bg serve: unexpected answers to ping and probe"

(* Close the daemon's stdin, drain its output and reap it; its exit
   status. *)
let shutdown d =
  (try Unix.close d.req_w with Unix.Unix_error _ -> ());
  while next_line d <> None do () done;
  Unix.close d.resp_r;
  snd (Unix.waitpid [] d.pid)

type answer = {
  item : Workload.item;
  resp : P.response;
  latency_s : float;
  answered_at : float;
}

type outcome = {
  sent : Workload.item list;  (** in send order *)
  answers : answer list;  (** in arrival order *)
  lost : int;  (** in flight when the daemon closed its output *)
  corrupt : int;  (** lines that failed to decode or named no request *)
}

(* Closed loop: keep [window] requests in flight, drawing them from
   [next] until it returns [None] or [stop ()] holds, then drain.
   [on_answer] sees each answer as it arrives, before the next send. *)
let closed_loop ~window ?(stop = fun () -> false) ?(on_answer = ignore) d next =
  let inflight = Hashtbl.create 16 in
  let sent = ref [] and answers = ref [] and corrupt = ref 0 in
  let exhausted = ref false in
  let fill () =
    while (not !exhausted) && Hashtbl.length inflight < window do
      if stop () then exhausted := true
      else
        match next () with
        | None -> exhausted := true
        | Some (item : Workload.item) ->
            let t0 = now () in
            send d (P.request_to_string item.req);
            Hashtbl.replace inflight item.req.P.id (item, t0);
            sent := item :: !sent
    done
  in
  fill ();
  let closed = ref false in
  while Hashtbl.length inflight > 0 && not !closed do
    match next_line d with
    | None -> closed := true
    | Some line -> (
        match P.response_of_string line with
        | Error _ -> incr corrupt
        | Ok resp -> (
            let t1 = now () in
            match Hashtbl.find_opt inflight (P.response_id resp) with
            | None -> incr corrupt
            | Some (item, t0) ->
                Hashtbl.remove inflight item.req.P.id;
                let a = { item; resp; latency_s = t1 -. t0; answered_at = t1 } in
                answers := a :: !answers;
                on_answer a;
                fill ()))
  done;
  {
    sent = List.rev !sent;
    answers = List.rev !answers;
    lost = Hashtbl.length inflight;
    corrupt = !corrupt;
  }

(* ------------------------------------------------ process accounting *)

(* VmHWM of [pid] in MB. *)
let proc_peak_rss_mb pid =
  In_channel.with_open_bin (Printf.sprintf "/proc/%d/status" pid) In_channel.input_lines
  |> List.find_map (fun l ->
         match String.split_on_char ':' l with
         | [ "VmHWM"; v ] ->
             Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some (float_of_int kb /. 1024.))
         | _ -> None)
  |> Option.value ~default:0.

(* CPU seconds of every thread of [pid], at nanosecond resolution: the
   first field of each /proc/PID/task/TID/schedstat.  Fine enough to
   time a block of a few dozen requests, where clock ticks are not. *)
let task_cpu_s pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match
        In_channel.with_open_bin (Filename.concat (Filename.concat dir tid) "schedstat")
          In_channel.input_all
      with
      | s -> acc +. (float_of_string (List.hd (String.split_on_char ' ' s)) *. 1e-9)
      | exception Sys_error _ -> acc (* a thread that ended meanwhile *))
    0. (Sys.readdir dir)
