(* Seeded request traces for the benchmark's serve workloads.

   Every input is a pure function of the seed, built here from Rng and
   Spaces and never from Loadgen.generate, so a change to the program's
   own load generator cannot change what the benchmark measures.  The
   same seed gives byte-identical request lines and matrix files; a
   different seed gives different ones.

   - serve-hot: 200 random-perturbed spaces of 24 nodes, carried inline
     on every request, drawn by a zipf(1.1) law with the 60/20/10/5/5
     zeta/phi/gamma/summarize/estimate op mix.  Most requests are store
     hits, so the wire codec and the space digest dominate.
   - serve-cold-files: 192-node raw matrices named by file, each asked
     zeta, phi and gamma once.  No (space, op) key ever repeats, so every
     request is an mmap load, a kernel sweep and a WAL append.

   experiment-suite has no generated inputs: the registry fixes them. *)

module P = Bg_serve.Protocol
module D = Core.Decay.Decay_space
module Io = Core.Decay.Decay_io
module Spaces = Core.Decay.Spaces
module Rng = Core.Prelude.Rng

type kind = Serve_hot | Serve_cold_files

let kinds = [ Serve_hot; Serve_cold_files ]

let name = function Serve_hot -> "serve-hot" | Serve_cold_files -> "serve-cold-files"

let of_name s = List.find_opt (fun k -> name k = s) kinds

(* One request of a trace.  [key] names the question it asks (space and
   op parameters): equal keys must get bit-identical answers. *)
type item = { req : P.request; key : string }

type trace = {
  warmup : item list;  (** sent before the clock starts *)
  next : unit -> item option;  (** the timed requests, in order *)
}

let of_list items =
  let rest = ref items in
  fun () ->
    match !rest with
    | [] -> None
    | x :: tail ->
        rest := tail;
        Some x

let random_space rng ~n =
  Spaces.perturbed rng ~alpha:3. ~sigma:0.8
    (Spaces.random_points rng ~n ~side:100.)

let matrix space =
  let n = D.n space in
  Array.init n (fun i -> Array.init n (fun j -> D.decay space i j))

let item ~id ~space_name op space =
  {
    req = { P.id; op; space = Some space; trace = None };
    key = space_name ^ "/" ^ P.op_key op;
  }

(* ------------------------------------------------------------ serve-hot *)

let hot_spaces = 200
let hot_nodes = 24
let hot_zipf_s = 1.1

let zipf_cdf ~s ~n =
  let cdf = Array.make n 0. in
  let total = ref 0. in
  for k = 0 to n - 1 do
    total := !total +. (float_of_int (k + 1) ** -.s);
    cdf.(k) <- !total
  done;
  Array.map (fun c -> c /. !total) cdf

let zipf_rank rng cdf =
  let u = Rng.float rng 1. in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* The op at quantile [u] of the mix.  The estimate design is derived
   from the rank, so a repeated space repeats the whole cache key. *)
let hot_mix_op u ~rank =
  if u < 0.60 then P.Zeta
  else if u < 0.80 then P.Phi
  else if u < 0.90 then P.Gamma 4.
  else if u < 0.95 then P.Summarize
  else P.Estimate { nodes = 16; replicates = 4; seed = rank }

let hot_op rng ~rank = hot_mix_op (Rng.float rng 1.) ~rank

(* The warm-up's op for a pool space: the mix in a fixed order, 12 zeta,
   4 phi, 2 gamma, 1 summarize and 1 estimate in every 20 ranks, so the
   warm-up, which set-up time includes, does the same work on every
   seed. *)
let warmup_op ~rank = hot_mix_op ((float_of_int (rank mod 20) +. 0.5) /. 20.) ~rank

(* An endless stream of timed requests over the pool, drawn as they are
   sent, so no trace is held in memory and none is ever replayed twice;
   the warm-up is one request per pool space ({!warmup_op}). *)
let serve_hot ~seed =
  let rng = Rng.create seed in
  let space_rng = Rng.split rng and trace_rng = Rng.split rng in
  let pool =
    Array.init hot_spaces (fun rank ->
        let space_name = Printf.sprintf "hot-%d-%d" seed rank in
        (space_name, matrix (random_space (Rng.split space_rng) ~n:hot_nodes)))
  in
  let inline rank =
    let space_name, rows = pool.(rank) in
    (space_name, P.Inline (space_name, rows))
  in
  let warmup =
    List.init hot_spaces (fun rank ->
        let space_name, spec = inline rank in
        item ~id:(Printf.sprintf "w%06d" rank) ~space_name (warmup_op ~rank) spec)
  in
  let cdf = zipf_cdf ~s:hot_zipf_s ~n:hot_spaces in
  let i = ref 0 in
  let next () =
    let rank = zipf_rank trace_rng cdf in
    let op = hot_op trace_rng ~rank in
    let space_name, spec = inline rank in
    incr i;
    Some (item ~id:(Printf.sprintf "r%06d" (!i - 1)) ~space_name op spec)
  in
  { warmup; next }

(* ----------------------------------------------------- serve-cold-files *)

let cold_nodes = 192
let cold_bases = 64
let cold_warmup = 6
let cold_ops = [| P.Zeta; P.Phi; P.Gamma 4. |]

(* A distinct matrix per file, cheaply: a fresh random node relabelling
   of one of [cold_bases] generated spaces.  Each file is asked zeta,
   phi and gamma once each, at shuffled points of the trace, so no
   (space, op) key repeats.  Files are fsynced as they are written, so
   the daemon's journal fsyncs never wait on their writeback. *)
let serve_cold_files ~seed ~requests ~dir =
  let rng = Rng.create seed in
  let bases = Array.init cold_bases (fun _ -> random_space (Rng.split rng) ~n:cold_nodes) in
  let perm_rng = Rng.split rng and order_rng = Rng.split rng in
  let write_file space_name =
    let base = bases.(Rng.int perm_rng cold_bases) in
    let p = Array.init cold_nodes Fun.id in
    Rng.shuffle perm_rng p;
    let path = Filename.concat dir space_name in
    Io.save_raw_fn ~n:cold_nodes (fun i j -> D.decay base p.(i) p.(j)) path;
    let fd = Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd);
    (space_name, P.File path)
  in
  let warmup =
    List.init cold_warmup (fun i ->
        let space_name, spec = write_file (Printf.sprintf "w%06d.bgd" i) in
        item ~id:(Printf.sprintf "w%06d" i) ~space_name cold_ops.(i mod 3) spec)
  in
  let files = (requests + 2) / 3 in
  let pairs =
    Array.init (3 * files) (fun k -> (k / 3, cold_ops.(k mod 3)))
  in
  Rng.shuffle order_rng pairs;
  let specs = Array.init files (fun f -> write_file (Printf.sprintf "f%06d.bgd" f)) in
  let timed =
    List.mapi
      (fun i (f, op) ->
        let space_name, spec = specs.(f) in
        item ~id:(Printf.sprintf "r%06d" i) ~space_name op spec)
      (Array.to_list pairs)
  in
  { warmup; next = of_list timed }

(* [requests] bounds serve-cold-files, whose files are written ahead;
   serve-hot is endless. *)
let generate kind ~seed ~requests ~dir =
  match kind with
  | Serve_hot -> serve_hot ~seed
  | Serve_cold_files -> serve_cold_files ~seed ~requests ~dir
