(* The correctness gate: every ok answer of a run is compared, bit for
   bit, against a fresh in-process computation by an uncached, -j 1
   engine with no store — the ground truth E30 checks its cached answers
   against.  Each distinct question is recomputed once; every answer to
   it must equal that recomputation. *)

module P = Bg_serve.Protocol
module J = Obs_tools.Jsonl
module Server = Bg_serve.Server
module Ctx = Core.Decay.Ctx
module Obs = Core.Prelude.Obs

let bits f = Int64.bits_of_float f

(* Non-finite floats travel as strings on the wire (see Jsonl), so a
   string is compared through its float reading. *)
let same_float x y = Float.is_nan x && Float.is_nan y || Int64.equal (bits x) (bits y)

let rec same_bits a b =
  match (a, b) with
  | J.Num x, J.Num y -> same_float x y
  | J.Str s, J.Num y | J.Num y, J.Str s -> (
      match float_of_string_opt s with Some x -> same_float x y | None -> false)
  | J.Obj xs, J.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, x) (l, y) -> k = l && same_bits x y) xs ys
  | J.Arr xs, J.Arr ys ->
      List.length xs = List.length ys && List.for_all2 same_bits xs ys
  | (J.Null | J.Bool _ | J.Str _), _ -> a = b
  | _ -> false

let reference_engine () =
  Server.create
    { Server.default_config with ctx = Ctx.make ~jobs:1 ~cache:false () }

(* The exact answer to [req], or [None] if the reference engine does not
   answer ok. *)
let recompute engine (req : P.request) =
  match Server.process_batch engine [ (req, Obs.now_s ()) ] with
  | [ P.Done { result; degraded = false; _ } ] -> Some result
  | _ -> None

(* Count the answers in [(item, result)] that differ from the ground
   truth of a fresh reference engine. *)
let mismatches answers =
  let engine = reference_engine () in
  let expected = Hashtbl.create 256 in
  List.fold_left
    (fun bad ((item : Workload.item), result) ->
      let want =
        match Hashtbl.find_opt expected item.key with
        | Some w -> w
        | None ->
            let w = recompute engine item.req in
            Hashtbl.add expected item.key w;
            w
      in
      match want with
      | Some w when same_bits w result -> bad
      | _ -> bad + 1)
    0 answers
