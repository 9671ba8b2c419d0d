(* The yardstick: a fixed unit of CPU work that does not touch the
   program.  Float formatting and parsing, with the allocation they
   bring, as the wire codec does, and a min-plus triple loop over a
   float matrix, as the kernels do.  Timed beside a workload, in the
   same run and on the same CPU, it tells how fast the host is running
   at the time; the benchmark gives its times at the speed at which one
   unit takes [reference_s] (see perfbench/README.md, Yardstick). *)

(* run.py's YARDSTICK_REFERENCE_S, which the tests hold equal. *)
let reference_s = 1e-3

let side = 40
let matrix = Array.init (side * side) (fun k -> 1. +. float_of_int (k * 7919 mod 101))

let unit_of_work () =
  let acc = ref 0. in
  for i = 1 to 1200 do
    acc := !acc +. float_of_string (Printf.sprintf "%.17g" (float_of_int i *. 1.000123))
  done;
  for x = 0 to side - 1 do
    for y = 0 to side - 1 do
      let best = ref matrix.((x * side) + y) in
      for z = 0 to side - 1 do
        let v = matrix.((x * side) + z) +. matrix.((z * side) + y) in
        if v < !best then best := v
      done;
      acc := !acc +. !best
    done
  done;
  !acc

(* Wall seconds of each of [reps] units. *)
let time ~reps =
  List.init reps (fun _ ->
      let t0 = Unix.gettimeofday () in
      ignore (Sys.opaque_identity (unit_of_work ()));
      Unix.gettimeofday () -. t0)
