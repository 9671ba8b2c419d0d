(* Cross-cutting algebraic laws of the model, checked property-style: the
   invariants one would quote in a code review of the paper's definitions.
   Also covers the subsampled metricity estimator and the bursty arrival
   processes. *)

open Testutil
module D = Core.Decay.Decay_space
module Met = Core.Decay.Metricity
module Est = Core.Decay.Estimators
module I = Core.Sinr.Instance
module Pw = Core.Sinr.Power
module Aff = Core.Sinr.Affectance
module F = Core.Sinr.Feasibility

(* -------------------------------------------------------- Metricity laws *)

let prop_zeta_monotone_under_subspace =
  qcheck ~count:40 "zeta(sub-space) <= zeta(space)" QCheck.small_int
    (fun seed ->
      let d = random_asym_space ~n:8 seed in
      let g = rng (seed + 1) in
      let idx = Core.Prelude.Rng.sample g 5 (Array.init 8 Fun.id) in
      Met.zeta (D.sub_space d idx) <= Met.zeta d +. 1e-9)

let prop_phi_monotone_under_subspace =
  qcheck ~count:40 "phi(sub-space) <= phi(space)" QCheck.small_int
    (fun seed ->
      let d = random_asym_space ~n:8 seed in
      let g = rng (seed + 2) in
      let idx = Core.Prelude.Rng.sample g 5 (Array.init 8 Fun.id) in
      Met.phi (D.sub_space d idx) <= Met.phi d +. 1e-9)

let prop_zeta_estimate_lower_bound =
  qcheck ~count:25 "subsampled zeta never exceeds exact" QCheck.small_int
    (fun seed ->
      let d = random_space ~n:10 seed in
      let e =
        Est.zeta ~replicates:4 ~nodes:6 (rng (seed + 3)) (Est.of_space d)
      in
      e.Est.point <= Met.zeta d +. 1e-9)

let prop_zeta_invariant_under_symmetrize_of_symmetric =
  qcheck ~count:25 "symmetrize is identity on symmetric spaces"
    QCheck.small_int
    (fun seed ->
      let d = random_space ~n:6 seed in
      D.matrix d = D.matrix (D.symmetrize d))

let prop_pow_scales_zeta =
  qcheck ~count:25 "zeta(f^e) = e * zeta(f) when both >= 1" QCheck.small_int
    (fun seed ->
      let d = random_space ~n:6 seed in
      let z = Met.zeta d in
      let e = 1.5 in
      (* Only exact when the base zeta is attained away from the floor. *)
      z <= 1.0001
      || Float.abs (Met.zeta (D.pow e d) -. (e *. z)) < 0.01 *. e *. z)

let prop_scale_bounds_zeta_change =
  qcheck ~count:25 "scaling by k >= 1 can only lower zeta toward 1"
    QCheck.small_int
    (fun seed ->
      (* f -> k*f with k >= 1 makes ratios closer to 1 in the exponent
         sense: zeta(k f) <= zeta(f) is NOT a theorem in general, but the
         upper bound certainly holds; check the a-priori bound only. *)
      let d = random_space ~n:6 seed in
      Met.zeta (D.scale 5. d) <= Met.zeta_upper_bound (D.scale 5. d) +. 1e-9)

(* ------------------------------------------------------- Affectance laws *)

let prop_affectance_additive_in_sets =
  qcheck ~count:30 "in-affectance is additive over disjoint sets"
    QCheck.small_int
    (fun seed ->
      let t = planar_instance ~n_links:8 seed in
      let p = Pw.uniform 1. in
      let all = Array.to_list t.I.links in
      match all with
      | lv :: rest ->
          let half1 = List.filteri (fun i _ -> i mod 2 = 0) rest in
          let half2 = List.filteri (fun i _ -> i mod 2 = 1) rest in
          let a1 = Aff.in_affectance t p half1 lv in
          let a2 = Aff.in_affectance t p half2 lv in
          let a = Aff.in_affectance t p rest lv in
          Float.abs (a -. (a1 +. a2)) < 1e-9
      | [] -> true)

let prop_affectance_scale_invariant_uniform_power =
  qcheck ~count:30 "affectance invariant under decay scaling (uniform power)"
    QCheck.small_int
    (fun seed ->
      let t = planar_instance ~n_links:5 seed in
      let p = Pw.uniform 1. in
      let pairs =
        Array.to_list
          (Array.map
             (fun l -> (l.Core.Sinr.Link.sender, l.Core.Sinr.Link.receiver))
             t.I.links)
      in
      let t2 = I.make ~zeta:t.I.zeta (D.scale 3. t.I.space) pairs in
      let a = t.I.links.(0) and b = t.I.links.(1) in
      let a2 = t2.I.links.(0) and b2 = t2.I.links.(1) in
      Float.abs
        (Aff.affectance t p ~from_:a ~to_:b
        -. Aff.affectance t2 p ~from_:a2 ~to_:b2)
      < 1e-9)

let prop_sinr_antitone_in_interferers =
  qcheck ~count:30 "SINR only drops as transmitters join" QCheck.small_int
    (fun seed ->
      let t = planar_instance ~n_links:6 seed in
      let p = Pw.uniform 1. in
      match Array.to_list t.I.links with
      | lv :: rest ->
          let rec prefixes acc = function
            | [] -> [ acc ]
            | l :: tl -> acc :: prefixes (l :: acc) tl
          in
          let chains = prefixes [ lv ] rest in
          let sinrs = List.map (fun set -> F.sinr t p set lv) chains in
          let rec decreasing = function
            | a :: (b :: _ as tl) -> a >= b -. 1e-9 && decreasing tl
            | _ -> true
          in
          decreasing sinrs
      | [] -> true)

(* ----------------------------------------------------------- Solver laws *)

let prop_alg1_subset_of_links =
  qcheck ~count:25 "alg1 output is a sub-multiset of the instance"
    QCheck.small_int
    (fun seed ->
      let t = planar_instance ~n_links:9 seed in
      let s = Core.Capacity.Alg1.run t in
      let ids_all = Array.to_list (Array.map (fun l -> l.Core.Sinr.Link.id) t.I.links) in
      List.for_all (fun l -> List.mem l.Core.Sinr.Link.id ids_all) s
      && List.length (List.sort_uniq compare (ids s)) = List.length s)

let prop_exact_invariant_under_link_order =
  qcheck ~count:15 "exact capacity size invariant under link permutation"
    QCheck.small_int
    (fun seed ->
      let t = planar_instance ~n_links:8 seed in
      let g = rng (seed + 5) in
      let arr = Array.copy t.I.links in
      Core.Prelude.Rng.shuffle g arr;
      let t2 = I.with_links t arr in
      List.length (Core.Capacity.Exact.capacity t)
      = List.length (Core.Capacity.Exact.capacity t2))

let prop_schedule_length_lower_bound =
  qcheck ~count:20 "slots >= n / max-slot-size" QCheck.small_int (fun seed ->
      let t = planar_instance ~n_links:10 seed in
      let sched = Core.Sched.Scheduler.first_fit t in
      let max_slot =
        List.fold_left (fun a s -> max a (List.length s)) 1 sched
      in
      Core.Sched.Scheduler.length sched * max_slot >= 10)

let prop_rayleigh_product_form =
  qcheck ~count:25 "success probability factorizes over interferers"
    QCheck.small_int
    (fun seed ->
      let t = planar_instance ~n_links:5 seed in
      let p = Pw.uniform 1. in
      match Array.to_list t.I.links with
      | lv :: i1 :: i2 :: _ ->
          let p0 = Core.Sinr.Rayleigh.success_probability t p ~interferers:[ lv ] lv in
          let p1 = Core.Sinr.Rayleigh.success_probability t p ~interferers:[ lv; i1 ] lv in
          let p2 = Core.Sinr.Rayleigh.success_probability t p ~interferers:[ lv; i2 ] lv in
          let p12 =
            Core.Sinr.Rayleigh.success_probability t p ~interferers:[ lv; i1; i2 ] lv
          in
          (* N = 0 here, so p0 = 1 and p12 = p1 * p2. *)
          Float.abs (p12 -. (p1 *. p2 /. Float.max 1e-12 p0)) < 1e-9
      | _ -> true)

(* ----------------------------------------------------- Arrival processes *)

let test_batch_process_mean () =
  let t = planar_instance ~n_links:4 ~side:100. 61 in
  let rates = Array.make 4 0.3 in
  let run process seed =
    Core.Sched.Dynamic.run ~slots:4000 ~process
      ~policy:Core.Sched.Dynamic.Longest_queue_first ~arrival_rates:rates
      (rng seed) t
  in
  let bern = run Core.Sched.Dynamic.Bernoulli 62 in
  let batch = run (Core.Sched.Dynamic.Batch 5) 63 in
  (* Same mean arrivals within sampling noise. *)
  let m1 = float_of_int bern.Core.Sched.Dynamic.arrived /. 4000. in
  let m2 = float_of_int batch.Core.Sched.Dynamic.arrived /. 4000. in
  check_float ~eps:0.1 "means agree" m1 m2;
  (* Burstier arrivals hurt backlog (weakly). *)
  check_true "batch backlog >= bernoulli"
    (batch.Core.Sched.Dynamic.mean_backlog
    >= bern.Core.Sched.Dynamic.mean_backlog -. 0.5)

let test_onoff_process_runs () =
  let t = planar_instance ~n_links:4 ~side:100. 64 in
  let rates = Array.make 4 0.2 in
  let r =
    Core.Sched.Dynamic.run ~slots:3000
      ~process:(Core.Sched.Dynamic.On_off { burst = 20.; idle = 60. })
      ~policy:Core.Sched.Dynamic.Longest_queue_first ~arrival_rates:rates
      (rng 65) t
  in
  let mean = float_of_int r.Core.Sched.Dynamic.arrived /. 3000. /. 4. in
  check_float ~eps:0.08 "on-off preserves mean rate" 0.2 mean;
  check_true "stable under light bursty load" r.Core.Sched.Dynamic.stable

let test_process_validation () =
  let t = planar_instance ~n_links:2 66 in
  Alcotest.check_raises "batch size"
    (Invalid_argument "Dynamic.run: batch size must be >= 1") (fun () ->
      ignore
        (Core.Sched.Dynamic.run ~process:(Core.Sched.Dynamic.Batch 0)
           ~policy:Core.Sched.Dynamic.Longest_queue_first
           ~arrival_rates:[| 0.1; 0.1 |] (rng 67) t));
  Alcotest.check_raises "burst length"
    (Invalid_argument "Dynamic.run: burst/idle lengths must be positive")
    (fun () ->
      ignore
        (Core.Sched.Dynamic.run
           ~process:(Core.Sched.Dynamic.On_off { burst = 0.; idle = 1. })
           ~policy:Core.Sched.Dynamic.Longest_queue_first
           ~arrival_rates:[| 0.1; 0.1 |] (rng 68) t))

(* --------------------------------------------------- Subsampled metricity *)

let test_zeta_estimate_finds_concentrated_violation () =
  (* Embed a three-point violation inside an otherwise metric space:
     node-subsampling finds it once the triple is drawn together. *)
  let base = Core.Decay.Spaces.three_point ~q:1e6 in
  let n = 9 in
  let d =
    D.of_fn ~name:"hidden" n (fun i j ->
        if i < 3 && j < 3 then D.decay base i j else 1e6)
  in
  let est = Est.zeta ~replicates:60 ~nodes:5 (rng 71) (Est.of_space d) in
  check_true "finds the planted triple" (est.Est.point > 5.)

let test_zeta_estimate_validation () =
  let d = random_space ~n:5 72 in
  Alcotest.check_raises "nodes range"
    (Invalid_argument "zeta_sub: need 3 <= nodes <= n")
    (fun () -> ignore (Est.zeta ~nodes:2 (rng 73) (Est.of_space d)))

let suite =
  [
    ( "laws.metricity",
      [
        prop_zeta_monotone_under_subspace;
        prop_phi_monotone_under_subspace;
        prop_zeta_estimate_lower_bound;
        prop_zeta_invariant_under_symmetrize_of_symmetric;
        prop_pow_scales_zeta;
        prop_scale_bounds_zeta_change;
        case "subsample finds planted violation"
          test_zeta_estimate_finds_concentrated_violation;
        case "subsample validation" test_zeta_estimate_validation;
      ] );
    ( "laws.affectance",
      [
        prop_affectance_additive_in_sets;
        prop_affectance_scale_invariant_uniform_power;
        prop_sinr_antitone_in_interferers;
        prop_rayleigh_product_form;
      ] );
    ( "laws.solvers",
      [
        prop_alg1_subset_of_links;
        prop_exact_invariant_under_link_order;
        prop_schedule_length_lower_bound;
      ] );
    ( "laws.arrivals",
      [
        case "batch preserves mean" test_batch_process_mean;
        case "on-off preserves mean" test_onoff_process_runs;
        case "process validation" test_process_validation;
      ] );
  ]
