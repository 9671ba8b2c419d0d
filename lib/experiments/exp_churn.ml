(* E31 — scheduling under mobility churn.

   A 40-step random-waypoint trace over a shadowed geometric base; ζ, φ
   and γ are per-snapshot quantities, so each step's space goes through
   the plain kernels (a step that moved nobody is a digest-keyed memo
   hit).  On top of the trace: the t=0 capacity schedule is re-checked
   for SINR feasibility each step, and longest-queue-first dynamic
   scheduling is re-run on the drifted final space. *)

module T = Core.Prelude.Table
module Rng = Core.Prelude.Rng
module Decay = Core.Decay
module Evolve = Decay.Evolve
module Metricity = Decay.Metricity
module Fading = Decay.Fading
module I = Core.Sinr.Instance
module Feas = Core.Sinr.Feasibility
module Power = Core.Sinr.Power
module Dynamic = Core.Sched.Dynamic

let steps = 40
let r_sep = 4.

let lqf_stable space pairs ~zeta seed =
  let inst = I.make ~zeta space pairs in
  let rates = Array.make (List.length pairs) 0.12 in
  let res =
    Dynamic.run ~slots:1500 ~policy:Dynamic.Longest_queue_first
      ~arrival_rates:rates (Rng.create seed) inst
  in
  res.Dynamic.stable

let e31_churn_scheduling () =
  let cfg =
    {
      Evolve.default with
      n = 36;
      side = 25.;
      speed_min = 0.5;
      speed_max = 1.5;
      pause_min = 8.;
      pause_max = 20.;
      corr_dist = 8.;
      shadow_std_db = 4.;
    }
  in
  let ev = Evolve.create ~name:"e31" ~seed:3101 cfg in
  let space0 = Evolve.space ev in
  let zeta0 = Metricity.zeta space0 and gamma0 = Fading.gamma space0 ~r:r_sep in
  (* A t=0 workload: links sampled from the initial space, scheduled by
     exact capacity search. *)
  let inst0 =
    I.random_links_in_space ~zeta:zeta0 (Rng.create 3102) ~n_links:8
      ~max_decay:600. space0
  in
  let pairs =
    Array.to_list
      (Array.map
         (fun l -> (l.Core.Sinr.Link.sender, l.Core.Sinr.Link.receiver))
         inst0.I.links)
  in
  let schedule = Core.Capacity.Exact.capacity inst0 in
  let sched_ids =
    List.map (fun l -> l.Core.Sinr.Link.id) schedule
  in
  let power = Power.uniform 1. in
  let t =
    T.create ~title:"E31  Churn: per-step analysis + schedule survival under mobility"
      [ "step"; "dirty"; "zeta"; "phi"; "gamma"; "sched ok" ]
  in
  let survival = ref steps in
  let max_dzeta = ref 0. and max_dgamma = ref 0. in
  (* One snapshot: ζ/φ/γ on the current space, and whether the t=0
     schedule is still SINR-feasible there. *)
  let observe step dirty space =
    let zeta = Metricity.zeta space in
    let gamma = Fading.gamma space ~r:r_sep in
    let inst_t = I.make ~zeta space pairs in
    let links_t =
      List.filter
        (fun l -> List.mem l.Core.Sinr.Link.id sched_ids)
        (Array.to_list inst_t.I.links)
    in
    let feas = Feas.is_feasible inst_t power links_t in
    if step mod 5 = 0 then
      T.add_row t
        [
          T.I step; T.I dirty; T.F zeta; T.F (Metricity.phi space); T.F gamma;
          T.S (if feas then "feasible" else "broken");
        ];
    (zeta, gamma, feas)
  in
  ignore (observe 0 0 space0);
  for s = 1 to steps do
    let space, dirty = Evolve.step ev in
    let zeta, gamma, feas = observe s (Array.length dirty) space in
    if (not feas) && !survival = steps then survival := s - 1;
    max_dzeta := Float.max !max_dzeta (Float.abs (zeta -. zeta0));
    max_dgamma := Float.max !max_dgamma (Float.abs (gamma -. gamma0))
  done;
  let final = Evolve.space ev in
  let stable0 = lqf_stable inst0.I.space pairs ~zeta:zeta0 3103
  and stable_t = lqf_stable final pairs ~zeta:(Metricity.zeta final) 3104 in
  T.print t;
  Printf.printf
    "drift: max |dzeta| = %.3f, max |dgamma| = %.3f; schedule survived %d/%d \
     steps; LQF stable t=0: %b, t=%d: %b\n%!"
    !max_dzeta !max_dgamma !survival steps stable0 steps stable_t;
  Outcome.make
    ~measured:(float_of_int !survival)
    ~bound:1.
    ~detail:
      (Printf.sprintf "steps the t=0 schedule stayed feasible (of %d)" steps)
    (!survival >= 1 && stable0 && stable_t)
