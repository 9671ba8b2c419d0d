(* Time-varying decay spaces: random-waypoint mobility, Gudmundson-mixed
   shadowing, speed-dependent fast fading.  See evolve.mli for the model.

   Determinism: one Rng stream, fixed draw order — mobility draws first
   (node index order), then field draws over ordered dirty pairs in lex
   order.  Nothing here is parallel, so trajectories are identical at any
   job count; draw counts depend only on the trajectory itself. *)

module Point = Bg_geom.Point
module Rng = Bg_prelude.Rng

type config = {
  n : int;
  side : float;
  speed_min : float;
  speed_max : float;
  pause_min : float;
  pause_max : float;
  dt : float;
  corr_dist : float;
  shadow_std_db : float;
  fade_low_db : float;
  fade_high_db : float;
  speed_threshold : float;
  alpha : float;
  d_min : float;
}

let default =
  {
    n = 64;
    side = 30.;
    speed_min = 1.;
    speed_max = 3.;
    pause_min = 2.;
    pause_max = 8.;
    dt = 1.;
    corr_dist = 10.;
    shadow_std_db = 4.;
    fade_low_db = 1.;
    fade_high_db = 3.;
    speed_threshold = 2.;
    alpha = 3.;
    d_min = 1.;
  }

(* A node is either dwelling at its last waypoint or en route to the next
   one at a per-trip speed. *)
type phase = Paused of float (* seconds remaining *) | Moving of Point.t * float

type t = {
  cfg : config;
  base : Point.t -> Point.t -> float;
  name : string;
  rng : Rng.t;
  pos : Point.t array;
  phases : phase array;
  shadow : float array array; (* dB, ordered pairs *)
  fade : float array array; (* dB, ordered pairs *)
  cells : float array array; (* current decay matrix *)
  mutable space : Decay_space.t;
  mutable steps : int;
}

let mixing ~corr_dist ~delta =
  if corr_dist <= 0. then if delta = 0. then 1. else 0.
  else exp (-.delta /. corr_dist)

let validate_config c =
  let bad fmt = Printf.ksprintf invalid_arg fmt in
  let fin = Float.is_finite in
  if c.n <= 0 then bad "Evolve: n must be positive (got %d)" c.n;
  if not (fin c.side && c.side > 0.) then
    bad "Evolve: side must be positive and finite (got %g)" c.side;
  if not (fin c.dt && c.dt > 0.) then
    bad "Evolve: dt must be positive and finite (got %g)" c.dt;
  if not (fin c.speed_min && fin c.speed_max && c.speed_min >= 0.
          && c.speed_max >= c.speed_min) then
    bad "Evolve: need finite 0 <= speed_min <= speed_max (got %g, %g)"
      c.speed_min c.speed_max;
  if not (fin c.pause_min && fin c.pause_max && c.pause_min >= 0.
          && c.pause_max >= c.pause_min) then
    bad "Evolve: need finite 0 <= pause_min <= pause_max (got %g, %g)"
      c.pause_min c.pause_max;
  if not (List.for_all (fun s -> fin s && s >= 0.)
            [ c.shadow_std_db; c.fade_low_db; c.fade_high_db ]) then
    bad "Evolve: dB sigmas must be finite and non-negative (got %g, %g, %g)"
      c.shadow_std_db c.fade_low_db c.fade_high_db;
  if Float.is_nan c.corr_dist then bad "Evolve: corr_dist must not be NaN";
  if Float.is_nan c.speed_threshold then
    bad "Evolve: speed_threshold must not be NaN";
  if not (fin c.alpha) then bad "Evolve: alpha must be finite (got %g)" c.alpha;
  if not (fin c.d_min && c.d_min > 0.) then
    bad "Evolve: d_min must be positive and finite (got %g)" c.d_min

let default_base cfg p q =
  Float.max cfg.d_min (Point.dist p q) ** cfg.alpha

(* Decay cell from base loss plus dB deviations, clamped to the
   positive-finite range Decay_space.of_matrix accepts. *)
let cell_value t p q db =
  let db = Float.max (-300.) (Float.min 300. db) in
  let v = t.base p q *. (10. ** (db /. 10.)) in
  if v < 1e-300 then 1e-300 else if v > 1e300 then 1e300 else v

let rebuild_space t =
  let name = Printf.sprintf "%s:t=%d" t.name t.steps in
  let space = Decay_space.of_matrix ~name t.cells in
  t.space <- space;
  space

let create ?base ?(name = "evolve") ~seed cfg =
  validate_config cfg;
  let rng = Rng.create seed in
  let base = match base with Some f -> f | None -> default_base cfg in
  let n = cfg.n in
  let pos =
    Array.init n (fun _ ->
        Point.make (Rng.float rng cfg.side) (Rng.float rng cfg.side))
  in
  (* Desynchronised initial dwells so the dirty fraction ramps smoothly
     instead of every node departing on the same step. *)
  let phases =
    Array.init n (fun _ ->
        Paused (Rng.float rng (cfg.pause_min +. cfg.pause_max +. cfg.dt)))
  in
  let shadow =
    Array.init n (fun _ ->
        Array.init n (fun _ ->
            if cfg.shadow_std_db > 0. then
              Rng.gaussian ~sigma:cfg.shadow_std_db rng
            else 0.))
  in
  let fade = Array.make_matrix n n 0. in
  let cells = Array.make_matrix n n 0. in
  let t =
    {
      cfg;
      base;
      name;
      rng;
      pos;
      phases;
      shadow;
      fade;
      cells;
      space = Decay_space.of_matrix [| [| 0. |] |];
      steps = 0;
    }
  in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        t.cells.(i).(j) <- cell_value t pos.(i) pos.(j) shadow.(i).(j)
    done
  done;
  ignore (rebuild_space t);
  t

let config t = t.cfg
let space t = t.space
let positions t = Array.copy t.pos
let step_count t = t.steps

(* Advance one node by dt; returns its displacement this step. *)
let move_node t i =
  let cfg = t.cfg in
  (* Fuel bounds the pause->trip->pause transitions a node may chain
     inside one dt, so degenerate configs (zero pauses, coincident
     waypoints) cannot loop without consuming budget. *)
  let rec go fuel budget =
    if budget <= 0. || fuel <= 0 then 0.
    else
      match t.phases.(i) with
      | Paused rem ->
          if rem > budget then (
            t.phases.(i) <- Paused (rem -. budget);
            0.)
          else
            let target =
              Point.make (Rng.float t.rng cfg.side) (Rng.float t.rng cfg.side)
            in
            let speed = Rng.uniform t.rng cfg.speed_min cfg.speed_max in
            t.phases.(i) <- Moving (target, speed);
            go (fuel - 1) (budget -. rem)
      | Moving (target, speed) ->
          let p = t.pos.(i) in
          let d = Point.dist p target in
          let reach = speed *. budget in
          if speed <= 0. then 0.
          else if reach >= d then (
            t.pos.(i) <- target;
            t.phases.(i) <-
              Paused (Rng.uniform t.rng cfg.pause_min cfg.pause_max);
            d +. go (fuel - 1) (budget -. (d /. speed)))
          else (
            t.pos.(i) <- Point.lerp p target (reach /. d);
            reach)
  in
  go 16 cfg.dt

let step t =
  let cfg = t.cfg in
  let n = cfg.n in
  let delta = Array.make n 0. in
  for i = 0 to n - 1 do
    delta.(i) <- move_node t i
  done;
  let moved = Array.map (fun d -> d > 0.) delta in
  t.steps <- t.steps + 1;
  (* Field + cell refresh for every ordered pair with a moved endpoint,
     in lex order so the draw sequence is canonical. *)
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && (moved.(i) || moved.(j)) then begin
        let dp = delta.(i) +. delta.(j) in
        (if cfg.shadow_std_db > 0. then
           let c = mixing ~corr_dist:cfg.corr_dist ~delta:dp in
           t.shadow.(i).(j) <-
             (c *. t.shadow.(i).(j))
             +. sqrt (Float.max 0. (1. -. (c *. c)))
                *. Rng.gaussian ~sigma:cfg.shadow_std_db t.rng);
        let link_speed = dp /. cfg.dt in
        let sigma =
          if link_speed <= 0. then 0.
          else if link_speed < cfg.speed_threshold then cfg.fade_low_db
          else cfg.fade_high_db
        in
        t.fade.(i).(j) <-
          (if sigma > 0. then Rng.gaussian ~sigma t.rng else 0.);
        t.cells.(i).(j) <-
          cell_value t t.pos.(i) t.pos.(j) (t.shadow.(i).(j) +. t.fade.(i).(j))
      end
    done
  done;
  let dirty =
    Array.of_seq
      (Seq.filter (fun i -> moved.(i)) (Seq.init n (fun i -> i)))
  in
  (rebuild_space t, dirty)

let shadow_field t = Array.map Array.copy t.shadow
