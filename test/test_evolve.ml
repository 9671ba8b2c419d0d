(* Property tests for the Evolve mobility layer, its config validation,
   and job-count determinism of the `bg evolve` trace. *)

module Decay = Core.Decay
module Decay_space = Decay.Decay_space
module Evolve = Decay.Evolve

let cfg ?(n = 10) ?(speed = (0.8, 2.5)) ?(shadow = 4.) () =
  {
    Evolve.default with
    n;
    side = 15.;
    speed_min = fst speed;
    speed_max = snd speed;
    pause_min = 0.3;
    pause_max = 2.;
    corr_dist = 5.;
    shadow_std_db = shadow;
  }

(* ------------------------------------------------------ Evolve physics *)

(* Mixing coefficient: 1 at zero displacement, monotonically decreasing. *)
let prop_mixing_monotone =
  Testutil.qcheck ~count:200 "mixing decays monotonically with delta"
    QCheck.(pair (float_bound_exclusive 50.) (float_bound_exclusive 50.))
    (fun (a, b) ->
      let d1 = Float.min a b and d2 = Float.max a b in
      let m1 = Evolve.mixing ~corr_dist:8. ~delta:d1
      and m2 = Evolve.mixing ~corr_dist:8. ~delta:d2 in
      Evolve.mixing ~corr_dist:8. ~delta:0. = 1.
      && m1 <= 1. && m2 >= 0.
      && (d1 = d2 || m1 >= m2)
      && (d1 = d2 || m1 = m2 || m1 > m2))

(* Shadow-field stationarity: after many steps of constant motion the
   field's empirical variance stays near shadow_std^2 (the Gudmundson
   update is variance-preserving). *)
let test_shadow_stationarity () =
  let c = { (cfg ~n:16 ()) with pause_min = 0.; pause_max = 0. } in
  let ev = Evolve.create ~seed:31 c in
  for _ = 1 to 60 do
    ignore (Evolve.step ev)
  done;
  let field = Evolve.shadow_field ev in
  let sum = ref 0. and sumsq = ref 0. and count = ref 0 in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v ->
          if i <> j then begin
            sum := !sum +. v;
            sumsq := !sumsq +. (v *. v);
            incr count
          end)
        row)
    field;
  let m = float_of_int !count in
  let mean = !sum /. m in
  let var = (!sumsq /. m) -. (mean *. mean) in
  let target = c.Evolve.shadow_std_db ** 2. in
  Testutil.check_true
    (Printf.sprintf "variance %.2f within 40%% of %.2f" var target)
    (var > 0.6 *. target && var < 1.4 *. target)

(* Zero speed: no node ever moves, every step's space is bit-identical
   and every dirty set empty. *)
let prop_zero_speed_identity =
  Testutil.qcheck ~count:20 "zero speed => identical matrices"
    QCheck.(pair small_nat (int_bound 12))
    (fun (seed, steps) ->
      let c = cfg ~n:8 ~speed:(0., 0.) () in
      let ev = Evolve.create ~seed c in
      let d0 = Decay_space.digest (Evolve.space ev) in
      let ok = ref true in
      for _ = 1 to steps do
        let space, dirty = Evolve.step ev in
        ok :=
          !ok && Array.length dirty = 0
          && String.equal (Decay_space.digest space) d0
      done;
      !ok)

(* Same seed => same trajectory, regardless of the ambient job default
   (Evolve is job-independent by construction; assert it stays so). *)
let prop_seed_determinism =
  Testutil.qcheck ~count:15 "same-seed determinism across jobs"
    QCheck.small_nat (fun seed ->
      let run jobs =
        let saved = Core.Prelude.Parallel.default_jobs () in
        Core.Prelude.Parallel.set_default_jobs jobs;
        Fun.protect
          ~finally:(fun () -> Core.Prelude.Parallel.set_default_jobs saved)
          (fun () ->
            let ev = Evolve.create ~seed (cfg ()) in
            let digests = ref [] in
            for _ = 1 to 8 do
              let space, dirty = Evolve.step ev in
              digests :=
                (Decay_space.digest space, Array.to_list dirty) :: !digests
            done;
            !digests)
      in
      run 1 = run 4)

(* Dirty-set contract: cells with both endpoints clean are bit-identical
   to the previous step's. *)
let prop_clean_cells_untouched =
  Testutil.qcheck ~count:25 "clean cells bit-identical across a step"
    QCheck.small_nat (fun seed ->
      let ev = Evolve.create ~seed (cfg ~n:9 ()) in
      let ok = ref true in
      let prev = ref (Evolve.space ev) in
      for _ = 1 to 6 do
        let space, dirty = Evolve.step ev in
        let in_dirty = Array.make 9 false in
        Array.iter (fun i -> in_dirty.(i) <- true) dirty;
        for i = 0 to 8 do
          for j = 0 to 8 do
            if (not in_dirty.(i)) && not in_dirty.(j) then
              ok :=
                !ok
                && Int64.equal
                     (Int64.bits_of_float (Decay_space.decay !prev i j))
                     (Int64.bits_of_float (Decay_space.decay space i j))
          done
        done;
        prev := space
      done;
      !ok)

(* -------------------------------------------------- Config validation *)

(* Every float field must be finite, except corr_dist (+inf: shadows
   never decorrelate) and speed_threshold (+inf: always the slow-fade
   sigma), which need only be non-NaN.  A NaN or infinity is refused at
   create instead of silently freezing nodes, zeroing the shadow field or
   producing non-finite cells. *)
let test_non_finite_config_rejected () =
  let base = cfg () in
  let fields =
    [
      ("side", fun v -> { base with Evolve.side = v });
      ("dt", fun v -> { base with Evolve.dt = v });
      ("speed_min", fun v -> { base with Evolve.speed_min = v });
      ("speed_max", fun v -> { base with Evolve.speed_max = v });
      ("pause_min", fun v -> { base with Evolve.pause_min = v });
      ("pause_max", fun v -> { base with Evolve.pause_max = v });
      ("shadow_std_db", fun v -> { base with Evolve.shadow_std_db = v });
      ("fade_low_db", fun v -> { base with Evolve.fade_low_db = v });
      ("fade_high_db", fun v -> { base with Evolve.fade_high_db = v });
      ("alpha", fun v -> { base with Evolve.alpha = v });
      ("d_min", fun v -> { base with Evolve.d_min = v });
    ]
  in
  let rejected c =
    match Evolve.create ~seed:1 c with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  List.iter
    (fun (name, set) ->
      List.iter
        (fun v ->
          Testutil.check_true
            (Printf.sprintf "%s = %g rejected" name v)
            (rejected (set v)))
        [ Float.nan; Float.infinity; Float.neg_infinity ])
    fields;
  Testutil.check_true "corr_dist = nan rejected"
    (rejected { base with Evolve.corr_dist = Float.nan });
  Testutil.check_true "speed_threshold = nan rejected"
    (rejected { base with Evolve.speed_threshold = Float.nan });
  Testutil.check_true "corr_dist = inf accepted"
    (not (rejected { base with Evolve.corr_dist = Float.infinity }));
  Testutil.check_true "speed_threshold = inf accepted"
    (not (rejected { base with Evolve.speed_threshold = Float.infinity }))

(* ------------------------------------------------------ bg evolve CLI *)

let evolve_stdout jobs =
  let out = Filename.temp_file "bg_evolve" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code =
        Sys.command
          (Filename.quote_command Testutil.bg_exe ~stdin:"/dev/null" ~stdout:out
             [ "evolve"; "-n"; "16"; "--steps"; "20"; "--seed"; "2026";
               "-j"; string_of_int jobs ])
      in
      Testutil.check_int (Printf.sprintf "exit code at -j %d" jobs) 0 code;
      In_channel.with_open_bin out In_channel.input_all)

let test_cli_jobs_determinism () =
  if not (Sys.file_exists Testutil.bg_exe) then Alcotest.skip ()
  else begin
    let one = evolve_stdout 1 and four = evolve_stdout 4 in
    Testutil.check_int "one line per step plus the summary" 22
      (List.length (String.split_on_char '\n' (String.trim one)));
    Testutil.check_true "stdout byte-identical at -j 1 and -j 4"
      (String.equal one four)
  end

let suite =
  [
    ( "evolve",
      [
        prop_mixing_monotone;
        Testutil.case "shadow-field stationary variance"
          test_shadow_stationarity;
        prop_zero_speed_identity;
        prop_seed_determinism;
        prop_clean_cells_untouched;
        Testutil.case "non-finite config fields rejected"
          test_non_finite_config_rejected;
        Testutil.case "bg evolve stdout identical at -j 1 and -j 4"
          test_cli_jobs_determinism;
      ] );
  ]
