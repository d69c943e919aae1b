(* The online re-optimization loop: drift detection over a phased
   workload, hot patching at quiescent points, the bounded package
   cache, and the determinism contract (backends, job counts, and
   resume-from-epoch-k). *)

module B = Vp_prog.Builder
module Op = Vp_isa.Op
module Program = Vp_prog.Program
module Emulator = Vp_exec.Emulator
module Pool = Vp_util.Pool
module Config = Vacuum.Config
module Driver = Vacuum.Driver
module Session = Vacuum.Session
module Progs = Vp_test_support.Progs

(* A drifting workload: three distinct hot loops, each executed as a
   run of repeated calls, one run after the other.  A profiler that
   only sees the opening window packages only the first phase, while a
   session keeps discovering the later ones — and because a phase
   recurs at call granularity, a package activated mid-phase is entered
   at the very next call (launch points live at region entries, so a
   phase that runs exactly once can never benefit from online
   patching).  [a]/[b]/[c] are call counts; phase A is short enough
   that an epoch-sized opening window stays inside A and early B. *)
let three_phase ~a ~b ~c =
  let bld = B.create () in
  let cell = B.global bld ~words:1 in
  let loop name f =
    B.func bld name ~nargs:1 (fun fb args ->
        let acc = B.vreg fb in
        let i = B.vreg fb in
        B.mov fb acc args.(0);
        B.for_ fb i ~from:(B.K 0) ~below:(B.K 150) (fun () -> f fb acc i);
        B.ret fb (Some acc))
  in
  loop "phase_a" (fun fb acc i ->
      B.alu fb Op.Add acc acc (B.V i);
      B.alu fb Op.Xor acc acc (B.K 3));
  loop "phase_b" (fun fb acc _ ->
      B.alu fb Op.Mul acc acc (B.K 3);
      B.alu fb Op.And acc acc (B.K 0xFFFF));
  loop "phase_c" (fun fb acc i ->
      B.alu fb Op.Sub acc acc (B.V i);
      B.alu fb Op.Or acc acc (B.K 5));
  B.func bld "main" ~nargs:0 (fun fb _ ->
      let acc = B.vreg fb in
      let r = B.vreg fb in
      B.li fb acc 1;
      let phase name calls =
        B.for_ fb r ~from:(B.K 0) ~below:(B.K calls) (fun () ->
            let v = B.call fb name [ acc ] in
            B.mov fb acc v)
      in
      phase "phase_a" a;
      phase "phase_b" b;
      phase "phase_c" c;
      B.store_abs fb acc cell;
      B.ret fb (Some acc);
      B.halt fb);
  B.program bld ~entry:"main"

let drifting_image = lazy (Program.layout (three_phase ~a:5 ~b:40 ~c:60))

(* The builder programs here are tiny, so the Table 3 expansion budget
   (a percentage of the original's static size) must be generous for
   any package to fit at all; the budget semantics itself is exercised
   by [test_cache_bounded] with a starved percentage. *)
let session_config ?(epochs = 4) ?(oracle = true) ?(cache_pct = 300.0) () =
  Config.default
  |> Config.with_detector Vp_hsd.Config.tiny
  |> Config.map_session (fun s ->
         { s with Config.epochs; oracle; cache_pct })

let render report = Format.asprintf "%a" Session.pp_report report

(* ---- behaviour ---- *)

let test_drift_and_activation () =
  let img = Lazy.force drifting_image in
  let s = Session.create ~config:(session_config ()) img in
  (* run past the configured epoch count so the program halts inside
     the session and the end-to-end equivalence verdict is reached *)
  let r = Session.run ~epochs:12 s in
  let news = List.concat_map (fun e -> e.Session.new_entries) r.Session.epochs in
  Alcotest.(check bool) "drift detected" true (news <> []);
  Alcotest.(check bool) "activated at least once" true (r.Session.activations >= 1);
  List.iter
    (fun e ->
      Alcotest.(check bool) "verifier clean" true e.Session.verifier_ok;
      Alcotest.(check bool) "no fallback" false e.Session.fallback;
      Alcotest.(check bool) "oracle never failed" true
        (e.Session.oracle_ok <> Some false))
    r.Session.epochs;
  Alcotest.(check bool) "halted" true r.Session.halted;
  Alcotest.(check (option bool)) "equivalent at halt" (Some true)
    r.Session.equivalent

let test_cached_phase_not_redetected () =
  (* The same two phases recur three times; once cached they must match
     (similarity in original-pc space) instead of spawning fresh cache
     entries every epoch. *)
  let img = Program.layout (Progs.two_phase ~iters_per_phase:3000 ~repeats:3) in
  let s = Session.create ~config:(session_config ~epochs:6 ()) img in
  let r = Session.run ~epochs:6 s in
  let news = List.concat_map (fun e -> e.Session.new_entries) r.Session.epochs in
  let matched =
    List.concat_map (fun e -> e.Session.matched_entries) r.Session.epochs
  in
  Alcotest.(check bool) "phases cached" true (news <> []);
  Alcotest.(check bool) "recurring phases matched the cache" true (matched <> []);
  Alcotest.(check bool) "cache stays small" true
    (r.Session.final_cache_entries <= 6)

let test_coverage_beats_single_shot () =
  (* Acceptance: over a drifting workload, the session's whole-run
     coverage beats a single offline pass whose profiling window is one
     epoch (it only ever sees phase A). *)
  let img = Lazy.force drifting_image in
  let config = session_config () in
  let session_report = Session.run (Session.create ~config img) in
  let full = Emulator.run_backend img in
  Alcotest.(check bool) "baseline halts" true full.Emulator.halted;
  let epoch_fuel =
    (full.Emulator.instructions / (Config.session config).Config.epochs) + 1
  in
  let single = Driver.rewrite ~config:(Config.with_fuel epoch_fuel config) img in
  let one_shot = Emulator.run_backend (Driver.rewritten_image single) in
  let pct (o : Emulator.outcome) =
    if o.Emulator.instructions = 0 then 0.0
    else
      100.0
      *. float_of_int o.Emulator.package_instructions
      /. float_of_int o.Emulator.instructions
  in
  Alcotest.(check bool)
    (Printf.sprintf "session %.1f%% > single-shot %.1f%%"
       session_report.Session.coverage_pct (pct one_shot))
    true
    (session_report.Session.coverage_pct > pct one_shot)

let test_cache_bounded () =
  (* A starved budget: every epoch must end within it, evicting as
     needed. *)
  let img = Lazy.force drifting_image in
  let config = session_config ~cache_pct:2.0 () in
  let budget =
    int_of_float
      (0.02 *. float_of_int (Vp_prog.Image.static_instruction_count img))
  in
  let s = Session.create ~config img in
  let r = Session.run s in
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Printf.sprintf "epoch %d cache %d within budget %d" e.Session.epoch
           e.Session.cache_instructions budget)
        true
        (e.Session.cache_instructions <= budget))
    r.Session.epochs

let test_step_after_halt_raises () =
  let img = Program.layout (Progs.sum_to_n 50) in
  let s = Session.create ~config:(session_config ()) img in
  let _ = Session.run s in
  Alcotest.(check bool) "halted" true (Session.halted s);
  let raised =
    try
      ignore (Session.step s);
      false
    with Vacuum.Error.Error e -> e.Vacuum.Error.stage = "session"
  in
  Alcotest.(check bool) "step after halt raises" true raised

(* ---- determinism ---- *)

let test_backends_byte_identical () =
  let img = Lazy.force drifting_image in
  let run backend =
    let config = session_config () |> Config.with_backend backend in
    render (Session.run (Session.create ~config img))
  in
  let d = run Emulator.Decoded in
  Alcotest.(check string) "compiled = decoded" d (run Emulator.Compiled);
  Alcotest.(check string) "reference = decoded" d (run Emulator.Reference)

let test_resume_equals_straight_through () =
  let img = Lazy.force drifting_image in
  let config = session_config () in
  let straight = render (Session.run ~epochs:4 (Session.create ~config img)) in
  let s = Session.create ~config img in
  ignore (Session.step s);
  ignore (Session.step s);
  Alcotest.(check int) "two epochs in" 2 (Session.epochs_run s);
  let resumed = render (Session.run ~epochs:4 s) in
  Alcotest.(check string) "resume = straight-through" straight resumed

let test_jobs_invariant () =
  (* Sessions scheduled through the pool must render identically under
     any job count — nothing in a session may depend on the domain that
     runs it. *)
  let specs =
    [
      (Lazy.force drifting_image, session_config ());
      ( Program.layout (Progs.two_phase ~iters_per_phase:3000 ~repeats:2),
        session_config ~epochs:5 () );
      ( Program.layout (Progs.two_phase ~iters_per_phase:2000 ~repeats:3),
        session_config ~cache_pct:5.0 () );
      (Program.layout (Progs.sum_to_n 20000), session_config ~epochs:3 ());
    ]
  in
  let run (img, config) = render (Session.run (Session.create ~config img)) in
  let seq = Pool.map ~jobs:1 run specs in
  let par = Pool.map ~jobs:4 run specs in
  List.iteri
    (fun i (a, b) -> Alcotest.(check string) (Printf.sprintf "spec %d" i) a b)
    (List.combine seq par)

(* ---- fault plans over a generated drifting workload ---- *)

(* A generated multi-phase binary: enough planted phases and rounds
   that the cache churns (drift, re-assembly, activation) across
   epochs even while the snapshot stream is being corrupted.  The
   detector needs the campaign's BBB sizing — tiny's 4-entry table
   thrashes on generated code and never fires. *)
let gen_drifting_image =
  lazy
    (Program.layout
       (Vp_gen.Gen.program ~seed:41
          {
            Vp_gen.Gen.default with
            Vp_gen.Gen.phases = 4;
            rounds = 3;
            phase_iters = 60;
          }))

let gen_detector = { Vp_hsd.Config.tiny with Vp_hsd.Config.sets = 64 }

let faulted_config ?(epochs = 6) plan =
  Config.default
  |> Config.with_detector gen_detector
  |> Config.with_fault plan
  |> Config.map_session (fun s ->
         { s with Config.epochs; oracle = true; cache_pct = 300.0 })

let corruption_plan =
  Vp_fault.Plan.v ~seed:9 ~drop:0.3 ~duplicate:0.2 ~reorder:0.2 ~saturate:0.2
    ~zero_counters:0.2 ~alias:0.2 "session-snapshot-corruption"

let rung_name = function
  | Driver.Drop_package -> "drop-package"
  | Driver.Drop_region -> "drop-region"
  | Driver.Fallback_image -> "fallback-image"

(* The demotion ladder's order inside one epoch: [Fallback_image] is
   terminal (everything was given up), so it may appear at most once
   and only as the last step, and the [fallback] flag must agree with
   the drop list. *)
let check_ladder_order (e : Session.epoch_report) =
  let rungs = List.map (fun (d : Driver.demotion) -> d.Driver.rung) e.Session.drops in
  let rec terminal = function
    | [] | [ Driver.Fallback_image ] -> true
    | Driver.Fallback_image :: _ -> false
    | _ :: rest -> terminal rest
  in
  Alcotest.(check bool)
    (Printf.sprintf "epoch %d: fallback rung is terminal [%s]" e.Session.epoch
       (String.concat ";" (List.map rung_name rungs)))
    true (terminal rungs);
  Alcotest.(check bool)
    (Printf.sprintf "epoch %d: fallback flag agrees with drops" e.Session.epoch)
    (List.mem Driver.Fallback_image rungs)
    e.Session.fallback

let test_fault_corruption_demotes_gracefully () =
  (* Snapshot corruption may cost coverage, never correctness: every
     epoch's final image still verifies (demotion resolved the
     damage), the ladder is walked in order, and the halted machine is
     architecturally equivalent to the original. *)
  let img = Lazy.force gen_drifting_image in
  let config = faulted_config corruption_plan in
  let r = Session.run ~epochs:12 (Session.create ~config img) in
  List.iter
    (fun (e : Session.epoch_report) ->
      check_ladder_order e;
      Alcotest.(check bool)
        (Printf.sprintf "epoch %d verifier clean after demotion"
           e.Session.epoch)
        true e.Session.verifier_ok)
    r.Session.epochs;
  Alcotest.(check bool) "halted" true r.Session.halted;
  Alcotest.(check (option bool)) "equivalent at halt" (Some true)
    r.Session.equivalent

let test_fault_exhausted_budget_drops_everything () =
  (* A zero expansion budget screens out every package, one
     [Drop_package] rung at a time: the ladder is walked every epoch
     the cache tries to assemble, no package code ever runs, and the
     session still halts equivalent. *)
  let img = Lazy.force gen_drifting_image in
  let plan = Vp_fault.Plan.v ~seed:3 ~max_expansion_pct:0.0 "budget-exhausted" in
  let r = Session.run ~epochs:12 (Session.create ~config:(faulted_config plan) img) in
  List.iter check_ladder_order r.Session.epochs;
  Alcotest.(check bool) "ladder walked at least once" true
    (List.exists
       (fun (e : Session.epoch_report) -> e.Session.drops <> [])
       r.Session.epochs);
  Alcotest.(check int) "no package code ever ran" 0
    r.Session.package_instructions;
  Alcotest.(check bool) "halted" true r.Session.halted;
  Alcotest.(check (option bool)) "equivalent at halt" (Some true)
    r.Session.equivalent

let test_fault_jobs_invariant () =
  (* Fault injection derives per-epoch seeds from the plan, never from
     scheduling: faulted sessions must render byte-identically under
     any pool job count. *)
  let img = Lazy.force gen_drifting_image in
  let specs =
    [
      (img, faulted_config corruption_plan);
      (img, faulted_config ~epochs:4 (Vp_fault.Plan.with_seed corruption_plan 77));
      (Lazy.force drifting_image, faulted_config corruption_plan);
    ]
  in
  let run (i, config) = render (Session.run (Session.create ~config i)) in
  let seq = Pool.map ~jobs:1 run specs in
  let par = Pool.map ~jobs:4 run specs in
  List.iteri
    (fun i (a, b) -> Alcotest.(check string) (Printf.sprintf "spec %d" i) a b)
    (List.combine seq par)

(* ---- per-epoch timelines ---- *)

let timeline_config ?epochs () =
  session_config ?epochs ()
  |> Config.with_obs (Vp_obs.create ~interval:Vp_obs.default_interval ())

(* The merged vp-timeline-trace/1 bytes of a report's epoch timelines —
   the exact artifact `vpack serve --trace-dir` ships, so byte equality
   here is byte equality of the shipped file. *)
let trace_string (r : Session.report) =
  let path = Filename.temp_file "vp-session-trace" ".jsonl" in
  Vp_obs.Timeline.write_trace ~path
    (List.map (fun (e : Session.epoch_report) -> e.Session.timeline)
       r.Session.epochs);
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  s

let test_epoch_tags_dense_and_ordered () =
  (* Stepping manually and then resuming with [run] must produce the
     same dense, strictly ordered epoch-K run labels as a straight run:
     the tag records the epoch's absolute index, not the call shape. *)
  let img = Lazy.force drifting_image in
  let config = timeline_config () in
  let s = Session.create ~config img in
  ignore (Session.step s);
  ignore (Session.step s);
  let r = Session.run ~epochs:4 s in
  Alcotest.(check int) "all epochs reported" 4 (List.length r.Session.epochs);
  List.iteri
    (fun i (e : Session.epoch_report) ->
      Alcotest.(check int) (Printf.sprintf "epoch %d dense" i) i e.Session.epoch;
      Alcotest.(check (option string))
        (Printf.sprintf "epoch %d run label" i)
        (Some (Printf.sprintf "epoch-%d" i))
        (Vp_obs.Timeline.name e.Session.timeline))
    r.Session.epochs

let test_epoch_trace_byte_identical () =
  let img = Lazy.force drifting_image in
  let config = timeline_config () in
  let straight = trace_string (Session.run ~epochs:4 (Session.create ~config img)) in
  (* resume ≡ straight-through, down to the trace bytes *)
  let s = Session.create ~config img in
  ignore (Session.step s);
  Alcotest.(check string) "resume trace = straight-through" straight
    (trace_string (Session.run ~epochs:4 s));
  (* backend-invariant *)
  List.iter
    (fun backend ->
      let config = Config.with_backend backend config in
      Alcotest.(check string)
        (Emulator.backend_name backend ^ " trace = decoded trace")
        straight
        (trace_string (Session.run ~epochs:4 (Session.create ~config img))))
    [ Emulator.Reference; Emulator.Compiled ];
  (* jobs-invariant: the same sessions through the pool *)
  let specs = [ 1; 2; 3 ] in
  let run _ = trace_string (Session.run ~epochs:4 (Session.create ~config img)) in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check string) (Printf.sprintf "spec %d jobs 1 = jobs 4" i) a b)
    (List.combine (Pool.map ~jobs:1 run specs) (Pool.map ~jobs:4 run specs))

(* ---- the branch map (profile folding) ---- *)

let test_branch_map_targets () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:3000 ~repeats:2) in
  let config = Config.with_detector Vp_hsd.Config.tiny Config.default in
  let rw = Driver.rewrite ~config img in
  let emitted = rw.Driver.emitted in
  let map = emitted.Vp_package.Emit.branch_map in
  Alcotest.(check bool) "branch map populated" true (map <> []);
  let code = emitted.Vp_package.Emit.image.Vp_prog.Image.code in
  let is_br i =
    match code.(i) with Vp_isa.Instr.Br _ -> true | _ -> false
  in
  List.iter
    (fun (pc, opc) ->
      Alcotest.(check bool)
        (Printf.sprintf "package pc %d is a Br" pc)
        true
        (pc >= img.Vp_prog.Image.orig_limit && is_br pc);
      Alcotest.(check bool)
        (Printf.sprintf "original pc %d is a Br" opc)
        true
        (opc < img.Vp_prog.Image.orig_limit && is_br opc))
    map

(* ---- config rendering (satellite) ---- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_config_to_json () =
  let j = Config.to_json Config.default in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains j needle))
    [
      "\"session\"";
      "\"epochs\"";
      "\"cache_pct\"";
      "\"drift_threshold\"";
      "\"backend\"";
      "\"detector\"";
    ]

let () =
  Alcotest.run "vacuum_session"
    [
      ( "behaviour",
        [
          Alcotest.test_case "drift and activation" `Slow
            test_drift_and_activation;
          Alcotest.test_case "cached phases match, not re-drift" `Slow
            test_cached_phase_not_redetected;
          Alcotest.test_case "coverage beats single-shot" `Slow
            test_coverage_beats_single_shot;
          Alcotest.test_case "cache bounded by budget" `Slow test_cache_bounded;
          Alcotest.test_case "step after halt raises" `Quick
            test_step_after_halt_raises;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "byte-identical across backends" `Slow
            test_backends_byte_identical;
          Alcotest.test_case "resume = straight-through" `Slow
            test_resume_equals_straight_through;
          Alcotest.test_case "jobs 1 = jobs 4" `Slow test_jobs_invariant;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "epoch tags dense and ordered" `Slow
            test_epoch_tags_dense_and_ordered;
          Alcotest.test_case "epoch trace byte-identical" `Slow
            test_epoch_trace_byte_identical;
        ] );
      ( "fault plans",
        [
          Alcotest.test_case "snapshot corruption demotes gracefully" `Slow
            test_fault_corruption_demotes_gracefully;
          Alcotest.test_case "exhausted budget drops every package" `Slow
            test_fault_exhausted_budget_drops_everything;
          Alcotest.test_case "faulted jobs 1 = jobs 4" `Slow
            test_fault_jobs_invariant;
        ] );
      ( "branch map",
        [ Alcotest.test_case "targets are branches" `Quick test_branch_map_targets ] );
      ( "config",
        [ Alcotest.test_case "to_json covers session" `Quick test_config_to_json ]
      );
    ]
