(* Whole-pipeline fuzzing: random phased programs through profile ->
   identify -> package -> link -> optimize -> emit -> run, asserting
   architectural equivalence and structural sanity every time.  This
   is the strongest property in the suite: it composes every library
   and every optimization on programs nobody hand-tuned. *)

module Program = Vp_prog.Program
module Image = Vp_prog.Image
module Emulator = Vp_exec.Emulator
module Gen = Vp_test_support.Gen

let config =
  Vacuum.Config.with_detector Vp_hsd.Config.tiny Vacuum.Config.default

let sinking_config =
  Vacuum.Config.with_opt Vp_opt.Opt.with_sinking config

let run_pipeline config img =
  let profile = Vacuum.Driver.profile ~config img in
  let r = Vacuum.Driver.rewrite_of_profile ~config profile in
  let c = Vacuum.Coverage.measure ~config r in
  (profile, r, c)

let check_seed ?(config = config) seed =
  let img = Program.layout (Gen.random_phased ~seed) in
  (match Image.validate img with
  | Ok () -> ()
  | Error e -> Alcotest.failf "seed %d: invalid image: %s" seed e);
  let original = Emulator.run_backend img in
  if not original.Emulator.halted then
    Alcotest.failf "seed %d: original did not halt" seed;
  let _, r, c = run_pipeline config img in
  if not c.Vacuum.Coverage.equivalent then
    Alcotest.failf "seed %d: rewritten binary diverged (coverage %.1f%%)" seed
      c.Vacuum.Coverage.coverage_pct;
  (match Image.validate (Vacuum.Driver.rewritten_image r) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "seed %d: invalid rewritten image: %s" seed e);
  (original, r, c)

let test_fuzz_equivalence () =
  for seed = 0 to 19 do
    ignore (check_seed seed)
  done

let test_fuzz_equivalence_with_sinking () =
  for seed = 20 to 31 do
    ignore (check_seed ~config:sinking_config seed)
  done

let test_fuzz_no_linking () =
  let no_link =
    Vacuum.Config.with_detector Vp_hsd.Config.tiny
      (Vacuum.Config.experiment ~inference:true ~linking:false)
  in
  for seed = 32 to 39 do
    ignore (check_seed ~config:no_link seed)
  done

let test_fuzz_structure () =
  (* Whenever packages exist, the structural invariants hold. *)
  for seed = 40 to 49 do
    let _, r, _ = check_seed seed in
    (* Both as built and as emitted (post-linking, post-transform). *)
    List.iter
      (fun p ->
        match Vp_package.Pkg.validate p with
        | Ok () -> ()
        | Error e -> Alcotest.failf "seed %d: %s: %s" seed p.Vp_package.Pkg.id e)
      (r.Vacuum.Driver.packages @ r.Vacuum.Driver.emitted.Vp_package.Emit.packages);
    List.iter
      (fun p ->
        (* Entries point at original addresses. *)
        List.iter
          (fun (_, addr) ->
            Alcotest.(check bool) "entry in original range" true
              (addr < r.Vacuum.Driver.source.Vacuum.Driver.image.Image.orig_limit))
          p.Vp_package.Pkg.entries;
        (* Sites' cold exits reference real blocks of the package. *)
        List.iter
          (fun (s : Vp_package.Pkg.site) ->
            match s.Vp_package.Pkg.cold_exit with
            | Some label ->
              Alcotest.(check bool) "cold exit exists" true
                (Vp_package.Pkg.find_block p label <> None)
            | None -> ())
          p.Vp_package.Pkg.sites)
      r.Vacuum.Driver.packages
  done

let test_fuzz_assembly_roundtrip () =
  (* Random phased programs survive the assembler roundtrip too. *)
  for seed = 50 to 57 do
    let p = Gen.random_phased ~seed in
    match Vp_prog.Asm.parse_program (Vp_prog.Asm.print_program p) with
    | Ok p' ->
      if p <> p' then Alcotest.failf "seed %d: assembly roundtrip differs" seed
    | Error e ->
      Alcotest.failf "seed %d: %s" seed (Format.asprintf "%a" Vp_prog.Asm.pp_error e)
  done

let test_generator_is_deterministic () =
  let a = Gen.random_phased ~seed:7 in
  let b = Gen.random_phased ~seed:7 in
  Alcotest.(check bool) "same program" true (a = b);
  let c = Gen.random_phased ~seed:8 in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let () =
  Alcotest.run "vp_integration"
    [
      ( "fuzz",
        [
          Alcotest.test_case "generator determinism" `Quick test_generator_is_deterministic;
          Alcotest.test_case "pipeline equivalence" `Slow test_fuzz_equivalence;
          Alcotest.test_case "equivalence with sinking" `Slow
            test_fuzz_equivalence_with_sinking;
          Alcotest.test_case "equivalence without linking" `Slow test_fuzz_no_linking;
          Alcotest.test_case "package structure" `Slow test_fuzz_structure;
          Alcotest.test_case "assembly roundtrip" `Slow test_fuzz_assembly_roundtrip;
        ] );
    ]
