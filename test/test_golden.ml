(* Pinned outputs.  The quick reproduction's raw numbers and two
   outputs of the observability recorder are byte-for-byte contracts
   that a refactor must not move:

   - the raw per-cell counts behind the quick Figure 8/10 tables: for
     each of the 12 A inputs, the profiling run and, per inference x
     linking cell, the package count, the coverage run and the timing
     run, plus the baseline timing run (golden/quick-engine.tsv);
   - the stable section of the vp-metrics-snapshot/1 exposition from a
     5-epoch go + li session (what `vpack serve -w go -w li --epochs 5
     --metrics FILE` writes), pinned as golden/serve-go-li.metrics;
   - the vp-timeline-trace/1 bytes of the profile, rewritten and timing
     runs of 134.perl and 099.go (what `vpack timeline W --timing
     --trace FILE` writes), pinned by Digest. *)

module Registry = Vp_workloads.Registry
module Program = Vp_prog.Program
module Config = Vacuum.Config
module Session = Vacuum.Session

let workload bench =
  match Registry.find ~bench ~input:"A" with
  | Some w -> w
  | None -> Alcotest.failf "no %s/A workload" bench

let image bench = Program.layout ((workload bench).Registry.program ())

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Compare [got] with golden/[name].  With VP_GOLDEN_WRITE set to a
   directory, write [got] there instead, to regenerate a golden
   deliberately:
   VP_GOLDEN_WRITE=$PWD/test/golden dune exec test/test_golden.exe *)
let check_golden name got =
  match Sys.getenv_opt "VP_GOLDEN_WRITE" with
  | Some dir ->
    let oc = open_out_bin (Filename.concat dir name) in
    output_string oc got;
    close_out oc
  | None ->
    Alcotest.(check string) (name ^ " = golden") (read_file ("golden/" ^ name)) got

(* ---- the quick Figure 8/10 reproduction ---- *)

let quick_engine () =
  let module Engine = Vacuum.Engine in
  let specs =
    List.filter_map
      (fun w ->
        if w.Registry.input <> "A" then None
        else
          Some
            {
              Engine.name = Registry.name w;
              load = (fun () -> Program.layout (w.Registry.program ()));
            })
      Registry.all
  in
  let cells =
    List.map
      (fun (inference, linking) ->
        {
          Engine.key = Printf.sprintf "%b%b" inference linking;
          config = Config.experiment ~inference ~linking;
        })
      [ (false, false); (false, true); (true, false); (true, true) ]
  in
  let engine = Engine.create ~jobs:2 () in
  Engine.run ~rewrites:true ~timing:true engine ~specs ~cells ();
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "# workload\trow\tfields (profile: instructions cond_branches snapshots \
     checksum; baseline: cycles instructions; cell: packages cov_instructions \
     cov_package_instructions cycles instructions)\n";
  List.iter
    (fun spec ->
      let name = spec.Engine.name in
      let p = Engine.profile engine spec in
      let o = p.Vacuum.Driver.outcome in
      Printf.bprintf b "%s\tprofile\t%d\t%d\t%d\t%d\n" name
        o.Vp_exec.Emulator.instructions o.Vp_exec.Emulator.cond_branches
        (List.length p.Vacuum.Driver.snapshots)
        o.Vp_exec.Emulator.checksum;
      let base =
        Engine.baseline engine spec
          ~cpu:(Config.cpu (Config.experiment ~inference:true ~linking:true))
      in
      Printf.bprintf b "%s\tbaseline\t%d\t%d\n" name
        base.Vp_cpu.Pipeline.cycles base.Vp_cpu.Pipeline.instructions;
      List.iter
        (fun cell ->
          let r = Engine.rewrite engine spec cell in
          let c = (Engine.coverage engine spec cell).Vacuum.Coverage.outcome in
          let t = Engine.optimized engine spec cell in
          Printf.bprintf b "%s\t%s\t%d\t%d\t%d\t%d\t%d\n" name
            cell.Engine.key
            (List.length r.Vacuum.Driver.packages)
            c.Vp_exec.Emulator.instructions
            c.Vp_exec.Emulator.package_instructions t.Vp_cpu.Pipeline.cycles
            t.Vp_cpu.Pipeline.instructions)
        cells)
    specs;
  Buffer.contents b

let test_quick_engine () = check_golden "quick-engine.tsv" (quick_engine ())

(* ---- the stable serve snapshot ---- *)

let serve_snapshot () =
  let obs = Vp_obs.create () in
  let config =
    Config.default
    |> Config.map_session (fun s -> { s with Config.epochs = 5 })
    |> Config.with_obs obs
  in
  List.iter
    (fun bench ->
      let s = Session.create ~config (image bench) in
      for _ = 1 to 5 do
        if not (Session.halted s) then ignore (Session.step s)
      done)
    [ "099.go"; "130.li" ];
  Vp_obs.Snapshot.render obs

let test_serve_snapshot () = check_golden "serve-go-li.metrics" (serve_snapshot ())

(* ---- timeline trace digests ---- *)

let timeline_digest bench =
  let img = image bench in
  let config =
    Config.with_obs
      (Vp_obs.create ~interval:Vp_obs.default_interval ())
      (Config.experiment ~inference:true ~linking:true)
  in
  let profile = Vacuum.Driver.profile ~config img in
  let r = Vacuum.Driver.rewrite_of_profile ~config profile in
  let cov = Vacuum.Coverage.measure ~config r in
  let tt = Vp_obs.Timeline.create (Config.obs config) in
  ignore
    (Vp_cpu.Pipeline.simulate ~config:(Config.cpu config)
       ~backend:(Config.backend config) ~fuel:(Config.fuel config)
       ~mem_words:(Config.mem_words config) ~timeline:tt
       (Vacuum.Driver.rewritten_image r));
  let path = Filename.temp_file "vp-golden" ".jsonl" in
  Vp_obs.Timeline.write_trace ~path
    [ profile.Vacuum.Driver.timeline; cov.Vacuum.Coverage.residency; tt ];
  let d = Digest.to_hex (Digest.file path) in
  Sys.remove path;
  d

let test_timeline_digests () =
  List.iter
    (fun (bench, want) ->
      Alcotest.(check string) (bench ^ " trace digest") want
        (timeline_digest bench))
    [
      ("134.perl", "dd4ba9b0de1438ab29f830740ea4c758");
      ("099.go", "69086ffc311923cc492eedefe3f68606");
    ]

let () =
  Alcotest.run "golden"
    [
      ( "golden",
        [
          Alcotest.test_case "quick engine counts" `Quick test_quick_engine;
          Alcotest.test_case "serve stable snapshot" `Quick test_serve_snapshot;
          Alcotest.test_case "timeline trace digests" `Quick
            test_timeline_digests;
        ] );
    ]
