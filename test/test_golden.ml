(* Pinned observability artifacts.  Two outputs of the recorder are
   byte-for-byte contracts that a refactor of the observability layer
   must not move:

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

let test_serve_snapshot () =
  Alcotest.(check string)
    "stable snapshot = golden/serve-go-li.metrics"
    (read_file "golden/serve-go-li.metrics")
    (serve_snapshot ())

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
          Alcotest.test_case "serve stable snapshot" `Quick test_serve_snapshot;
          Alcotest.test_case "timeline trace digests" `Quick
            test_timeline_digests;
        ] );
    ]
