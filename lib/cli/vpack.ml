(* vpack: command-line front end for the Vacuum Packing pipeline.

   Every subcommand is a row of one declarative Spec table; flags
   shared across subcommands ([--backend], [--jobs], [--seeds], the
   workload selectors) are defined exactly once below, so they parse
   and document identically everywhere, and --help/usage text is
   generated from the table.

   Exit codes: 0 success, 2 command-line error (unknown subcommand,
   unknown/ambiguous workload, bad flags), 3 pipeline error, 4
   verifier rejection (verify; serve on a fallback or oracle failure),
   5 chaos-matrix failure, 6 fuzz-campaign failure. *)

module Registry = Vp_workloads.Registry
module Program = Vp_prog.Program
module Emulator = Vp_exec.Emulator
module Session = Vacuum.Session
module Config = Vacuum.Config
module Timeline = Vp_obs.Timeline

(* Accept the exact Table 1 bench name or any unambiguous suffix:
   "134.perl" and "perl" both name 134.perl. *)
let resolve_bench bench =
  if List.mem bench Registry.benches then Some bench
  else
    let matches name =
      match String.index_opt name '.' with
      | Some i -> String.sub name (i + 1) (String.length name - i - 1) = bench
      | None -> false
    in
    match List.filter matches Registry.benches with
    | [ name ] -> Some name
    | [] -> None
    | _ :: _ :: _ as multi ->
      (* A usage error, not a pipeline failure: raise on the typed
         channel with the [cli] stage so the top level can print usage
         and exit 2, matching the parser's own errors. *)
      Vacuum.Error.failf ~stage:"cli" "ambiguous workload %s (matches %s)"
        bench
        (String.concat ", " multi)

let find_workload spec =
  let bench, input =
    match String.index_opt spec '/' with
    | Some i ->
      ( String.sub spec 0 i,
        String.sub spec (i + 1) (String.length spec - i - 1) )
    | None -> (spec, "A")
  in
  match
    Option.bind (resolve_bench bench) (fun bench -> Registry.find ~bench ~input)
  with
  | Some w -> w
  | None ->
    Vacuum.Error.failf ~stage:"cli" "unknown workload %s (try `vpack list`)"
      spec

(* ---- the shared flag definitions ---- *)

let workload_flag =
  Spec.flag ~kind:Spec.Value ~docv:"NAME" ~required:true
    ~doc:"Workload as BENCH or BENCH/INPUT (see `vpack list`)."
    [ "w"; "workload" ]

let workloads_flag =
  Spec.flag ~kind:Spec.Value ~docv:"NAME" ~required:true ~repeatable:true
    ~doc:"Workload as BENCH or BENCH/INPUT (see `vpack list`)."
    [ "w"; "workload" ]

let workload_pos =
  {
    Spec.pos_docv = "WORKLOAD";
    pos_doc = "Workload as BENCH or BENCH/INPUT.";
    pos_required = true;
  }

let backend_flag =
  Spec.flag ~kind:Spec.Value ~docv:"BACKEND" ~default:"decoded"
    ~doc:
      "Functional emulator backend: reference, decoded or compiled.  All \
       backends produce bit-identical results; the choice only affects \
       simulation speed."
    [ "backend" ]

let jobs_flag =
  Spec.flag ~kind:Spec.Value ~docv:"N" ~default:"0" ~check:Spec.check_int
    ~doc:
      "Evaluate up to N workloads in parallel on separate domains (0 = the \
       machine's recommended domain count)."
    [ "j"; "jobs" ]

let seeds_flag =
  Spec.flag ~kind:Spec.Value ~docv:"N" ~default:"5" ~check:Spec.check_int
    ~doc:"Seeds per fault plan." [ "seeds" ]

let no_inference_flag =
  Spec.flag ~kind:Spec.Bool ~doc:"Disable hot-block inference."
    [ "no-inference" ]

let no_linking_flag =
  Spec.flag ~kind:Spec.Bool ~doc:"Disable package linking." [ "no-linking" ]

let timing_flag =
  Spec.flag ~kind:Spec.Bool ~doc:"Run the cycle-level timing model."
    [ "timing" ]

let trace_flag doc = Spec.flag ~kind:Spec.Value ~docv:"FILE" ~doc [ "trace" ]

let obs_trace_flag =
  trace_flag
    "Record pipeline spans and write them to FILE as a Chrome trace-event / \
     Perfetto JSON trace (schema vp-perfetto-trace/1)."

let ingest_trace_flag =
  Spec.flag ~kind:Spec.Value ~docv:"FILE"
    ~doc:
      "Ingest a vp-retire-trace/1 retired-branch trace instead of running \
       the emulator: the recorded stream drives the detector, phase \
       filtering and packaging exactly as a live run's would."
    [ "ingest-trace" ]

let record_trace_flag =
  Spec.flag ~kind:Spec.Value ~docv:"FILE"
    ~doc:
      "Record the run's retired-branch stream to FILE (schema \
       vp-retire-trace/1), for later --ingest-trace or trace-check."
    [ "record-trace" ]

(* Profile through the emulator, or — under --ingest-trace — from the
   recorded stream, the emulator-free path.  Trace problems are
   pipeline errors (exit 3), not usage errors: the command line was
   fine, the file was not. *)
let profile_or_ingest m ~config img =
  match Spec.value m "ingest-trace" with
  | None -> Vacuum.Driver.profile ~config img
  | Some path -> (
    match Vp_gen.Trace.read_file ~path with
    | Error e -> Vacuum.Error.failf ~stage:"trace" "%s: %s" path e
    | Ok t ->
      let p =
        Vacuum.Driver.profile_of_events ~config
          ~instructions:t.Vp_gen.Trace.instructions img
          (Vp_gen.Trace.events t)
      in
      List.iter
        (fun w -> Format.eprintf "warning: %a@." Vacuum.Error.pp w)
        p.Vacuum.Driver.warnings;
      p)

let resolve_jobs m =
  let n = Spec.int_value m "jobs" ~default:0 in
  if n <= 0 then Vp_util.Pool.default_jobs () else n

let resolve_backend m =
  let name = Option.value ~default:"decoded" (Spec.value m "backend") in
  match Emulator.backend_of_string name with
  | Some b -> b
  | None ->
    Vacuum.Error.failf ~stage:"cli"
      "unknown backend %s (expected reference, decoded or compiled)" name

let config_of m =
  Config.experiment
    ~inference:(not (Spec.flag_set m "no-inference"))
    ~linking:(not (Spec.flag_set m "no-linking"))

let workload_of m = find_workload (Option.get (Spec.value m "workload"))
let workload_of_pos m = find_workload (List.hd (Spec.positional m))

(* --- list --- *)

let list_cmd =
  Spec.cmd ~name:"list" ~doc:"List the Table 1 workload inventory." ~flags:[]
    (fun _ ->
      let t =
        Vp_util.Tabular.create
          ~header:
            [
              ("workload", Vp_util.Tabular.Left);
              ("static instrs", Vp_util.Tabular.Right);
              ("description", Vp_util.Tabular.Left);
            ]
      in
      List.iter
        (fun w ->
          let p = w.Registry.program () in
          Vp_util.Tabular.add_row t
            [
              Registry.name w;
              string_of_int (Program.static_size p);
              w.Registry.description;
            ])
        Registry.all;
      Vp_util.Tabular.print t)

(* --- run --- *)

let run_cmd =
  Spec.cmd ~name:"run" ~doc:"Execute a workload on the functional emulator."
    ~flags:[ workload_flag; backend_flag; record_trace_flag ] (fun m ->
      let backend = resolve_backend m in
      let w = workload_of m in
      let img = Program.layout (w.Registry.program ()) in
      let o =
        match Spec.value m "record-trace" with
        | None -> Emulator.run_backend ~backend img
        | Some path ->
          let t, o = Vp_gen.Trace.record ~backend img in
          Vp_gen.Trace.write_file ~path t;
          Printf.printf "trace: %d events -> %s\n" (Vp_gen.Trace.length t) path;
          o
      in
      Printf.printf "%s: %d instructions, %d conditional branches, result %d%s\n"
        (Registry.name w) o.Emulator.instructions o.Emulator.cond_branches
        o.Emulator.result
        (if o.Emulator.halted then "" else " (fuel exhausted)"))

(* --- phases --- *)

let phases_cmd =
  let ipc_flag =
    Spec.flag ~kind:Spec.Bool
      ~doc:"Also report per-phase IPC on the EPIC model." [ "ipc" ]
  in
  Spec.cmd ~name:"phases"
    ~doc:"Profile a workload and show its detected phases."
    ~flags:[ workload_flag; ipc_flag; backend_flag; ingest_trace_flag ]
    (fun m ->
      let backend = resolve_backend m in
      let w = workload_of m in
      let img = Program.layout (w.Registry.program ()) in
      let profile =
        profile_or_ingest m
          ~config:(Config.with_backend backend Config.default)
          img
      in
      Printf.printf "%s: %d raw detections, %d recordings\n" (Registry.name w)
        profile.Vacuum.Driver.detections
        (List.length profile.Vacuum.Driver.snapshots);
      Format.printf "%a@." Vp_phase.Phase_log.pp profile.Vacuum.Driver.log;
      let timeline = Vp_phase.Phase_log.timeline profile.Vacuum.Driver.log in
      List.iter
        (fun (s, e, p) -> Printf.printf "  [%9d, %9d) phase %d\n" s e p)
        timeline;
      if Spec.flag_set m "ipc" then begin
        Printf.printf "\nper-phase timing (phase -1 = detector warm-up):\n";
        List.iter
          (fun (ps : Vp_cpu.Pipeline.phase_stats) ->
            Printf.printf
              "  phase %2d: %9d branches, %10d instrs, %10d cycles, IPC %.3f\n"
              ps.Vp_cpu.Pipeline.phase ps.Vp_cpu.Pipeline.branches
              ps.Vp_cpu.Pipeline.seg_instructions ps.Vp_cpu.Pipeline.seg_cycles
              ps.Vp_cpu.Pipeline.seg_ipc)
          (Vp_cpu.Pipeline.simulate_phases ~backend ~timeline img)
      end)

(* --- extract --- *)

let extract_cmd =
  Spec.cmd ~name:"extract"
    ~doc:"Run region identification and package extraction."
    ~flags:
      [
        workload_flag; no_inference_flag; no_linking_flag; backend_flag;
        ingest_trace_flag;
      ]
    (fun m ->
      let backend = resolve_backend m in
      let w = workload_of m in
      let img = Program.layout (w.Registry.program ()) in
      let config = Config.with_backend backend (config_of m) in
      let r =
        Vacuum.Driver.rewrite_of_profile ~config
          (profile_or_ingest m ~config img)
      in
      List.iter
        (fun (info : Vacuum.Driver.region_info) ->
          Printf.printf
            "phase %d: %d functions, %d hot blocks, %d instructions selected\n"
            info.Vacuum.Driver.phase.Vp_phase.Phase_log.id
            info.Vacuum.Driver.stats.Vp_region.Identify.functions
            info.Vacuum.Driver.stats.Vp_region.Identify.hot_blocks
            info.Vacuum.Driver.stats.Vp_region.Identify.selected_instructions)
        r.Vacuum.Driver.regions;
      List.iter
        (fun p ->
          Printf.printf
            "package %s: root %s, %d blocks, %d entries, %d branch sites\n"
            p.Vp_package.Pkg.id p.Vp_package.Pkg.root
            (List.length p.Vp_package.Pkg.blocks)
            (List.length p.Vp_package.Pkg.entries)
            (Vp_package.Pkg.branch_count p))
        r.Vacuum.Driver.packages;
      Printf.printf "emitted %d package instructions, %d launch points\n"
        r.Vacuum.Driver.emitted.Vp_package.Emit.package_instructions
        (List.length r.Vacuum.Driver.emitted.Vp_package.Emit.launch_patches))

(* --- aggregate --- *)

let aggregate_cmd =
  let runs_flag =
    Spec.flag ~kind:Spec.Value ~docv:"N" ~default:"256" ~check:Spec.check_int
      ~doc:"Emulate N user-machine runs (ignored with --ingest)." [ "runs" ]
  in
  let shards_flag =
    Spec.flag ~kind:Spec.Value ~docv:"N" ~default:"8" ~check:Spec.check_int
      ~doc:"Partition the fleet over N aggregation shards." [ "shards" ]
  in
  let seed_flag =
    Spec.flag ~kind:Spec.Value ~docv:"S" ~default:"42" ~check:Spec.check_int
      ~doc:"Root seed of the per-machine noise." [ "seed" ]
  in
  let wire_flag =
    Spec.flag ~kind:Spec.Value ~docv:"FILE"
      ~doc:"Also write the fleet's vp-profile-wire/1 stream to FILE."
      [ "wire" ]
  in
  let ingest_flag =
    Spec.flag ~kind:Spec.Value ~docv:"FILE" ~repeatable:true
      ~doc:
        "Ingest runs from this vp-profile-wire/1 file instead of emulating \
         them."
      [ "ingest" ]
  in
  Spec.cmd ~name:"aggregate"
    ~doc:
      "Aggregate a fleet of per-machine profile streams (emulated, or \
       ingested from vp-profile-wire/1 files) into one consensus profile and \
       feed it through the packaging pipeline.  Stdout is byte-identical for \
       every --shards/--jobs value."
    ~positional:workload_pos
    ~exits:
      [
        (0, "success");
        (2, "command-line error");
        (3, "pipeline or wire-format error");
      ]
    ~flags:
      [
        runs_flag; shards_flag; seed_flag; jobs_flag; wire_flag; ingest_flag;
        backend_flag;
      ]
    (fun m ->
      let backend = resolve_backend m in
      let w = workload_of_pos m in
      let img = Program.layout (w.Registry.program ()) in
      let config = Config.with_backend backend Config.default in
      let base = Vacuum.Driver.profile ~config img in
      let ingest = Spec.values m "ingest" in
      let wire_runs =
        if ingest <> [] then
          List.concat_map
            (fun path ->
              match Vp_aggregate.Wire.read_file ~path with
              | Ok rs -> rs
              | Error e -> Vacuum.Error.failf ~stage:"wire" "%s: %s" path e)
            ingest
        else
          Vacuum.Fleet.emulate_runs ~config
            ~seed:(Spec.int_value m "seed" ~default:42)
            ~runs:(Spec.int_value m "runs" ~default:256)
            base
      in
      (match Spec.value m "wire" with
      | None -> ()
      | Some path ->
        Vp_aggregate.Wire.write_file ~path wire_runs;
        Printf.eprintf "wire: %d runs -> %s\n" (List.length wire_runs) path);
      let t0 = Unix.gettimeofday () in
      let fleet =
        Vacuum.Fleet.aggregate ~config
          ~shards:(Spec.int_value m "shards" ~default:8)
          ~jobs:(resolve_jobs m) ~base wire_runs
      in
      let dt = Unix.gettimeofday () -. t0 in
      let stats = fleet.Vacuum.Fleet.stats in
      (* Everything on stdout is a pure function of the ingested fleet:
         CI asserts shard/job invariance by diffing stdout across
         --shards and --jobs values.  Sharding geometry and throughput
         go to stderr. *)
      Printf.printf "%s: %d runs, %d snapshots (%d classified, %d dropped)\n"
        (Registry.name w) stats.Vp_aggregate.Shard.runs
        stats.Vp_aggregate.Shard.snapshots stats.Vp_aggregate.Shard.classified
        stats.Vp_aggregate.Shard.dropped;
      List.iter
        (fun (id, (p : Vp_aggregate.Profile.t)) ->
          Printf.printf
            "  class %d: %d runs, %d snapshots, %d branches, est weight %d\n"
            id p.Vp_aggregate.Profile.runs p.Vp_aggregate.Profile.snapshots
            (Vp_aggregate.Profile.branch_count p)
            (Vp_aggregate.Profile.total_estimated p))
        fleet.Vacuum.Fleet.classes;
      Printf.printf "aggregate digest %016x\n" fleet.Vacuum.Fleet.digest;
      let r =
        Vacuum.Driver.rewrite_of_profile ~config
          (Vacuum.Fleet.profile_of_fleet ~config ~base fleet)
      in
      Printf.printf "consensus rewrite: %d packages, %d package instructions\n"
        (List.length r.Vacuum.Driver.packages)
        r.Vacuum.Driver.emitted.Vp_package.Emit.package_instructions;
      Printf.eprintf
        "aggregated over %d shards, %d jobs: %.0f snapshots/sec (%.3f s)\n"
        stats.Vp_aggregate.Shard.shards stats.Vp_aggregate.Shard.jobs
        (float_of_int stats.Vp_aggregate.Shard.snapshots /. Float.max dt 1e-9)
        dt)

(* --- report --- *)

let report_cmd =
  Spec.cmd ~name:"report"
    ~doc:
      "Full evaluation of one or more workloads (coverage, expansion, \
       optional timing), in parallel under --jobs."
    ~flags:
      [
        workloads_flag; no_inference_flag; no_linking_flag; timing_flag;
        jobs_flag; obs_trace_flag; backend_flag;
      ]
    (fun m ->
      let backend = resolve_backend m in
      let ws = List.map find_workload (Spec.values m "workload") in
      let trace = Spec.value m "trace" in
      let obs = if trace = None then Vp_obs.disabled else Vp_obs.create () in
      let config =
        Config.with_backend backend (Config.with_obs obs (config_of m))
      in
      let timing = Spec.flag_set m "timing" in
      (* Each evaluation is an isolated profile/rewrite/simulate chain;
         run them on a domain pool and print in request order. *)
      let reports =
        Vp_util.Pool.map ~jobs:(resolve_jobs m)
          (fun w ->
            let img = Program.layout (w.Registry.program ()) in
            Vacuum.Report.evaluate ~config ~timing ~name:(Registry.name w) img)
          ws
      in
      List.iter
        (fun report -> Format.printf "%a@." Vacuum.Report.pp report)
        reports;
      match trace with
      | None -> ()
      | Some path ->
        Vp_obs.Perfetto.write_spans obs ~path;
        Printf.printf "trace: %d spans -> %s\n"
          (List.length (Vp_obs.Sink.spans obs))
          path)

(* --- stats --- *)

let stats_cmd =
  let metrics_flag =
    Spec.flag ~kind:Spec.Bool
      ~doc:
        "Also print the recorder's one-shot OpenMetrics snapshot (volatile \
         section included)."
      [ "metrics" ]
  in
  Spec.cmd ~name:"stats"
    ~doc:
      "Evaluate one workload with the observability recorder enabled and \
       print the effective configuration plus per-stage span and counter \
       tables."
    ~flags:
      [
        workload_flag; no_inference_flag; no_linking_flag; timing_flag;
        obs_trace_flag; metrics_flag; backend_flag;
      ]
    (fun m ->
      let backend = resolve_backend m in
      let w = workload_of m in
      let obs = Vp_obs.create () in
      let config =
        Config.with_backend backend (Config.with_obs obs (config_of m))
      in
      let img = Program.layout (w.Registry.program ()) in
      let report =
        Vacuum.Report.evaluate ~config
          ~timing:(Spec.flag_set m "timing")
          ~name:(Registry.name w) img
      in
      Format.printf "%a@." Vacuum.Report.pp report;
      Printf.printf "\neffective configuration (%s):\n" (Registry.name w);
      Format.printf "%a@." Config.pp config;
      Printf.printf "\npipeline spans (%s):\n" (Registry.name w);
      Vp_util.Tabular.print (Vp_obs.Sink.span_table obs);
      Printf.printf "\npipeline counters:\n";
      Vp_util.Tabular.print (Vp_obs.Sink.counter_table obs);
      (match Vp_obs.Sink.dropped_spans obs with
      | 0 -> ()
      | n -> Printf.printf "(%d spans dropped to ring wrap-around)\n" n);
      if Spec.flag_set m "metrics" then begin
        Printf.printf "\nmetrics snapshot:\n";
        print_string (Vp_obs.Snapshot.render ~volatile:true obs)
      end;
      match Spec.value m "trace" with
      | None -> ()
      | Some path -> Vp_obs.Perfetto.write_spans obs ~path)

(* --- timeline --- *)

let timeline_cmd =
  let interval_flag =
    Spec.flag ~kind:Spec.Value ~docv:"N"
      ~default:(string_of_int Vp_obs.default_interval)
      ~check:Spec.check_int ~doc:"Sampling interval in retired instructions."
      [ "interval" ]
  in
  let width_flag =
    Spec.flag ~kind:Spec.Value ~docv:"COLS" ~default:"72"
      ~check:Spec.check_int ~doc:"Render width." [ "width" ]
  in
  let tl_trace_flag =
    trace_flag
      "Also write the merged vp-timeline-trace/1 JSON-lines trace (profile + \
       rewritten-run + timing timelines) to FILE."
  in
  Spec.cmd ~name:"timeline"
    ~doc:
      "Render a workload's interval timeline: detector state and phase \
       extents of the profiling run, package residency lanes of the \
       rewritten run, and (with --timing) timing-model series."
    ~positional:workload_pos
    ~flags:
      [
        interval_flag; width_flag; timing_flag; no_inference_flag;
        no_linking_flag; tl_trace_flag; backend_flag;
      ]
    (fun m ->
      let backend = resolve_backend m in
      let w = workload_of_pos m in
      let interval =
        Spec.int_value m "interval" ~default:Vp_obs.default_interval
      in
      let width = Spec.int_value m "width" ~default:72 in
      let img = Program.layout (w.Registry.program ()) in
      let config =
        Config.with_backend backend
          (Config.with_obs (Vp_obs.create ~interval ()) (config_of m))
      in
      let profile = Vacuum.Driver.profile ~config img in
      let tl = profile.Vacuum.Driver.timeline in
      let series name =
        Option.value ~default:[||] (Timeline.Series.find tl name)
      in
      Printf.printf "%s: %d instructions, %d intervals of %d\n"
        (Registry.name w) profile.Vacuum.Driver.outcome.Emulator.instructions
        (Timeline.intervals tl) interval;
      let bar name values =
        Printf.printf "%-14s|%s|\n" name
          (Vp_obs.Render.sparkline ~width values)
      in
      Printf.printf "\nprofiling run (detector state per interval):\n";
      bar "hdc" (series "profile.hdc");
      bar "bbb occupancy" (series "profile.bbb_occupancy");
      bar "branches" (series "profile.branches");
      List.iter
        (fun kind ->
          Printf.printf "%-14s%d events\n" kind
            (Timeline.Event.count tl ~kind))
        [ "detect"; "record"; "rearm" ];
      (* Phase extents: map the phase log's branch-index spans onto the
         interval axis through the cumulative branch series. *)
      let branches = series "profile.branches" in
      let cum = Array.make (Array.length branches) 0 in
      let acc = ref 0 in
      Array.iteri
        (fun i b ->
          acc := !acc + b;
          cum.(i) <- !acc)
        branches;
      let extents = Vp_phase.Phase_log.timeline profile.Vacuum.Driver.log in
      Printf.printf "\nphase extents:\n";
      List.iter
        (fun (id, row) -> Printf.printf "phase %-8d|%s|\n" id row)
        (Vp_obs.Render.extent_rows ~width ~cum extents);
      (* Rewrite, then attribute the rewritten run's retirement stream
         to original code vs. each emitted package. *)
      let r = Vacuum.Driver.rewrite_of_profile ~config profile in
      let cov = Vacuum.Coverage.measure ~config r in
      let res = cov.Vacuum.Coverage.residency in
      let total =
        Option.value ~default:[||]
          (Timeline.Series.find res "run.instructions")
      in
      Printf.printf
        "\nrewritten run residency (coverage %.1f%%, %d launches, %d side \
         exits):\n"
        cov.Vacuum.Coverage.coverage_pct
        (Timeline.Event.count res ~kind:"launch")
        (Timeline.Event.count res ~kind:"side_exit");
      List.iter
        (fun name ->
          match Timeline.Series.find res name with
          | Some part when name <> "run.instructions" ->
            let label =
              String.sub name 4 (String.length name - 4 - 13)
              (* strip "run." and ".instructions" *)
            in
            let share =
              Vp_util.Stats.pct
                (Array.fold_left ( + ) 0 part)
                (Array.fold_left ( + ) 0 total)
            in
            Printf.printf "%-14s|%s| %5.1f%%\n"
              (if String.length label > 14 then String.sub label 0 14
               else label)
              (Vp_obs.Render.lane ~width ~total part)
              share
          | _ -> ())
        (Timeline.Series.names res);
      let timelines = ref [ tl; res ] in
      if Spec.flag_set m "timing" then begin
        let tt = Timeline.create (Config.obs config) in
        let stats =
          Vp_cpu.Pipeline.simulate ~config:(Config.cpu config)
            ~backend:(Config.backend config) ~fuel:(Config.fuel config)
            ~mem_words:(Config.mem_words config) ~timeline:tt
            (Vacuum.Driver.rewritten_image r)
        in
        timelines := !timelines @ [ tt ];
        let tseries name =
          Option.value ~default:[||] (Timeline.Series.find tt name)
        in
        Printf.printf "\ntiming model on the rewritten binary (IPC %.3f):\n"
          stats.Vp_cpu.Pipeline.ipc;
        Printf.printf "%-14s|%s|\n" "cycles"
          (Vp_obs.Render.sparkline ~width (tseries "timing.cycles"));
        Printf.printf "%-14s|%s|\n" "icache miss"
          (Vp_obs.Render.sparkline ~width
             (tseries "timing.icache_misses"));
        Printf.printf "%-14s|%s|\n" "dcache miss"
          (Vp_obs.Render.sparkline ~width
             (tseries "timing.dcache_misses"));
        Printf.printf "%-14s|%s|\n" "mispredicts"
          (Vp_obs.Render.sparkline ~width (tseries "timing.mispredicts"));
        Printf.printf "%-14s|%s|\n" "fetch stalls"
          (Vp_obs.Render.sparkline ~width (tseries "timing.fetch_stalls"))
      end;
      match Spec.value m "trace" with
      | None -> ()
      | Some path ->
        Timeline.write_trace ~path !timelines;
        Printf.printf "\ntrace: %d timelines -> %s\n"
          (List.length !timelines)
          path)

(* --- serve --- *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
      | _ -> '-')
    name

let serve_cmd =
  let epochs_flag =
    Spec.flag ~kind:Spec.Value ~docv:"N"
      ~default:(string_of_int Config.default_session.Config.epochs)
      ~check:Spec.check_int ~doc:"Number of re-optimization epochs to run."
      [ "epochs" ]
  in
  let epoch_fuel_flag =
    Spec.flag ~kind:Spec.Value ~docv:"N" ~default:"0" ~check:Spec.check_int
      ~doc:
        "Instructions per epoch (0 = a clean run's length divided by \
         --epochs)."
      [ "epoch-fuel" ]
  in
  let cache_pct_flag =
    Spec.flag ~kind:Spec.Value ~docv:"PCT"
      ~default:
        (Printf.sprintf "%g" Config.default_session.Config.cache_pct)
      ~check:Spec.check_float
      ~doc:
        "Package-cache budget as a percentage of the original's static size \
         (the Table 3 expansion budget); least-resident entries are evicted \
         beyond it."
      [ "cache-pct" ]
  in
  let drift_flag =
    Spec.flag ~kind:Spec.Value ~docv:"T"
      ~default:
        (Printf.sprintf "%g" Config.default_session.Config.drift_threshold)
      ~check:Spec.check_float
      ~doc:
        "Similarity threshold below which a detected phase counts as drift \
         and is packaged anew."
      [ "drift" ]
  in
  let grace_flag =
    Spec.flag ~kind:Spec.Value ~docv:"N"
      ~default:(string_of_int Config.default_session.Config.patch_grace)
      ~check:Spec.check_int
      ~doc:
        "Extra instructions an epoch may run while seeking a quiescent \
         launch point before the swap is deferred."
      [ "grace" ]
  in
  let no_oracle_flag =
    Spec.flag ~kind:Spec.Bool
      ~doc:
        "Skip the per-epoch differential oracle (verifier-only gating of \
         activations)."
      [ "no-oracle" ]
  in
  let trace_dir_flag =
    Spec.flag ~kind:Spec.Value ~docv:"DIR"
      ~doc:
        "Write one vp-timeline-trace/1 file per workload to DIR \
         (session-WORKLOAD.jsonl), every epoch's series and events tagged \
         with its epoch-K run label."
      [ "trace-dir" ]
  in
  let interval_flag =
    Spec.flag ~kind:Spec.Value ~docv:"N"
      ~default:(string_of_int Vp_obs.default_interval)
      ~check:Spec.check_int
      ~doc:"Telemetry sampling interval for --trace-dir, in retired \
            instructions."
      [ "interval" ]
  in
  let metrics_file_flag =
    Spec.flag ~kind:Spec.Value ~docv:"FILE"
      ~doc:
        "Rewrite an OpenMetrics snapshot (schema vp-metrics-snapshot/1) of \
         the stable metric registry to FILE after every epoch — a \
         scrape-able live view, byte-identical for every --jobs value and \
         backend."
      [ "metrics" ]
  in
  let perfetto_flag =
    Spec.flag ~kind:Spec.Value ~docv:"FILE"
      ~doc:
        "Write a Chrome trace-event / Perfetto JSON timeline (schema \
         vp-perfetto-trace/1) to FILE: pipeline spans on the driver lane, \
         per-epoch session slices on one lane per workload."
      [ "perfetto" ]
  in
  let flight_dir_flag =
    Spec.flag ~kind:Spec.Value ~docv:"DIR"
      ~doc:
        "Flight recorder: on a fallback to the original image, a verifier \
         rejection or an oracle failure, dump the metric registry with its \
         recent mark ring (plus the recorded spans, as a Perfetto trace) to \
         DIR."
      [ "flight-dir" ]
  in
  Spec.cmd ~name:"serve"
    ~doc:
      "Run the online re-optimization loop on one or more workloads: \
       profile, package, hot-patch the running image at a verified safe \
       launch point, keep profiling the rewritten image, and re-package on \
       phase drift — the package cache bounded by --cache-pct.  Stdout is \
       byte-identical for every --jobs value and backend."
    ~exits:
      [
        (0, "every epoch verifier-clean and oracle-clean");
        (2, "command-line error");
        (3, "pipeline error");
        (4, "an epoch fell back to the original image or failed the oracle");
      ]
    ~flags:
      [
        workloads_flag; epochs_flag; epoch_fuel_flag; cache_pct_flag;
        drift_flag; grace_flag; no_oracle_flag; trace_dir_flag; interval_flag;
        metrics_file_flag; perfetto_flag; flight_dir_flag; jobs_flag;
        backend_flag;
      ]
    (fun m ->
      let backend = resolve_backend m in
      let ws = List.map find_workload (Spec.values m "workload") in
      let epochs =
        Spec.int_value m "epochs"
          ~default:Config.default_session.Config.epochs
      in
      let trace_dir = Spec.value m "trace-dir" in
      let metrics_path = Spec.value m "metrics" in
      let perfetto_path = Spec.value m "perfetto" in
      let flight_dir = Spec.value m "flight-dir" in
      let obs =
        match (trace_dir, metrics_path, perfetto_path, flight_dir) with
        | None, None, None, None -> Vp_obs.disabled
        | _ ->
          let interval =
            Spec.int_value m "interval" ~default:Vp_obs.default_interval
          in
          Vp_obs.create ?flight_dir
            ?interval:(Option.map (fun _ -> interval) trace_dir)
            ()
      in
      let config =
        Config.default
        |> Config.with_backend backend
        |> Config.map_session (fun _ ->
               {
                 Config.epochs;
                 epoch_fuel = Spec.int_value m "epoch-fuel" ~default:0;
                 cache_pct =
                   Spec.float_value m "cache-pct"
                     ~default:Config.default_session.Config.cache_pct;
                 drift_threshold =
                   Spec.float_value m "drift"
                     ~default:Config.default_session.Config.drift_threshold;
                 patch_grace =
                   Spec.int_value m "grace"
                     ~default:Config.default_session.Config.patch_grace;
                 oracle = not (Spec.flag_set m "no-oracle");
               })
        |> Config.with_obs obs
      in
      (* One session per workload, stepped in lock-step epoch rounds on
         the domain pool — equivalent to [Session.run] per workload
         (resume is a pinned contract) but lets --metrics publish a
         fleet-wide snapshot after every epoch.  Reports print in
         request order, so stdout is independent of the schedule. *)
      let jobs = resolve_jobs m in
      let sessions =
        List.mapi
          (fun i w ->
            (i, w, Session.create ~config (Program.layout (w.Registry.program ()))))
          ws
      in
      let perfetto_on = perfetto_path <> None in
      let ev_lock = Mutex.create () in
      let epoch_events = ref [] in
      for epoch = 0 to epochs - 1 do
        ignore
          (Vp_util.Pool.map ~jobs
             ?hooks:(Vp_obs.Sched.hooks obs)
             (fun (i, _w, s) ->
               if not (Session.halted s) then begin
                 let t0 = if perfetto_on then Unix.gettimeofday () else 0.0 in
                 ignore (Session.step s);
                 if perfetto_on then begin
                   let dur = Unix.gettimeofday () -. t0 in
                   Mutex.lock ev_lock;
                   epoch_events := (i, epoch, t0, dur) :: !epoch_events;
                   Mutex.unlock ev_lock
                 end
               end)
             sessions);
        match metrics_path with
        | Some path -> Vp_obs.Snapshot.write obs ~path
        | None -> ()
      done;
      let results = List.map (fun (_, w, s) -> (w, Session.report s)) sessions in
      let bad = ref false in
      List.iter
        (fun (w, (r : Session.report)) ->
          Printf.printf "%s: config %s\n" (Registry.name w)
            (Config.to_json config);
          Format.printf "%a@." Session.pp_report r;
          List.iter
            (fun (e : Session.epoch_report) ->
              if e.Session.fallback || e.Session.oracle_ok = Some false then
                bad := true)
            r.Session.epochs;
          if r.Session.equivalent = Some false then bad := true;
          match trace_dir with
          | None -> ()
          | Some dir ->
            let path =
              Filename.concat dir
                (Printf.sprintf "session-%s.jsonl" (sanitize (Registry.name w)))
            in
            Timeline.write_trace ~path
              (List.map
                 (fun (e : Session.epoch_report) -> e.Session.timeline)
                 r.Session.epochs);
            Printf.printf "trace: %d epochs -> %s\n"
              (List.length r.Session.epochs)
              path)
        results;
      (* Export reports go to stderr: event counts and paths are stable
         but wall-clock contents are not, and stdout is the artifact CI
         diffs across --jobs. *)
      (match metrics_path with
      | Some path ->
        Vp_obs.Snapshot.write obs ~path;
        Printf.eprintf "metrics -> %s\n%!" path
      | None -> ());
      (match perfetto_path with
      | Some path ->
        let epoch_lane_events =
          List.rev_map
            (fun (i, epoch, t0, dur) ->
              {
                Vp_obs.Perfetto.name = Printf.sprintf "epoch-%d" epoch;
                cat = "session";
                pid = 3;
                tid = i;
                ts_us = t0 *. 1e6;
                dur_us = dur *. 1e6;
              })
            !epoch_events
        in
        let events =
          Vp_obs.Perfetto.of_spans ~pid:1 ~cat:"driver" (Vp_obs.Sink.spans obs)
          @ epoch_lane_events
        in
        Vp_obs.Perfetto.write
          ~processes:[ (1, "driver"); (3, "session") ]
          ~path events;
        Printf.eprintf "perfetto: %d events -> %s\n%!" (List.length events) path
      | None -> ());
      if !bad then exit 4)

(* --- trace-check --- *)

(* One dispatch table over every schema vpack emits, sniffed from the
   first line; success and failure reports are uniform across schemas.
   [Ok] carries the stdout line, [Error] the stderr line. *)
let check_trace file =
  let counted what validate path =
    Result.map (fun n -> Printf.sprintf "%d %s" n what) (validate ~path)
  in
  let validators =
    [
      ("vp-timeline-trace/1", counted "lines" Timeline.validate_file);
      ( "vp-profile-wire/1",
        fun path ->
          Result.map
            (fun (runs, snapshots) ->
              Printf.sprintf "%d runs, %d snapshots" runs snapshots)
            (Vp_aggregate.Wire.validate_file ~path) );
      ("vp-retire-trace/1", counted "events" Vp_gen.Trace.validate_file);
      ("vp-metrics-snapshot/1", counted "lines" Vp_obs.Snapshot.validate_file);
      ("vp-perfetto-trace/1", counted "events" Vp_obs.Perfetto.validate_file);
    ]
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  match
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        (in_channel_length ic, try input_line ic with End_of_file -> ""))
  with
  | exception Sys_error e -> Error (Printf.sprintf "%s: cannot read: %s" file e)
  | 0, _ -> Error (Printf.sprintf "%s: invalid trace: empty trace (0 bytes)" file)
  | _, first -> (
    match List.find_opt (fun (tag, _) -> contains first tag) validators with
    | None -> Error (Printf.sprintf "%s: unknown schema" file)
    | Some (schema, validate) -> (
      match validate file with
      | Ok detail -> Ok (Printf.sprintf "%s: valid %s, %s" file schema detail)
      | Error e -> Error (Printf.sprintf "%s: invalid %s: %s" file schema e)))

let trace_check_cmd =
  Spec.cmd ~name:"trace-check"
    ~doc:
      "Validate a trace file against its schema (vp-timeline-trace/1, \
       vp-profile-wire/1, vp-retire-trace/1, vp-metrics-snapshot/1 or \
       vp-perfetto-trace/1, detected from the first line); failures name \
       the schema and the offending line."
    ~exits:
      [
        (0, "the file is valid");
        (1, "invalid, unreadable, empty, or of no known schema");
        (2, "command-line error");
      ]
    ~positional:
      {
        Spec.pos_docv = "FILE";
        pos_doc = "Trace file to validate.";
        pos_required = true;
      }
    ~flags:[]
    (fun m ->
      match check_trace (List.hd (Spec.positional m)) with
      | Ok report -> print_endline report
      | Error report ->
        prerr_endline report;
        exit 1)

(* --- top --- *)

let top_cmd =
  let watch_flag =
    Spec.flag ~kind:Spec.Bool
      ~doc:
        "Refresh forever (ANSI clear between frames, --interval apart) \
         instead of rendering one frame."
      [ "watch" ]
  in
  let top_interval_flag =
    Spec.flag ~kind:Spec.Value ~docv:"MS" ~default:"1000"
      ~check:Spec.check_int ~doc:"Refresh interval for --watch, in \
                                  milliseconds."
      [ "interval" ]
  in
  let width_flag =
    Spec.flag ~kind:Spec.Value ~docv:"COLS" ~default:"48"
      ~check:Spec.check_int ~doc:"Histogram sparkline width."
      [ "width" ]
  in
  Spec.cmd ~name:"top"
    ~doc:
      "Dashboard over a `vpack serve --metrics` snapshot: counter and cache \
       tables, per-histogram bucket sparklines with p50/p90/p99.  Renders \
       one frame by default; --watch re-reads and redraws live."
    ~exits:
      [
        (0, "snapshot rendered");
        (1, "unreadable or invalid snapshot");
        (2, "command-line error");
      ]
    ~positional:
      {
        Spec.pos_docv = "FILE";
        pos_doc = "vp-metrics-snapshot/1 file (see `vpack serve --metrics`).";
        pos_required = true;
      }
    ~flags:[ watch_flag; top_interval_flag; width_flag ]
    (fun m ->
      let file = List.hd (Spec.positional m) in
      let width = Spec.int_value m "width" ~default:48 in
      let is_cache name =
        String.length name >= 13 && String.sub name 0 13 = "session_cache"
      in
      let frame () =
        match Vp_obs.Snapshot.read ~path:file with
        | Error e ->
          Printf.eprintf "%s: invalid vp-metrics-snapshot/1: %s\n" file e;
          exit 1
        | Ok samples ->
          Printf.printf "vpack top — %s\n" file;
          let counters, gauges, hists =
            List.fold_left
              (fun (cs, gs, hs) (name, sample) ->
                match sample with
                | Vp_obs.Snapshot.Counter v -> ((name, v) :: cs, gs, hs)
                | Vp_obs.Snapshot.Gauge v -> (cs, (name, v) :: gs, hs)
                | Vp_obs.Snapshot.Hist h -> (cs, gs, (name, h) :: hs))
              ([], [], []) samples
          in
          let counters = List.rev counters
          and gauges = List.rev gauges
          and hists = List.rev hists in
          let table title rows =
            if rows <> [] then begin
              Printf.printf "\n%s:\n" title;
              let t =
                Vp_util.Tabular.create
                  ~header:
                    [
                      ("metric", Vp_util.Tabular.Left);
                      ("value", Vp_util.Tabular.Right);
                    ]
              in
              List.iter
                (fun (n, v) -> Vp_util.Tabular.add_row t [ n; string_of_int v ])
                rows;
              Vp_util.Tabular.print t
            end
          in
          table "cache"
            (List.filter (fun (n, _) -> is_cache n) (counters @ gauges));
          table "counters"
            (List.filter (fun (n, _) -> not (is_cache n)) counters);
          table "gauges"
            (List.filter (fun (n, _) -> not (is_cache n)) gauges);
          if hists <> [] then begin
            Printf.printf "\nhistograms (log2 buckets):\n";
            List.iter
              (fun (n, h) ->
                let buckets =
                  Array.init Vp_obs.Hist.buckets
                    (Vp_obs.Hist.bucket_count h)
                in
                Printf.printf "%-28s|%s| n=%d sum=%d p50=%d p90=%d p99=%d\n" n
                  (Vp_obs.Render.sparkline ~width buckets)
                  (Vp_obs.Hist.count h) (Vp_obs.Hist.sum h)
                  (Vp_obs.Hist.quantile h 0.5)
                  (Vp_obs.Hist.quantile h 0.9)
                  (Vp_obs.Hist.quantile h 0.99))
              hists
          end
      in
      if not (Spec.flag_set m "watch") then frame ()
      else
        let pause = float_of_int (Spec.int_value m "interval" ~default:1000) /. 1000. in
        while true do
          print_string "\027[2J\027[H";
          frame ();
          flush stdout;
          Unix.sleepf pause
        done)

(* --- asm / disasm --- *)

let asm_cmd =
  Spec.cmd ~name:"asm" ~doc:"Assemble and run a textual-assembly source file."
    ~positional:
      {
        Spec.pos_docv = "FILE";
        pos_doc = "Assembly source.";
        pos_required = true;
      }
    ~flags:[ backend_flag ]
    (fun m ->
      let backend = resolve_backend m in
      let file = List.hd (Spec.positional m) in
      let ic = open_in file in
      let n = in_channel_length ic in
      let source = really_input_string ic n in
      close_in ic;
      match Vp_prog.Asm.parse_program source with
      | Error e ->
        Format.eprintf "%s: %a@." file Vp_prog.Asm.pp_error e;
        exit 1
      | Ok p ->
        let o = Emulator.run_backend ~backend (Program.layout p) in
        Printf.printf "%s: %d instructions, result %d%s\n" file
          o.Emulator.instructions o.Emulator.result
          (if o.Emulator.halted then "" else " (fuel exhausted)"))

let disasm_cmd =
  Spec.cmd ~name:"disasm"
    ~doc:"Print a workload's program as textual assembly."
    ~flags:[ workload_flag ]
    (fun m ->
      let w = workload_of m in
      print_string (Vp_prog.Asm.print_program (w.Registry.program ())))

(* --- diag --- *)

let diag_cmd =
  let addr_flag =
    Spec.flag ~kind:Spec.Value ~docv:"ADDR" ~check:Spec.check_int
      ~doc:"Also disassemble around this address of the rewritten image."
      [ "addr" ]
  in
  Spec.cmd ~name:"diag"
    ~doc:"Run the rewritten binary and histogram package boundary crossings."
    ~flags:[ workload_flag; addr_flag; backend_flag ]
    (fun m ->
      let backend = resolve_backend m in
      let w = workload_of m in
      let img = Program.layout (w.Registry.program ()) in
      let config = Config.with_backend backend Config.default in
      let r = Vacuum.Driver.rewrite ~config img in
      let rimg = Vacuum.Driver.rewritten_image r in
      let module Image = Vp_prog.Image in
      let limit = img.Image.orig_limit in
      let exits = Hashtbl.create 64 in
      let entries = Hashtbl.create 64 in
      let bump tbl k =
        Hashtbl.replace tbl k
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
      in
      let on_retire ~pc ~taken:_ ~next_pc ~mem_addr:_ =
        if next_pc >= 0 then begin
          let from_pkg = pc >= limit in
          let to_pkg = next_pc >= limit in
          if from_pkg && not to_pkg then bump exits (pc, next_pc);
          if (not from_pkg) && to_pkg then bump entries (pc, next_pc)
        end
      in
      let o = Emulator.run_backend ~backend ~on_retire rimg in
      Printf.printf "coverage %.1f%% (%d/%d instructions in packages)\n"
        (Vp_util.Stats.pct o.Emulator.package_instructions
           o.Emulator.instructions)
        o.Emulator.package_instructions o.Emulator.instructions;
      let top tbl name =
        let l = Hashtbl.fold (fun k v acc -> (v, k) :: acc) tbl [] in
        let l = List.sort (fun a b -> compare (fst b) (fst a)) l in
        Printf.printf "%s (%d distinct):\n" name (List.length l);
        List.iteri
          (fun i (count, (src, dst)) ->
            if i < 12 then begin
              let sym a =
                match Image.sym_at rimg a with
                | Some s -> s.Image.name
                | None -> "?"
              in
              Printf.printf "  %8d  0x%x (%s) -> 0x%x (%s)\n" count src
                (sym src) dst (sym dst)
            end)
          l
      in
      top exits "exits package->original";
      top entries "entries original->package";
      match Spec.value m "addr" with
      | None -> ()
      | Some addr ->
        let center = int_of_string addr in
        Printf.printf "\ndisassembly around 0x%x:\n" center;
        for a = max 0 (center - 10) to min (Image.size rimg - 1) (center + 10)
        do
          Printf.printf "%s %5x: %s\n"
            (if a = center then ">" else " ")
            a
            (Vp_isa.Instr.to_string (Image.fetch rimg a))
        done)

(* --- verify --- *)

let verify_cmd =
  Spec.cmd ~name:"verify"
    ~doc:
      "Run the pipeline and the package soundness verifier on every emitted \
       package; exit 4 if any check fails."
    ~positional:workload_pos
    ~exits:
      [
        (0, "a sound image");
        (4, "a verifier rejection");
        (3, "a pipeline error");
      ]
    ~flags:[ no_inference_flag; no_linking_flag; backend_flag ]
    (fun m ->
      let backend = resolve_backend m in
      let w = workload_of_pos m in
      let img = Program.layout (w.Registry.program ()) in
      (* Degradation off: the point of this subcommand is to see the
         verdict on everything the pipeline wanted to emit, not on what
         survived the demotion ladder. *)
      let config =
        Config.with_backend backend (Config.with_degrade false (config_of m))
      in
      let r = Vacuum.Driver.rewrite ~config img in
      let report = r.Vacuum.Driver.verification in
      Format.printf "%s: %a@." (Registry.name w) Vp_package.Verify.pp_report
        report;
      if not (Vp_package.Verify.ok report) then exit 4)

(* --- chaos --- *)

let chaos_cmd =
  let seed_flag =
    Spec.flag ~kind:Spec.Value ~docv:"S" ~default:"0" ~check:Spec.check_int
      ~doc:"Root seed of the matrix." [ "seed" ]
  in
  let report_flag =
    Spec.flag ~kind:Spec.Value ~docv:"FILE"
      ~doc:"Write the cell table (plus failures) to FILE." [ "report" ]
  in
  Spec.cmd ~name:"chaos"
    ~doc:
      "Run the seed x fault-plan chaos matrix: every preset fault plan, \
       asserting the differential oracle on each rewritten image; exit 5 on \
       any cell failure."
    ~positional:workload_pos
    ~exits:
      [
        (0, "every cell equivalent and verified");
        (5, "a cell failure");
        (3, "a pipeline error");
      ]
    ~flags:[ seeds_flag; seed_flag; jobs_flag; report_flag; backend_flag ]
    (fun m ->
      let backend = resolve_backend m in
      let w = workload_of_pos m in
      let seeds = Spec.int_value m "seeds" ~default:5 in
      let seed = Spec.int_value m "seed" ~default:0 in
      let img = Program.layout (w.Registry.program ()) in
      let result =
        Vacuum.Chaos.matrix
          ~config:(Config.with_backend backend Config.default)
          ~seeds ~seed ~jobs:(resolve_jobs m) img
      in
      let table = Vacuum.Chaos.table result in
      Printf.printf "%s: %d fault plans x %d seeds\n%s\n" (Registry.name w)
        (List.length Vp_fault.Plan.presets)
        seeds table;
      let failed =
        List.filter
          (fun (c : Vacuum.Chaos.cell) ->
            not (c.Vacuum.Chaos.equivalent && c.Vacuum.Chaos.verified))
          result.Vacuum.Chaos.cells
      in
      (match Spec.value m "report" with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        Printf.fprintf oc "%s: %d fault plans x %d seeds, root seed %d\n%s\n"
          (Registry.name w)
          (List.length Vp_fault.Plan.presets)
          seeds seed table;
        List.iter
          (fun (c : Vacuum.Chaos.cell) ->
            Printf.fprintf oc "FAILED: %s\n"
              (Format.asprintf "%a seed-index %d%s%s" Vp_fault.Plan.pp
                 c.Vacuum.Chaos.plan c.Vacuum.Chaos.seed_index
                 (if c.Vacuum.Chaos.verified then ""
                  else " [verifier rejection]")
                 (if c.Vacuum.Chaos.equivalent then ""
                  else " [oracle mismatch]")))
          failed;
        close_out oc;
        Printf.printf "report -> %s\n" path);
      if failed <> [] then begin
        Printf.eprintf "chaos: %d of %d cells failed the oracle or verifier\n"
          (List.length failed)
          (List.length result.Vacuum.Chaos.cells);
        exit 5
      end)

(* --- fuzz --- *)

let fuzz_cmd =
  let count_flag =
    Spec.flag ~kind:Spec.Value ~docv:"N" ~default:"50" ~check:Spec.check_int
      ~doc:"Generated binaries to put through the campaign." [ "count" ]
  in
  let fuzz_seeds_flag =
    Spec.flag ~kind:Spec.Value ~docv:"N" ~default:"1" ~check:Spec.check_int
      ~doc:"Chaos seeds per fault plan per generated binary." [ "seeds" ]
  in
  let seed_flag =
    Spec.flag ~kind:Spec.Value ~docv:"S" ~default:"0" ~check:Spec.check_int
      ~doc:"Root seed of the campaign's case derivation." [ "seed" ]
  in
  let report_flag =
    Spec.flag ~kind:Spec.Value ~docv:"FILE"
      ~doc:"Write the campaign report to FILE as well as stdout." [ "report" ]
  in
  let corpus_flag =
    Spec.flag ~kind:Spec.Value ~docv:"DIR"
      ~doc:
        "Write one shrunk vp-fuzz-repro/1 file per failing case into DIR \
         (created if missing)."
      [ "corpus" ]
  in
  let replay_flag =
    Spec.flag ~kind:Spec.Value ~docv:"FILE" ~repeatable:true
      ~doc:
        "Replay committed vp-fuzz-repro/1 file(s) instead of sampling new \
         cases; exit 6 if any still fails."
      [ "replay" ]
  in
  let max_phases_flag =
    Spec.flag ~kind:Spec.Value ~docv:"N" ~default:"4" ~check:Spec.check_int
      ~doc:"Largest planted phase count sampled." [ "max-phases" ]
  in
  let max_hot_flag =
    Spec.flag ~kind:Spec.Value ~docv:"N" ~default:"5" ~check:Spec.check_int
      ~doc:"Largest per-phase hot-function count sampled." [ "max-hot" ]
  in
  let max_iters_flag =
    Spec.flag ~kind:Spec.Value ~docv:"N" ~default:"60" ~check:Spec.check_int
      ~doc:"Largest per-phase iteration count sampled." [ "max-iters" ]
  in
  Spec.cmd ~name:"fuzz"
    ~doc:
      "Statistical chaos campaign over generated binaries: each case runs \
       the full profile -> package -> verify -> rewrite pipeline under the \
       fault-plan matrix with the differential oracle, plus \
       vp-retire-trace/1 round-trip, ingestion-equivalence and \
       corruption-totality checks; failures are shrunk to minimal repro \
       files.  Reports are byte-identical across --jobs and backends."
    ~exits:
      [
        (0, "every case passed");
        (6, "a case crashed or failed an oracle (after shrinking)");
        (3, "a pipeline error");
      ]
    ~flags:
      [
        count_flag; fuzz_seeds_flag; seed_flag; jobs_flag; backend_flag;
        report_flag; corpus_flag; replay_flag; max_phases_flag; max_hot_flag;
        max_iters_flag;
      ]
    (fun m ->
      let backend = resolve_backend m in
      let config = Config.with_backend backend Vp_gen.Campaign.default_config in
      let chaos_seeds = Spec.int_value m "seeds" ~default:1 in
      match Spec.values m "replay" with
      | _ :: _ as files ->
        let failed =
          List.filter
            (fun path ->
              match Vp_gen.Campaign.load_repro_file ~path with
              | Error e -> Vacuum.Error.failf ~stage:"trace" "%s: %s" path e
              | Ok r -> (
                match Vp_gen.Campaign.replay ~config ~chaos_seeds r with
                | Ok o ->
                  Printf.printf
                    "%s: seed %d passes (%d cells, %d trace events)\n" path
                    r.Vp_gen.Campaign.spec.Vp_gen.Campaign.seed
                    o.Vp_gen.Campaign.cells o.Vp_gen.Campaign.trace_events;
                  false
                | Error f ->
                  Printf.printf "%s: seed %d still FAILS [%s] %s\n" path
                    r.Vp_gen.Campaign.spec.Vp_gen.Campaign.seed
                    f.Vp_gen.Campaign.stage f.Vp_gen.Campaign.detail;
                  true))
            files
        in
        if failed <> [] then begin
          Printf.eprintf "fuzz: %d of %d repro(s) still failing\n"
            (List.length failed) (List.length files);
          exit 6
        end
      | [] ->
        let bounds =
          {
            Vp_gen.Gen.default_bounds with
            Vp_gen.Gen.max_phases = Spec.int_value m "max-phases" ~default:4;
            max_hot_funcs = Spec.int_value m "max-hot" ~default:5;
            max_phase_iters = Spec.int_value m "max-iters" ~default:60;
          }
        in
        let report =
          Vp_gen.Campaign.run ~config ~bounds ~chaos_seeds
            ~jobs:(resolve_jobs m)
            ~root_seed:(Spec.int_value m "seed" ~default:0)
            ~count:(Spec.int_value m "count" ~default:50)
            ()
        in
        let text = Vp_gen.Campaign.render report in
        print_string text;
        (match Spec.value m "report" with
        | None -> ()
        | Some path ->
          let oc = open_out path in
          output_string oc text;
          close_out oc;
          Printf.printf "report -> %s\n" path);
        (match Spec.value m "corpus" with
        | Some dir when report.Vp_gen.Campaign.repros <> [] ->
          List.iter
            (Printf.printf "repro -> %s\n")
            (Vp_gen.Campaign.save_repros ~dir report)
        | _ -> ());
        if not (Vp_gen.Campaign.ok report) then begin
          Printf.eprintf "fuzz: %d of %d cases failed\n"
            (List.length
               (List.filter
                  (fun (o : Vp_gen.Campaign.outcome) ->
                    o.Vp_gen.Campaign.failure <> None)
                  report.Vp_gen.Campaign.outcomes))
            report.Vp_gen.Campaign.count;
          exit 6
        end)

(* --- machine --- *)

let machine_cmd =
  Spec.cmd ~name:"machine"
    ~doc:"Print the simulated EPIC machine model (Table 2)." ~flags:[]
    (fun _ -> Format.printf "%a@." Vp_cpu.Config.pp Vp_cpu.Config.default)

(* ---- the tool table ---- *)

let tool =
  {
    Spec.tool_name = "vpack";
    version = "1.0.0";
    tool_doc = "Vacuum Packing: phase-based post-link optimization";
    cmds =
      [
        list_cmd; run_cmd; phases_cmd; extract_cmd; aggregate_cmd; report_cmd;
        stats_cmd; timeline_cmd; serve_cmd; top_cmd; trace_check_cmd;
        verify_cmd;
        chaos_cmd; fuzz_cmd; diag_cmd; asm_cmd; disasm_cmd; machine_cmd;
      ];
  }

let main () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Warning);
  (* Pipeline failures carry a structured payload; render it and exit
     cleanly instead of dumping a backtrace.  Usage errors — an unknown
     subcommand or bad flag (the Spec dispatcher's own exit 2) and an
     unknown or ambiguous workload (the [cli] stage) — all land on exit
     2 with a pointer at the usage. *)
  match Spec.main tool Sys.argv with
  | code -> exit code
  | exception Vacuum.Error.Error e when e.Vacuum.Error.stage = "cli" ->
    Format.eprintf "vpack: %a@." Vacuum.Error.pp e;
    Format.eprintf "Usage: vpack COMMAND …; try 'vpack --help'.@.";
    exit 2
  | exception Vacuum.Error.Error e ->
    Format.eprintf "vpack: %a@." Vacuum.Error.pp e;
    exit 3
