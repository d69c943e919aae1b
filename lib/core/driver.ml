module Emulator = Vp_exec.Emulator
module Detector = Vp_hsd.Detector
module Phase_log = Vp_phase.Phase_log
module Identify = Vp_region.Identify
module Build = Vp_package.Build
module Linking = Vp_package.Linking
module Emit = Vp_package.Emit
module Pkg = Vp_package.Pkg
module Verify = Vp_package.Verify
module Span = Vp_obs.Span
module Counter = Vp_obs.Counter
module Flight = Vp_obs.Flight
module Timeline = Vp_obs.Timeline

let src = Logs.Src.create "vacuum.driver" ~doc:"Vacuum pipeline driver"

module Log = (val Logs.src_log src : Logs.LOG)

type profile = {
  image : Vp_prog.Image.t;
  outcome : Emulator.outcome;
  snapshots : Vp_hsd.Snapshot.t list;
  log : Phase_log.t;
  aggregate : Vp_exec.Branch_profile.t;
  detections : int;
  truncated : bool;
  timeline : Timeline.t;
  warnings : Error.t list;
}

type region_info = {
  phase : Phase_log.phase;
  region : Vp_region.Region.t;
  stats : Identify.stats;
}

type rung = Drop_package | Drop_region | Fallback_image

type demotion = { rung : rung; error : Error.t }

type rewrite = {
  source : profile;
  regions : region_info list;
  packages : Vp_package.Pkg.t list;
  emitted : Emit.result;
  demotions : demotion list;
  verification : Verify.report;
}

let rung_name = function
  | Drop_package -> "drop-package"
  | Drop_region -> "drop-region"
  | Fallback_image -> "fallback-image"

let pp_demotion ppf d =
  Format.fprintf ppf "%s: %a" (rung_name d.rung) Error.pp d.error

(* The software back half of profiling, shared by the emulator-driven
   [profile] and the external-trace [profile_of_events]: fault
   injection at the hardware→software boundary, detector and filter
   accounting, phase-log construction, truncation warnings. *)
let finish_profile ~config ~image ~fuel ~outcome ~detector ~executed ~takens
    ~timeline ~extra_warnings =
  let obs = Config.obs config in
  Vp_obs.Histogram.observe obs "driver.profile.instructions"
    outcome.Emulator.instructions;
  let aggregate = Vp_exec.Branch_profile.of_counts ~executed ~takens in
  let plan = Config.fault config in
  let snapshots = Detector.snapshots detector in
  let snapshots, fault_warnings =
    match plan with
    | Some plan when not (Vp_fault.Plan.is_clean plan) ->
      let counter_max = Config.counter_max config in
      let faulted = Vp_fault.Inject.snapshots ~plan ~counter_max snapshots in
      Counter.bump obs "fault.runs" 1;
      ( faulted,
        [
          Error.v ~stage:"fault" "plan %s active (%d -> %d snapshots)"
            plan.Vp_fault.Plan.name (List.length snapshots)
            (List.length faulted);
        ] )
    | _ -> (snapshots, [])
  in
  Counter.bump obs "detector.detections" (Detector.detections detector);
  Counter.bump obs "detector.rearms" (Detector.rearms detector);
  Counter.bump obs "detector.recordings" (Detector.recordings detector);
  Counter.bump obs "detector.history_suppressed"
    (Detector.history_suppressed detector);
  let log, filter_stats =
    Phase_log.build_with_stats ~similarity:(Config.similarity config) snapshots
  in
  Counter.bump obs "phases.merged" filter_stats.Phase_log.merged;
  Counter.bump obs "phases.unique" filter_stats.Phase_log.new_classes;
  Counter.bump obs "phases.rejected_missing"
    filter_stats.Phase_log.rejected_missing;
  Counter.bump obs "phases.rejected_bias_flips"
    filter_stats.Phase_log.rejected_bias_flips;
  let truncated = not outcome.Emulator.halted in
  let truncation_warnings =
    if truncated then begin
      Counter.bump obs "profile.truncated" 1;
      Log.warn (fun m ->
          m
            "profile truncated: fuel (%d) exhausted after %d instructions; \
             coverage and speedup would reflect a partial run"
            fuel outcome.Emulator.instructions);
      [
        Error.v ~stage:"profile"
          "truncated: fuel (%d) exhausted after %d instructions" fuel
          outcome.Emulator.instructions;
      ]
    end
    else []
  in
  {
    image;
    outcome;
    snapshots;
    log;
    aggregate;
    detections = Detector.detections detector;
    truncated;
    timeline;
    warnings = truncation_warnings @ fault_warnings @ extra_warnings;
  }

let profile ?(config = Config.default) image =
  let obs = Config.obs config in
  Span.record obs "profile"
    ~work:(fun p -> p.outcome.Emulator.instructions)
  @@ fun () ->
  let same = Vp_phase.Similarity.same ~config:(Config.similarity config) in
  let detector =
    Detector.create ~config:(Config.detector config)
      ~history_size:(Config.history_size config) ~same ()
  in
  (* Per-run timeline: created fresh for this profile run so traces
     are deterministic regardless of how Engine schedules runs across
     domains.  Without a sampling interval this is the shared [disabled]
     value and the emulator receives no [on_retire] sink at all. *)
  let tl = Timeline.create obs in
  let on_retire, tail_flush =
    if not (Timeline.enabled tl) then (None, fun () -> ())
    else begin
      let s_instr = Timeline.Series.register tl "profile.instructions" in
      let s_branch = Timeline.Series.register tl "profile.branches" in
      let s_hdc = Timeline.Series.register tl "profile.hdc" in
      let s_occ = Timeline.Series.register tl "profile.bbb_occupancy" in
      let s_cand = Timeline.Series.register tl "profile.bbb_candidates" in
      Detector.set_hooks detector
        ~on_detect:(fun ~branches ~detections ->
          Timeline.Event.emit tl ~kind:"detect" ~at:branches
            ~value:detections)
        ~on_record:(fun ~branches ~id ->
          Timeline.Event.emit tl ~kind:"record" ~at:branches ~value:id)
        ~on_rearm:(fun ~branches ~rearms ->
          Timeline.Event.emit tl ~kind:"rearm" ~at:branches ~value:rearms);
      let interval = Timeline.interval_length tl in
      let countdown = ref interval in
      let last_branches = ref 0 in
      let flush n =
        Timeline.Series.push tl s_instr n;
        let b = Detector.branches_seen detector in
        Timeline.Series.push tl s_branch (b - !last_branches);
        last_branches := b;
        Timeline.Series.push tl s_hdc (Detector.hdc_value detector);
        Timeline.Series.push tl s_occ (Detector.bbb_occupancy detector);
        Timeline.Series.push tl s_cand (Detector.bbb_candidates detector)
      in
      ( Some
          (fun ~pc:_ ~taken:_ ~next_pc:_ ~mem_addr:_ ->
            decr countdown;
            if !countdown = 0 then begin
              countdown := interval;
              flush interval
            end),
        fun () ->
          let tail = interval - !countdown in
          if tail > 0 then flush tail )
    end
  in
  (* pc-indexed counters sized by the image: the per-branch profiling
     cost is two array bumps and the detector call — no hashing, no
     tuple allocation.  The same arrays back the aggregate-profile
     consumers (fig9, the aggregate baseline) via
     {!Vp_exec.Branch_profile}. *)
  let n = Vp_prog.Image.size image in
  let executed = Array.make n 0 in
  let takens = Array.make n 0 in
  let on_branch ~pc ~taken =
    Detector.on_branch detector ~pc ~taken;
    executed.(pc) <- executed.(pc) + 1;
    if taken then takens.(pc) <- takens.(pc) + 1
  in
  (* Resource faults scale the fuel budget before the run; snapshot
     faults perturb the detector's output after it.  Both happen at
     the hardware→software boundary — the emulator and detector
     internals never see the plan, which is why the retire path stays
     closure-free when no plan is configured. *)
  let plan = Config.fault config in
  let fuel =
    match plan with
    | None -> Config.fuel config
    | Some plan -> Vp_fault.Inject.fuel ~plan (Config.fuel config)
  in
  let outcome =
    Emulator.run_backend ~backend:(Config.backend config) ~fuel
      ~mem_words:(Config.mem_words config) ~on_branch ?on_retire image
  in
  tail_flush ();
  finish_profile ~config ~image ~fuel ~outcome ~detector ~executed ~takens
    ~timeline:tl ~extra_warnings:[]

(* External-trace ingestion: the same software pipeline fed by a
   recorded (pc, taken) stream — a [vp-retire-trace/1] file, a PMU
   shim — instead of a live emulator run.  The detector replays the
   stream exactly as [on_branch] would have seen it; events whose pc
   falls outside the image (a trace captured against a different
   build, or hostile input) still reach the detector — real hardware
   records whatever pc retires — but are excluded from the pc-indexed
   aggregate arrays and surfaced as a warning.  The outcome is
   synthesized ([halted = true], no checksum), so speedup numbers that
   need a real run are out of scope; packaging, verification and
   rewriting are not. *)
let profile_of_events ?(config = Config.default) ?(instructions = 0) image
    events =
  let obs = Config.obs config in
  Span.record obs "ingest"
    ~work:(fun p -> p.outcome.Emulator.cond_branches)
  @@ fun () ->
  let same = Vp_phase.Similarity.same ~config:(Config.similarity config) in
  let detector =
    Detector.create ~config:(Config.detector config)
      ~history_size:(Config.history_size config) ~same ()
  in
  let tl = Timeline.create obs in
  let n = Vp_prog.Image.size image in
  let executed = Array.make n 0 in
  let takens = Array.make n 0 in
  let alien = ref 0 in
  Array.iter
    (fun (pc, taken) ->
      if pc < 0 then incr alien
      else begin
        Detector.on_branch detector ~pc ~taken;
        if pc < n then begin
          executed.(pc) <- executed.(pc) + 1;
          if taken then takens.(pc) <- takens.(pc) + 1
        end
        else incr alien
      end)
    events;
  let cond_branches = Array.length events in
  let instructions = if instructions > 0 then instructions else cond_branches in
  let outcome =
    {
      Emulator.instructions;
      package_instructions = 0;
      cond_branches;
      halted = true;
      checksum = 0;
      result = 0;
      final_pc = -1;
    }
  in
  let extra_warnings =
    if !alien = 0 then []
    else
      [
        Error.v ~stage:"ingest"
          "%d trace event(s) fall outside the image (size %d)" !alien n;
      ]
  in
  finish_profile ~config ~image ~fuel:(Config.fuel config) ~outcome ~detector
    ~executed ~takens ~timeline:tl ~extra_warnings

(* The demotion ladder.  Whenever a stage fails — a region that cannot
   be identified or built, a package that fails structural validation
   or a resource budget, an emission error, a verifier rejection — the
   pipeline gives up the smallest thing that makes the failure go
   away: first the offending package, then the whole region, and as a
   last resort every package, leaving the image unmodified.  A
   demoted result is always still a sound result. *)

let make_demoter obs =
  let demotions = ref [] in
  let demote rung error =
    demotions := { rung; error } :: !demotions;
    Counter.bump obs ("demote." ^ rung_name rung) 1;
    Flight.note obs ~kind:"demote" ~label:(rung_name rung);
    if rung = Fallback_image then
      Flight.dump obs ~reason:"fallback-image" ~label:"driver" ();
    Log.warn (fun m -> m "%a" pp_demotion { rung; error })
  in
  (demotions, demote)

(* In degraded mode any stage failure becomes a payload; typed
   pipeline errors keep their context, anything else is wrapped. *)
let wrap_stage ~degrade stage f =
  try Ok (f ()) with
  | Error.Error e -> Result.Error e
  | exn when degrade ->
    Result.Error (Error.v ~stage "%s" (Printexc.to_string exn))

(* The packaging back half — screening, linking, emission,
   verification, and the demotion ladder over all of them — factored
   out of [rewrite_of_profile] so the session loop can re-emit its
   package cache against the pristine original image each epoch.
   [demote] records rung decisions into the caller's ledger;
   [on_screened] fires between screening and emission (the one-shot
   driver injects its per-region bookkeeping there). *)
let assemble_parts ~config ~demote ~on_screened ~original packages =
  let obs = Config.obs config in
  let degrade = Config.degrade config in
  let plan = Config.fault config in
  (* Package screening: structural validity plus the plan's resource
     budgets.  Per-package overruns drop that package; the expansion
     budget drops packages largest-first until the total fits. *)
  let screen pkgs =
    let pkgs =
      List.filter
        (fun (p : Pkg.t) ->
          match Pkg.validate p with
          | Ok () -> (
            match plan with
            | Some
                {
                  Vp_fault.Plan.resource =
                    { max_package_instrs = Some budget; _ };
                  _;
                }
              when Pkg.size p > budget ->
              let e =
                Error.v ~stage:"build" ~label:p.Pkg.id
                  "package size %d exceeds budget %d" (Pkg.size p) budget
              in
              if degrade then begin
                demote Drop_package e;
                false
              end
              else raise (Error.Error e)
            | _ -> true)
          | Result.Error msg ->
            let e =
              Error.v ~stage:"build" ~label:p.Pkg.id "invalid package: %s" msg
            in
            if degrade then begin
              demote Drop_package e;
              false
            end
            else raise (Error.Error e))
        pkgs
    in
    match plan with
    | Some
        { Vp_fault.Plan.resource = { max_expansion_pct = Some pct; _ }; _ } ->
      let budget =
        int_of_float
          (pct /. 100.
          *. float_of_int (Vp_prog.Image.static_instruction_count original))
      in
      let total ps = List.fold_left (fun a p -> a + Pkg.size p) 0 ps in
      let rec trim ps =
        if total ps <= budget then ps
        else
          match ps with
          | [] -> []
          | _ ->
            let largest =
              List.fold_left
                (fun acc p -> if Pkg.size p > Pkg.size acc then p else acc)
                (List.hd ps) ps
            in
            let e =
              Error.v ~stage:"build" ~label:largest.Pkg.id
                "expansion budget %.1f%% exhausted (total %d > %d)" pct
                (total ps) budget
            in
            if degrade then begin
              demote Drop_package e;
              trim (List.filter (fun p -> p != largest) ps)
            end
            else raise (Error.Error e)
      in
      (* A budget with no room at all is not a sequence of package
         drops, it is the bottom rung: keep the image unmodified. *)
      if budget <= 0 && pkgs <> [] then
        let e =
          Error.v ~stage:"build"
            "expansion budget %.1f%% leaves no room for packages" pct
        in
        if degrade then begin
          demote Fallback_image e;
          []
        end
        else raise (Error.Error e)
      else trim pkgs
    | _ -> pkgs
  in
  let screened = screen packages in
  on_screened screened;
  let transform ~protected pkg =
    Vp_opt.Opt.transform ~config:(Config.opt config) ~protected pkg
  in
  let link_and_emit pkgs =
    let groups, link_stats =
      Span.record obs "link"
        ~work:(fun (_, s) -> s.Linking.orderings_ranked)
      @@ fun () ->
      Linking.group_packages_with_stats ~linking:(Config.linking config) pkgs
    in
    Counter.bump obs "link.groups" link_stats.Linking.groups;
    Counter.bump obs "link.linked_groups" link_stats.Linking.linked_groups;
    Counter.bump obs "link.orderings_ranked"
      link_stats.Linking.orderings_ranked;
    Counter.bump obs "link.greedy_fallbacks"
      link_stats.Linking.greedy_fallbacks;
    Counter.bump obs "link.links" link_stats.Linking.links_resolved;
    Emit.of_groups ~transform original groups
  in
  (* The package id is a prefix of every label it emits, so a label-
     carrying emission error can be walked back to its package. *)
  let owner_of (pkgs : Pkg.t list) (e : Error.t) =
    match e.Error.label with
    | None -> None
    | Some l ->
      List.find_opt
        (fun (p : Pkg.t) ->
          p.Pkg.id = l || String.starts_with ~prefix:(p.Pkg.id ^ "$") l)
        pkgs
  in
  let verify emitted = Verify.check ~original emitted in
  let fallback e =
    demote Fallback_image e;
    let emitted = link_and_emit [] in
    (emitted, verify emitted)
  in
  let rec emit_verified pkgs budget =
    let attempt =
      if degrade then wrap_stage ~degrade "emit" (fun () -> link_and_emit pkgs)
      else Ok (link_and_emit pkgs)
    in
    match attempt with
    | Result.Error e when budget <= 0 -> fallback e
    | Result.Error e -> (
      match owner_of pkgs e with
      | Some p ->
        demote Drop_package e;
        emit_verified (List.filter (fun q -> q != p) pkgs) (budget - 1)
      | None -> fallback e)
    | Ok emitted ->
      let report =
        Span.record obs "verify"
          ~work:(fun (r : Verify.report) -> r.Verify.checked_instructions)
        @@ fun () -> verify emitted
      in
      if Verify.ok report then (emitted, report)
      else begin
        Counter.bump obs "verify.rejections" 1;
        Flight.note obs ~kind:"verify" ~label:"rejection";
        Flight.dump obs ~reason:"verifier-rejection" ~label:"driver" ();
        let first = List.hd report.Verify.violations in
        let e =
          Error.v ~stage:"verify" ?label:first.Verify.label
            ?pc:first.Verify.addr "%d violation(s): %s"
            (List.length report.Verify.violations)
            first.Verify.what
        in
        if not degrade then raise (Error.Error e)
        else begin
          let bad =
            List.filter_map (fun v -> v.Verify.pkg) report.Verify.violations
            |> List.sort_uniq compare
          in
          let offending =
            List.filter (fun (p : Pkg.t) -> List.mem p.Pkg.id bad) pkgs
          in
          if offending = [] || budget <= 0 then fallback e
          else begin
            List.iter
              (fun (p : Pkg.t) ->
                demote Drop_package
                  (Error.v ~stage:"verify" ~label:p.Pkg.id
                     "package rejected by the soundness verifier"))
              offending;
            emit_verified
              (List.filter (fun p -> not (List.memq p offending)) pkgs)
              (budget - 1)
          end
        end
      end
  in
  let emitted, verification =
    Span.record obs "emit"
      ~work:(fun ((e : Emit.result), _) -> e.Emit.package_instructions)
    @@ fun () -> emit_verified screened (List.length screened + 1)
  in
  (screened, emitted, verification)

type assembly = {
  survivors : Pkg.t list;
  assembled : Emit.result;
  checks : Verify.report;
  drops : demotion list;
}

let assemble ?(config = Config.default) ~original packages =
  let demotions, demote = make_demoter (Config.obs config) in
  let survivors, assembled, checks =
    assemble_parts ~config ~demote ~on_screened:ignore ~original packages
  in
  { survivors; assembled; checks; drops = List.rev !demotions }

let rewrite_of_profile ?(config = Config.default) source =
  let obs = Config.obs config in
  let degrade = Config.degrade config in
  let demotions, demote = make_demoter obs in
  let wrap stage f = wrap_stage ~degrade stage f in
  let regions =
    Span.record obs "regions" ~work:(List.length) @@ fun () ->
    List.filter_map
      (fun (phase : Phase_log.phase) ->
        match
          wrap "identify" (fun () ->
              Identify.identify_with_stats ~config:(Config.identify config)
                source.image
                phase.Phase_log.representative)
        with
        | Ok (region, stats) -> Some { phase; region; stats }
        | Result.Error e when degrade ->
          demote Drop_region e;
          None
        | Result.Error e -> raise (Error.Error e))
      (Phase_log.phases source.log)
  in
  List.iter
    (fun info ->
      Counter.bump obs "identify.hot_blocks" info.stats.Identify.hot_blocks;
      Counter.bump obs "identify.inference_rounds"
        info.stats.Identify.inference_rounds;
      Counter.bump obs "identify.grown_blocks" info.stats.Identify.grown_blocks)
    regions;
  let packages =
    Span.record obs "packages" ~work:(List.length) @@ fun () ->
    List.concat_map
      (fun info ->
        match
          wrap "build" (fun () ->
              Build.build info.region
                ~prefix:(Printf.sprintf "pkg$p%d" info.phase.Phase_log.id))
        with
        | Ok pkgs -> pkgs
        | Result.Error e when degrade ->
          demote Drop_region e;
          []
        | Result.Error e -> raise (Error.Error e))
      regions
  in
  List.iter
    (fun (p : Pkg.t) ->
      Counter.bump obs "build.blocks" (List.length p.Pkg.blocks);
      Counter.bump obs "build.exit_blocks"
        (List.length
           (List.filter (fun (b : Pkg.block) -> b.Pkg.is_exit) p.Pkg.blocks)))
    packages;
  let on_screened screened =
    (* A region whose every package was screened away is itself gone —
       unless screening already fell back wholesale, which subsumes the
       per-region accounting. *)
    if not (List.exists (fun d -> d.rung = Fallback_image) !demotions) then
      List.iter
        (fun info ->
          let rid = info.phase.Phase_log.id in
          let had =
            List.exists (fun (p : Pkg.t) -> p.Pkg.region_id = rid) packages
          and kept =
            List.exists (fun (p : Pkg.t) -> p.Pkg.region_id = rid) screened
          in
          if had && not kept then
            demote Drop_region
              (Error.v ~stage:"build" "region %d lost all its packages" rid))
        regions
  in
  let screened, emitted, verification =
    assemble_parts ~config ~demote ~on_screened ~original:source.image packages
  in
  {
    source;
    regions;
    packages = screened;
    emitted;
    demotions = List.rev !demotions;
    verification;
  }

let with_snapshots ?similarity p snapshots =
  { p with snapshots; log = Phase_log.build ?similarity snapshots }

let rewrite ?config image =
  rewrite_of_profile ?config (profile ?config image)

let rewritten_image r = r.emitted.Emit.image
