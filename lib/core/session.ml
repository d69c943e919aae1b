module Emulator = Vp_exec.Emulator
module State = Vp_exec.State
module Decode = Vp_exec.Decode
module Detector = Vp_hsd.Detector
module Snapshot = Vp_hsd.Snapshot
module Phase_log = Vp_phase.Phase_log
module Similarity = Vp_phase.Similarity
module Identify = Vp_region.Identify
module Build = Vp_package.Build
module Pkg = Vp_package.Pkg
module Emit = Vp_package.Emit
module Verify = Vp_package.Verify
module Image = Vp_prog.Image
module Counter = Vp_obs.Counter
module Flight = Vp_obs.Flight
module Timeline = Vp_obs.Timeline

let src = Logs.Src.create "vacuum.session" ~doc:"Vacuum online session"

module Log = (val Logs.src_log src : Logs.LOG)

(* One cached phase class.  [packages] are the region packages built
   from the ORIGINAL image (never from a rewritten one) so that each
   epoch's assembly starts from pristine code; [residency] is the
   decayed eviction signal.  A [rejected] entry is a tombstone: the
   ladder dropped all its packages, and keeping the representative
   around stops the same doomed phase from being rebuilt every time it
   is re-detected. *)
type entry = {
  id : int;
  representative : Snapshot.t;
  mutable packages : Pkg.t list;
  mutable residency : int;
  mutable rejected : bool;
  mutable hits : int;
  mutable last_seen : int;
  born : int;
}

let entry_size e = List.fold_left (fun a p -> a + Pkg.size p) 0 e.packages

type epoch_report = {
  epoch : int;
  slice : Emulator.outcome;
  grace_used : int;
  grace_package_instructions : int;
  phases_seen : int;
  new_entries : int list;
  matched_entries : int list;
  evicted : int list;
  cache_entries : int;
  cache_instructions : int;
  activated : bool;
  deferred : bool;
  fallback : bool;
  verifier_ok : bool;
  oracle_ok : bool option;
  drops : Driver.demotion list;
  coverage_pct : float;
  timeline : Timeline.t;
}

type report = {
  epochs : epoch_report list;
  instructions : int;
  package_instructions : int;
  cond_branches : int;
  halted : bool;
  coverage_pct : float;
  activations : int;
  final_cache_entries : int;
  final_image : Image.t;
  equivalent : bool option;
}

type t = {
  config : Config.t;
  original : Image.t;
  state : State.t;
  mutable image : Image.t;
  mutable emitted : Emit.result option;
  mutable halted : bool;
  mutable depth : int;
  mutable epoch : int;
  mutable next_id : int;
  mutable cache : entry list;  (* ascending id *)
  mutable dirty : bool;
  mutable retired : int;
  mutable branches : int;
  mutable package_retired : int;
  mutable baseline : Emulator.outcome option;
  mutable reports : epoch_report list;  (* reverse epoch order *)
}

let create ?(config = Config.default) image =
  (match Image.validate image with
  | Ok () -> ()
  | Error e -> Error.failf ~stage:"session" "invalid image: %s" e);
  {
    config;
    original = image;
    state = State.create ~mem_words:(Config.mem_words config) image;
    image;
    emitted = None;
    halted = false;
    depth = 0;
    epoch = 0;
    next_id = 0;
    cache = [];
    dirty = false;
    retired = 0;
    branches = 0;
    package_retired = 0;
    baseline = None;
    reports = [];
  }

let halted t = t.halted
let epochs_run t = t.epoch
let image t = t.image
let cache_entries t = List.length t.cache

(* A clean full run of the pristine original — the differential
   oracle's reference and the denominator of auto epoch fuel.  One per
   session, computed on first need. *)
let baseline t =
  match t.baseline with
  | Some o -> o
  | None ->
    let o =
      Emulator.run_backend
        ~backend:(Config.backend t.config)
        ~fuel:(Config.fuel t.config)
        ~mem_words:(Config.mem_words t.config)
        t.original
    in
    t.baseline <- Some o;
    o

let epoch_fuel t =
  let s = Config.session t.config in
  if s.Config.epoch_fuel > 0 then s.Config.epoch_fuel
  else
    let total = (baseline t).Emulator.instructions in
    Stdlib.max 1 ((total / Stdlib.max 1 s.Config.epochs) + 1)

(* pc -> original branch pc for the currently active image: identity
   below [orig_limit], the emitted branch map above it, -1 for package
   branches without a site (dropped from the detector's feed). *)
let branch_fold_map t =
  let n = Image.size t.image in
  let ol = t.image.Image.orig_limit in
  let map = Array.init n (fun pc -> if pc < ol then pc else -1) in
  (match t.emitted with
  | None -> ()
  | Some e -> List.iter (fun (pc, opc) -> if pc < n then map.(pc) <- opc) e.Emit.branch_map);
  map

let total_cache_size cache =
  List.fold_left (fun a e -> a + entry_size e) 0 cache

let cache_budget t =
  let s = Config.session t.config in
  int_of_float
    (s.Config.cache_pct /. 100.
    *. float_of_int (Image.static_instruction_count t.original))

(* Classify one freshly observed phase against the cache: best score
   wins, ties to the oldest entry; below the drift threshold the phase
   is new.  Scores are computed in original-pc space on both sides, so
   a phase re-observed through its own package code still matches. *)
let classify t (phase : Phase_log.phase) =
  let threshold = (Config.session t.config).Config.drift_threshold in
  let best =
    List.fold_left
      (fun acc e ->
        let s = Similarity.score phase.Phase_log.representative e.representative in
        match acc with
        | Some (_, bs) when bs >= s -> acc
        | _ when s >= threshold -> Some (e, s)
        | _ -> acc)
      None t.cache
  in
  Option.map fst best

let step t =
  if t.halted then
    Error.failf ~stage:"session" "step: the session's program has halted";
  let config = t.config in
  let obs = Config.obs config in
  let session_cfg = Config.session config in
  let backend = Config.backend config in
  let fuel = epoch_fuel t in
  let epoch = t.epoch in
  (* Wall clock is volatile-only; never read when the recorder is off
     so the disabled path stays branch-and-return. *)
  let wall0 = if Vp_obs.enabled obs then Unix.gettimeofday () else 0.0 in
  let tl = Timeline.create ~name:(Printf.sprintf "epoch-%d" epoch) obs in
  let same = Similarity.same ~config:(Config.similarity config) in
  let detector =
    Detector.create ~config:(Config.detector config)
      ~history_size:(Config.history_size config) ~same ()
  in
  let ol = t.image.Image.orig_limit in
  let fold = branch_fold_map t in
  let lane_of, lane_names = Coverage.lanes_of_image t.image in
  let lane_branches = Array.make (Array.length lane_names) 0 in
  (* Depth of outstanding package-space return addresses: a [Call]
     retiring in package code produces one (ra = pc + 1 >= orig_limit),
     a [Ret] landing in package code consumes one.  The only other ra
     producer, the inlined-call [La], materialises an ORIGINAL
     continuation address, and this ISA has no indirect jumps besides
     [Ret] — so [depth = 0 && pc < orig_limit] implies no live
     reference into package code anywhere in the machine, and the
     image can be swapped under the running state. *)
  let tag = (Decode.of_image t.image).Decode.tag in
  let epoch_branches = ref 0 in
  let on_branch ~pc ~taken =
    incr epoch_branches;
    lane_branches.(lane_of.(pc)) <- lane_branches.(lane_of.(pc)) + 1;
    let opc = fold.(pc) in
    if opc >= 0 then Detector.on_branch detector ~pc:opc ~taken
  in
  let need_depth = ol < Image.size t.image in
  let timeline_on = Timeline.enabled tl in
  let s_instr = Timeline.Series.register tl "session.instructions" in
  let s_branch = Timeline.Series.register tl "session.branches" in
  let s_pkg = Timeline.Series.register tl "session.package_instructions" in
  let interval = Timeline.interval_length tl in
  let countdown = ref interval in
  let last_branches = ref 0 in
  let pkg_now = ref 0 in
  let last_pkg = ref 0 in
  let flush n =
    Timeline.Series.push tl s_instr n;
    Timeline.Series.push tl s_branch (!epoch_branches - !last_branches);
    last_branches := !epoch_branches;
    Timeline.Series.push tl s_pkg (!pkg_now - !last_pkg);
    last_pkg := !pkg_now
  in
  let on_retire =
    if not (need_depth || timeline_on) then None
    else
      Some
        (fun ~pc ~taken:_ ~next_pc ~mem_addr:_ ->
          if need_depth then begin
            if pc >= ol then begin
              if tag.(pc) = Decode.tag_call then t.depth <- t.depth + 1
            end
            else if next_pc >= ol && tag.(pc) = Decode.tag_ret then
              t.depth <- t.depth - 1
          end;
          if timeline_on then begin
            if pc >= ol then incr pkg_now;
            decr countdown;
            if !countdown = 0 then begin
              countdown := interval;
              flush interval
            end
          end)
  in
  let run_chunk n =
    Emulator.run_slice ~backend ~state:t.state ~fuel:n ~on_branch ?on_retire
      t.image
  in
  let slice = run_chunk fuel in
  t.retired <- t.retired + slice.Emulator.instructions;
  t.branches <- t.branches + slice.Emulator.cond_branches;
  t.package_retired <- t.package_retired + slice.Emulator.package_instructions;
  t.halted <- slice.Emulator.halted;
  (* ---- drift classification ---- *)
  (* Fault plans apply at the same hardware→software boundary as the
     one-shot driver's: the epoch's raw snapshot stream is perturbed
     before classification ever sees it.  The plan seed is re-derived
     per epoch through [Rng.stream_seed], so epochs draw decorrelated
     faults yet the whole session stays deterministic under any
     [--jobs] count. *)
  let raw_snapshots =
    match Config.fault config with
    | Some plan when not (Vp_fault.Plan.is_clean plan) ->
      let plan =
        Vp_fault.Plan.with_seed plan
          (Vp_util.Rng.stream_seed
             (Vp_util.Rng.create ~seed:plan.Vp_fault.Plan.seed)
             epoch)
      in
      Counter.bump obs "fault.runs" 1;
      Vp_fault.Inject.snapshots ~plan
        ~counter_max:(Config.counter_max config)
        (Detector.snapshots detector)
    | _ -> Detector.snapshots detector
  in
  let log =
    Phase_log.build ~similarity:(Config.similarity config) raw_snapshots
  in
  let phases = Phase_log.phases log in
  let matched = ref [] in
  let fresh = ref [] in
  let extent_credit = Hashtbl.create 8 in
  List.iter
    (fun (phase : Phase_log.phase) ->
      match classify t phase with
      | Some e ->
        e.hits <- e.hits + 1;
        e.last_seen <- epoch;
        Counter.bump obs "session.cache.hits" 1;
        if not (List.mem e.id !matched) then matched := e.id :: !matched;
        Hashtbl.replace extent_credit e.id
          (Phase_log.extent phase
          + Option.value ~default:0 (Hashtbl.find_opt extent_credit e.id))
      | None ->
        let id = t.next_id in
        t.next_id <- id + 1;
        Counter.bump obs "session.drifts" 1;
        Flight.note obs ~kind:"drift" ~label:(string_of_int id);
        Timeline.Event.emit tl ~kind:"drift" ~at:t.retired ~value:id;
        let build_packages () =
          let region, _stats =
            Identify.identify_with_stats ~config:(Config.identify config)
              t.original phase.Phase_log.representative
          in
          Build.build region ~prefix:(Printf.sprintf "pkg$s%d" id)
        in
        let packages =
          if not (Config.degrade config) then build_packages ()
          else
            try build_packages () with
            | Error.Error e ->
              Log.warn (fun m ->
                  m "session: dropping drifted phase %d: %a" id Error.pp e);
              []
            | exn ->
              Log.warn (fun m ->
                  m "session: dropping drifted phase %d: %s" id
                    (Printexc.to_string exn));
              []
        in
        let e =
          {
            id;
            representative = phase.Phase_log.representative;
            packages;
            residency = Phase_log.extent phase;
            rejected = packages = [];
            hits = 1;
            last_seen = epoch;
            born = epoch;
          }
        in
        if e.rejected then Counter.bump obs "session.cache.tombstones" 1;
        t.cache <- t.cache @ [ e ];
        fresh := id :: !fresh;
        t.dirty <- true)
    phases;
  (* ---- residency update: decay, then integrate this epoch's lane
     branches and the extents of matched detections ---- *)
  let lane_entry name =
    List.find_opt
      (fun e -> List.exists (fun (p : Pkg.t) -> p.Pkg.id = name) e.packages)
      t.cache
  in
  List.iter
    (fun e -> if not (List.mem e.id !fresh) then e.residency <- e.residency / 2)
    t.cache;
  Array.iteri
    (fun lane count ->
      if lane > 0 && count > 0 then
        match lane_entry lane_names.(lane) with
        | Some e -> e.residency <- e.residency + count
        | None -> ())
    lane_branches;
  Hashtbl.iter
    (fun id credit ->
      match List.find_opt (fun e -> e.id = id) t.cache with
      | Some e -> e.residency <- e.residency + credit
      | None -> ())
    extent_credit;
  (* ---- bounded cache: evict least-resident-first until the Table 3
     expansion budget holds; ties go to the oldest entry ---- *)
  let budget = cache_budget t in
  let evicted = ref [] in
  let rec evict () =
    if total_cache_size t.cache > budget then begin
      let candidates = List.filter (fun e -> entry_size e > 0) t.cache in
      match candidates with
      | [] -> ()
      | first :: rest ->
        let victim =
          List.fold_left
            (fun v e ->
              if
                e.residency < v.residency
                || (e.residency = v.residency && e.id < v.id)
              then e
              else v)
            first rest
        in
        t.cache <- List.filter (fun e -> e.id <> victim.id) t.cache;
        evicted := victim.id :: !evicted;
        Counter.bump obs "session.cache.evictions" 1;
        Flight.note obs ~kind:"evict" ~label:(string_of_int victim.id);
        Timeline.Event.emit tl ~kind:"evict" ~at:t.retired ~value:victim.id;
        t.dirty <- true;
        evict ()
    end
  in
  evict ();
  (* ---- re-assembly and hot patching ---- *)
  let activated = ref false in
  let deferred = ref false in
  let fallback = ref false in
  let verifier_ok = ref true in
  let oracle_ok = ref None in
  let drops = ref [] in
  let grace_used = ref 0 in
  let grace_pkg = ref 0 in
  let assembly_input =
    List.concat_map (fun e -> e.packages)
      (List.filter (fun e -> not e.rejected) t.cache)
  in
  if t.dirty && assembly_input = [] && t.emitted = None then
    (* Nothing survives screening and nothing is live: there is no
       image to build and none to withdraw, so don't "activate" a
       byte-copy of the original. *)
    t.dirty <- false;
  if t.dirty && not t.halted then begin
    let input = assembly_input in
    let assembly = Driver.assemble ~config ~original:t.original input in
    drops := assembly.Driver.drops;
    fallback :=
      List.exists
        (fun (d : Driver.demotion) -> d.Driver.rung = Driver.Fallback_image)
        assembly.Driver.drops;
    verifier_ok := Verify.ok assembly.Driver.checks;
    (* Walk ladder drops back into the cache so a rejected package is
       not rebuilt and re-rejected every epoch. *)
    let surviving_ids =
      List.map (fun (p : Pkg.t) -> p.Pkg.id) assembly.Driver.survivors
    in
    List.iter
      (fun e ->
        if e.packages <> [] then begin
          let kept =
            List.filter
              (fun (p : Pkg.t) -> List.mem p.Pkg.id surviving_ids)
              e.packages
          in
          if List.length kept < List.length e.packages then begin
            e.packages <- kept;
            if kept = [] then begin
              e.rejected <- true;
              Counter.bump obs "session.cache.tombstones" 1
            end
          end
        end)
      t.cache;
    let ok_to_activate =
      !verifier_ok
      &&
      if not session_cfg.Config.oracle then true
      else begin
        (* Differential oracle: the candidate image, run standalone
           from a clean state, must compute exactly what the original
           computes. *)
        let b = baseline t in
        let o =
          Emulator.run_backend ~backend ~fuel:(Config.fuel config)
            ~mem_words:(Config.mem_words config)
            assembly.Driver.assembled.Emit.image
        in
        let ok =
          o.Emulator.checksum = b.Emulator.checksum
          && o.Emulator.result = b.Emulator.result
          && o.Emulator.halted = b.Emulator.halted
        in
        oracle_ok := Some ok;
        if not ok then begin
          Counter.bump obs "session.oracle_failures" 1;
          Flight.note obs ~kind:"oracle" ~label:"failure";
          Flight.dump obs ~reason:"oracle-failure"
            ~label:(Printf.sprintf "epoch-%d" epoch) ()
        end;
        ok
      end
    in
    if ok_to_activate then begin
      (* Quiescence: seek a safe launch point — original code, no live
         package-space return address — within the grace budget. *)
      let safe () = State.pc t.state < ol && t.depth = 0 in
      let remaining = ref session_cfg.Config.patch_grace in
      while (not (safe ())) && !remaining > 0 && not t.halted do
        let chunk = Stdlib.min 128 !remaining in
        let o = run_chunk chunk in
        remaining := !remaining - o.Emulator.instructions;
        grace_used := !grace_used + o.Emulator.instructions;
        grace_pkg := !grace_pkg + o.Emulator.package_instructions;
        t.retired <- t.retired + o.Emulator.instructions;
        t.branches <- t.branches + o.Emulator.cond_branches;
        t.package_retired <- t.package_retired + o.Emulator.package_instructions;
        t.halted <- o.Emulator.halted;
        if o.Emulator.instructions = 0 then remaining := 0
      done;
      if t.halted then ()
      else if safe () then begin
        t.image <- assembly.Driver.assembled.Emit.image;
        t.emitted <- Some assembly.Driver.assembled;
        t.depth <- 0;
        t.dirty <- false;
        activated := true;
        Counter.bump obs "session.activations" 1;
        Timeline.Event.emit tl ~kind:"activate" ~at:t.retired ~value:epoch
      end
      else begin
        deferred := true;
        Counter.bump obs "session.deferrals" 1;
        Timeline.Event.emit tl ~kind:"defer" ~at:t.retired ~value:t.depth
      end
    end
  end;
  if timeline_on then begin
    let tail = interval - !countdown in
    if tail > 0 then flush tail
  end;
  t.epoch <- epoch + 1;
  let total_instr = slice.Emulator.instructions + !grace_used in
  let total_pkg = slice.Emulator.package_instructions + !grace_pkg in
  let coverage_pct =
    if total_instr = 0 then 0.0
    else 100.0 *. float_of_int total_pkg /. float_of_int total_instr
  in
  (* Stable per-epoch distributions (schedule-independent values). *)
  Vp_obs.Histogram.observe obs "session.epoch.instructions" total_instr;
  Vp_obs.Histogram.observe obs "session.grace.instructions" !grace_used;
  Vp_obs.Histogram.observe obs "session.cache.entries" (List.length t.cache);
  Vp_obs.Histogram.observe obs "session.cache.instructions"
    (total_cache_size t.cache);
  if Vp_obs.enabled obs then
    Vp_obs.Histogram.observe ~volatile:true obs "session.epoch.wall_us"
      (int_of_float ((Unix.gettimeofday () -. wall0) *. 1e6));
  let r =
    {
      epoch;
      slice;
      grace_used = !grace_used;
      grace_package_instructions = !grace_pkg;
      phases_seen = List.length phases;
      new_entries = List.rev !fresh;
      matched_entries = List.sort compare !matched;
      evicted = List.rev !evicted;
      cache_entries = List.length t.cache;
      cache_instructions = total_cache_size t.cache;
      activated = !activated;
      deferred = !deferred;
      fallback = !fallback;
      verifier_ok = !verifier_ok;
      oracle_ok = !oracle_ok;
      drops = !drops;
      coverage_pct;
      timeline = tl;
    }
  in
  t.reports <- r :: t.reports;
  r

let report t =
  let epochs = List.rev t.reports in
  let activations =
    List.length (List.filter (fun r -> r.activated) epochs)
  in
  let coverage_pct =
    if t.retired = 0 then 0.0
    else 100.0 *. float_of_int t.package_retired /. float_of_int t.retired
  in
  let equivalent =
    if not t.halted then None
    else
      let b = baseline t in
      Some
        (b.Emulator.halted
        && State.checksum t.state = b.Emulator.checksum
        && State.reg t.state Vp_isa.Reg.ret_value = b.Emulator.result)
  in
  {
    epochs;
    instructions = t.retired;
    package_instructions = t.package_retired;
    cond_branches = t.branches;
    halted = t.halted;
    coverage_pct;
    activations;
    final_cache_entries = List.length t.cache;
    final_image = t.image;
    equivalent;
  }

let run ?epochs t =
  let n =
    match epochs with
    | Some n -> n
    | None -> (Config.session t.config).Config.epochs
  in
  while t.epoch < n && not t.halted do
    ignore (step t)
  done;
  report t

let pp_epoch ppf (r : epoch_report) =
  Format.fprintf ppf
    "epoch %d: %d instrs (%d grace), %d phases, +%d new, %d matched, %d \
     evicted, cache %d/%d instrs, %s%s coverage %.1f%%"
    r.epoch
    (r.slice.Emulator.instructions + r.grace_used)
    r.grace_used r.phases_seen
    (List.length r.new_entries)
    (List.length r.matched_entries)
    (List.length r.evicted)
    r.cache_entries r.cache_instructions
    (if r.activated then "activated"
     else if r.deferred then "deferred"
     else "steady")
    (match r.oracle_ok with
    | Some true -> " oracle-ok"
    | Some false -> " ORACLE-FAILED"
    | None -> "")
    r.coverage_pct

let pp_report ppf (r : report) =
  Format.fprintf ppf "@[<v>";
  List.iter (fun e -> Format.fprintf ppf "%a@," pp_epoch e) r.epochs;
  Format.fprintf ppf
    "session: %d epochs, %d instrs, coverage %.1f%%, %d activations, %d \
     cached, %s%s@]"
    (List.length r.epochs) r.instructions r.coverage_pct r.activations
    r.final_cache_entries
    (if r.halted then "halted" else "running")
    (match r.equivalent with
    | Some true -> ", equivalent"
    | Some false -> ", NOT EQUIVALENT"
    | None -> "")
