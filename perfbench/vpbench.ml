(* The benchmark program behind perfbench/run.py.  Three closed-loop
   workloads, each sending one operation at a time on one OCaml domain;
   see perfbench/README.md for why each exists and how to read the
   ledger.

     vpbench.exe --workload repro-quick|serve-drift|fuzz-corpus
                 --seed N --seconds S --trace 0|1
                 [--size full|smoke] [--expected FILE] [--record]
                 [--trace-file FILE]

   Untraced runs (--trace 0) report the end-to-end metrics.  A traced
   run (--trace 1) first runs one untraced pass, then traced passes in
   which every operation is a root span and each composite call into
   the program is followed by replays of its component calls on the
   same inputs; a composite's self time is its span minus those
   replays.  The last stdout line is the result JSON. *)

module Config = Vacuum.Config
module Driver = Vacuum.Driver
module Coverage = Vacuum.Coverage
module Expansion = Vacuum.Expansion
module Session = Vacuum.Session
module Emulator = Vp_exec.Emulator
module Image = Vp_prog.Image
module Pipeline = Vp_cpu.Pipeline
module Detector = Vp_hsd.Detector
module Phase_log = Vp_phase.Phase_log
module Identify = Vp_region.Identify
module Build = Vp_package.Build
module Linking = Vp_package.Linking
module Emit = Vp_package.Emit
module Verify = Vp_package.Verify
module Registry = Vp_workloads.Registry
module Campaign = Vp_gen.Campaign
module Gen = Vp_gen.Gen
module Trace = Vp_gen.Trace
module Rng = Vp_util.Rng

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Spans and counts.  Spans stay in memory and are written when the
   run ends.  A span opened while its parent is still running is a
   [Call] and must nest inside it in time; a span opened from the
   parent's [parts] callback, after the parent returned, is a [Replay]
   of one of the parent's components and must nest inside the
   operation's root span. *)

module Span = struct
  type kind = Root | Call | Replay

  type t = {
    id : int;
    op : int;
    parent : int;
    kind : kind;
    name : string;
    layer : string;
    t0 : float;
    t1 : float;
    work : int;
  }

  let enabled = ref false
  let all : t list ref = ref []
  let next_id = ref 0
  let current_op = ref (-1)

  (* open spans, innermost first: (id, replaying its parts) *)
  let stack : (int * bool) list ref = ref []

  let kind_name = function Root -> "root" | Call -> "call" | Replay -> "replay"

  let record ~name ~layer ?(work = fun _ -> 0) ?(parts = fun _ -> ()) f =
    if not !enabled then f ()
    else begin
      let id = !next_id in
      incr next_id;
      let parent, kind =
        match !stack with
        | [] -> (-1, Root)
        | (p, replaying) :: _ -> (p, if replaying then Replay else Call)
      in
      if kind = Root then current_op := id;
      let saved = !stack in
      stack := (id, false) :: saved;
      let t0 = now () in
      let r =
        try f ()
        with e ->
          stack := saved;
          raise e
      in
      let t1 = now () in
      all :=
        { id; op = !current_op; parent; kind; name; layer; t0; t1; work = work r }
        :: !all;
      stack := (id, true) :: saved;
      (try parts r
       with e ->
         stack := saved;
         raise e);
      stack := saved;
      r
    end

  let dur s = s.t1 -. s.t0
end

(* Deterministic work counts, bumped from op results (always) and from
   replays (traced passes only); reset at the start of every pass. *)
let counts : (string, int) Hashtbl.t = Hashtbl.create 64
let count name n = Hashtbl.replace counts name (n + Option.value ~default:0 (Hashtbl.find_opt counts name))

(* Per-step session latencies split by drift vs. cache-hit epochs,
   for the session.*_step_ms_p50 rows. *)
let drift_steps = ref []
let hit_steps = ref []

(* ------------------------------------------------------------------ *)
(* Component replays.  Each times one public call of one layer on the
   inputs the enclosing composite call used. *)

let backend = Config.backend Config.default

(* Preparation (decode or compile) is memoised on physical image
   identity, so it is timed on a fresh copy of the record; the real
   image is then prepared again, untimed, so the run replays that
   follow time execution alone. *)
let prepare img =
  match backend with
  | Emulator.Reference -> ()
  | Emulator.Compiled -> ignore (Vp_exec.Compile.of_image img)
  | _ -> ignore (Vp_exec.Decode.of_image img)

let replay_prepare img =
  Span.record ~name:"exec.prepare" ~layer:"vp_exec"
    ~work:(fun () -> Image.size img)
    (fun () -> prepare { img with Image.entry = img.Image.entry });
  prepare img

let instrs (o : Emulator.outcome) = o.Emulator.instructions

let replay_run ?(name = "exec.run") ~config img =
  ignore
    (Span.record ~name ~layer:"vp_exec" ~work:instrs (fun () ->
         Emulator.run_backend ~backend:(Config.backend config)
           ~fuel:(Config.fuel config) ~mem_words:(Config.mem_words config)
           img))

let replay_retire_feed ~config img =
  let sink ~pc:_ ~taken:_ ~next_pc:_ ~mem_addr:_ = () in
  ignore
    (Span.record ~name:"exec.run_retire" ~layer:"vp_exec" ~work:instrs (fun () ->
         Emulator.run_backend ~backend:(Config.backend config)
           ~fuel:(Config.fuel config) ~mem_words:(Config.mem_words config)
           ~on_retire:sink img))

(* A growable int buffer holding (pc lsl 1) lor taken per branch. *)
let stream = ref (Array.make 1024 0)
let stream_len = ref 0

let push_branch ~pc ~taken =
  if !stream_len = Array.length !stream then begin
    let a = Array.make (2 * !stream_len) 0 in
    Array.blit !stream 0 a 0 !stream_len;
    stream := a
  end;
  Array.unsafe_set !stream !stream_len ((pc lsl 1) lor Bool.to_int taken);
  incr stream_len

let new_detector config =
  Detector.create ~config:(Config.detector config)
    ~history_size:(Config.history_size config)
    ~same:(Vp_phase.Similarity.same ~config:(Config.similarity config))
    ()

let count_detector d =
  count "hsd.detections" (Detector.detections d);
  count "hsd.recordings" (Detector.recordings d);
  count "hsd.snapshots" (List.length (Detector.snapshots d))

let replay_phase_build ~config (p : Driver.profile) =
  let log =
    Span.record ~name:"phase.build" ~layer:"vp_phase"
      ~work:(fun _ -> List.length p.Driver.snapshots)
      (fun () ->
        Phase_log.build ~similarity:(Config.similarity config) p.Driver.snapshots)
  in
  count "phase.unique" (Phase_log.unique_count log)

(* Driver.profile = one observed emulator run feeding the detector,
   then the phase filter. *)
let profile_parts ~config img (p : Driver.profile) =
  replay_prepare img;
  let fuel =
    match Config.fault config with
    | None -> Config.fuel config
    | Some plan -> Vp_fault.Inject.fuel ~plan (Config.fuel config)
  in
  stream_len := 0;
  ignore
    (Span.record ~name:"exec.run_observed" ~layer:"vp_exec" ~work:instrs
       (fun () ->
         Emulator.run_backend ~backend:(Config.backend config) ~fuel
           ~mem_words:(Config.mem_words config) ~on_branch:push_branch img));
  let d = new_detector config in
  let n = !stream_len in
  count "hsd.branches" n;
  Span.record ~name:"hsd.replay" ~layer:"vp_hsd" ~work:(fun () -> n) (fun () ->
      let s = !stream in
      for i = 0 to n - 1 do
        let x = Array.unsafe_get s i in
        Detector.on_branch d ~pc:(x lsr 1) ~taken:(x land 1 = 1)
      done);
  count_detector d;
  replay_phase_build ~config p

let profile ~config img =
  Span.record ~name:"driver.profile" ~layer:"vacuum"
    ~parts:(profile_parts ~config img)
    (fun () -> Driver.profile ~config img)

(* Driver.assemble = screening, then link, emit (with the optimizer
   run on every package from inside emission) and verify. *)
let assemble_parts ~config ~original (a : Driver.assembly) =
  let groups, _ =
    Span.record ~name:"package.link" ~layer:"vp_package" (fun () ->
        Linking.group_packages_with_stats ~linking:(Config.linking config)
          a.Driver.survivors)
  in
  let transform ~protected pkg =
    Span.record ~name:"opt.transform" ~layer:"vp_opt" (fun () ->
        Vp_opt.Opt.transform ~config:(Config.opt config) ~protected pkg)
  in
  let emitted =
    Span.record ~name:"package.emit" ~layer:"vp_package"
      ~work:(fun _ -> List.length a.Driver.survivors)
      (fun () -> Emit.of_groups ~transform original groups)
  in
  ignore
    (Span.record ~name:"package.verify" ~layer:"vp_package" (fun () ->
         Verify.check ~original emitted))

let rewrite_parts ~config (p : Driver.profile) (r : Driver.rewrite) =
  let built =
    List.concat_map
      (fun (phase : Phase_log.phase) ->
        let region, _ =
          Span.record ~name:"region.identify" ~layer:"vp_region" (fun () ->
              Identify.identify_with_stats ~config:(Config.identify config)
                p.Driver.image phase.Phase_log.representative)
        in
        Span.record ~name:"package.build" ~layer:"vp_package"
          ~work:List.length (fun () ->
            Build.build region
              ~prefix:(Printf.sprintf "pkg$p%d" phase.Phase_log.id)))
      (Phase_log.phases p.Driver.log)
  in
  count "package.built" (List.length built);
  count "package.survived" (List.length r.Driver.packages);
  count "package.demotions" (List.length r.Driver.demotions);
  ignore
    (Span.record ~name:"driver.assemble" ~layer:"vacuum"
       ~parts:(assemble_parts ~config ~original:p.Driver.image)
       (fun () -> Driver.assemble ~config ~original:p.Driver.image built))

let rewrite ~config p =
  Span.record ~name:"driver.rewrite" ~layer:"vacuum"
    ~parts:(rewrite_parts ~config p)
    (fun () -> Driver.rewrite_of_profile ~config p)

(* ------------------------------------------------------------------ *)
(* Operations and workloads. *)

type op = {
  key : string;
  deps : string list;
  run : unit -> string;
      (** performs the operation and returns its observed fields, which
          must equal the stored expectation; raises on a failed
          internal check *)
}

type workload = {
  setup : unit -> unit;
      (** builds the workload's inputs from scratch; timed for setup_s *)
  pass : int -> op list list;
      (** a fresh, fixed op multiset over inputs built by the last
          [setup], in groups that run contiguously (one registry input,
          one session, one case); the argument is the pass index *)
}

let check cond what = if not cond then failwith what

let a_inputs = List.filter (fun w -> w.Registry.input = "A") Registry.all

(* Layouts of the registry images.  In a traced run each one is timed
   for prog.layout_us_per_image; that time is set-up, not op wall. *)
let layout_times = ref []

let layout_all ws =
  List.map
    (fun w ->
      let prog = w.Registry.program () in
      let t0 = now () in
      let img = Vp_prog.Program.layout prog in
      if !Span.enabled then layout_times := (now () -. t0) :: !layout_times;
      (Registry.name w, img))
    ws

let repro_quick ws =
  let images = ref [] in
  let configurations =
    [ (false, false); (false, true); (true, false); (true, true) ]
  in
  let cells =
    List.map
      (fun (inference, linking) ->
        (Printf.sprintf "%s-%s"
           (if inference then "inf" else "noinf")
           (if linking then "link" else "nolink"),
         Config.experiment ~inference ~linking))
      configurations
  in
  let cpu = Config.cpu (Config.experiment ~inference:true ~linking:true) in
  let pass _ =
    let profiles = Hashtbl.create 16 and rewrites = Hashtbl.create 64 in
    List.map
      (fun (name, img) ->
        let pkey = "profile/" ^ name in
        let timing ~config img =
          Span.record ~name:"cpu.simulate" ~layer:"vp_cpu"
            ~parts:(fun _ ->
              replay_prepare img;
              replay_retire_feed ~config img)
            (fun () -> Pipeline.simulate ~config:(Config.cpu config) ~backend img)
        in
        let timing_fields (s : Pipeline.stats) =
          count "cpu.cycles" s.Pipeline.cycles;
          count "cpu.instructions" s.Pipeline.instructions;
          Printf.sprintf "cycles=%d instrs=%d" s.Pipeline.cycles
            s.Pipeline.instructions
        in
        {
          key = pkey;
          deps = [];
          run =
            (fun () ->
              let p = profile ~config:Config.default img in
              Hashtbl.replace profiles name p;
              let o = p.Driver.outcome in
              check (not p.Driver.truncated) "profile truncated";
              Printf.sprintf
                "instrs=%d branches=%d checksum=%d snapshots=%d phases=%d"
                o.Emulator.instructions o.Emulator.cond_branches
                o.Emulator.checksum
                (List.length p.Driver.snapshots)
                (Phase_log.unique_count p.Driver.log));
        }
        :: {
             key = "timing/" ^ name ^ "/baseline";
             deps = [];
             run =
               (fun () ->
                 timing_fields
                   (timing ~config:(Config.with_cpu cpu Config.default) img));
           }
        :: List.concat_map
             (fun (ckey, config) ->
               let rkey = Printf.sprintf "rewrite/%s/%s" name ckey in
               [
                 {
                   key = rkey;
                   deps = [ pkey ];
                   run =
                     (fun () ->
                       let r = rewrite ~config (Hashtbl.find profiles name) in
                       Hashtbl.replace rewrites rkey r;
                       check (Verify.ok r.Driver.verification) "verifier rejected";
                       let e = Expansion.measure r in
                       Printf.sprintf
                         "packages=%d package_static=%d expansion=%.6f \
                          selected=%d demotions=%d"
                         (List.length r.Driver.packages)
                         e.Expansion.package_static e.Expansion.increase_pct
                         e.Expansion.selected_static
                         (List.length r.Driver.demotions));
                 };
                 {
                   key = Printf.sprintf "coverage/%s/%s" name ckey;
                   deps = [ rkey ];
                   run =
                     (fun () ->
                       let r = Hashtbl.find rewrites rkey in
                       let img = Driver.rewritten_image r in
                       let c =
                         Span.record ~name:"coverage.measure" ~layer:"vacuum"
                           ~work:(fun (c : Coverage.t) -> instrs c.Coverage.outcome)
                           ~parts:(fun _ ->
                             replay_prepare img;
                             replay_run ~config img)
                           (fun () -> Coverage.measure ~config r)
                       in
                       let o = c.Coverage.outcome in
                       check c.Coverage.equivalent "rewritten run not equivalent";
                       Printf.sprintf "instrs=%d package_instrs=%d equivalent=%b"
                         o.Emulator.instructions o.Emulator.package_instructions
                         c.Coverage.equivalent);
                 };
                 {
                   key = Printf.sprintf "timing/%s/%s" name ckey;
                   deps = [ rkey ];
                   run =
                     (fun () ->
                       let r = Hashtbl.find rewrites rkey in
                       timing_fields
                         (timing ~config (Driver.rewritten_image r)));
                 };
               ])
             cells)
      !images
  in
  { setup = (fun () -> images := layout_all ws); pass }

(* `vpack serve --epochs 8`: the default session knobs with eight
   epochs, so auto epoch fuel splits each run into eight slices. *)
let serve_epochs = 8
let serve_config =
  Config.map_session (fun s -> { s with Config.epochs = serve_epochs }) Config.default

let serve_drift ws =
  let images = ref [] in
  let sessions = ref [] in
  let create () =
    sessions :=
      List.map (fun (name, img) -> (name, img, Session.create ~config:serve_config img)) !images
  in
  let pass i =
    (* the sessions built by set-up serve the first pass *)
    if i > 0 then create ();
    List.map
      (fun (name, img, s) ->
        List.init serve_epochs (fun k ->
            {
              key = Printf.sprintf "step/%s/%d" name k;
              deps = (if k = 0 then [] else [ Printf.sprintf "step/%s/%d" name (k - 1) ]);
              run =
                (fun () ->
                  let t0 = now () in
                  let r =
                    Span.record ~name:"session.step" ~layer:"vacuum"
                      ~parts:(fun (r : Session.epoch_report) ->
                        if k = 0 then begin
                          replay_prepare img;
                          replay_run ~config:serve_config img
                        end;
                        if r.Session.activated && r.Session.oracle_ok <> None then begin
                          let cand = Session.image s in
                          replay_prepare cand;
                          replay_run ~name:"exec.run_oracle" ~config:serve_config cand
                        end)
                      (fun () -> Session.step s)
                  in
                  let dt = now () -. t0 in
                  let drift = r.Session.new_entries <> [] in
                  if drift then drift_steps := dt :: !drift_steps
                  else hit_steps := dt :: !hit_steps;
                  count "session.new" (List.length r.Session.new_entries);
                  count "session.matched" (List.length r.Session.matched_entries);
                  count "session.activations" (Bool.to_int r.Session.activated);
                  count "session.deferred" (Bool.to_int r.Session.deferred);
                  check r.Session.verifier_ok "verifier rejected";
                  check (not r.Session.fallback) "fell back to the original image";
                  check (r.Session.oracle_ok <> Some false) "oracle failed";
                  let fields =
                    Printf.sprintf
                      "instrs=%d new=%d matched=%d evicted=%d activated=%b \
                       deferred=%b verifier_ok=%b oracle_ok=%s"
                      r.Session.slice.Emulator.instructions
                      (List.length r.Session.new_entries)
                      (List.length r.Session.matched_entries)
                      (List.length r.Session.evicted)
                      r.Session.activated r.Session.deferred r.Session.verifier_ok
                      (match r.Session.oracle_ok with
                      | None -> "none"
                      | Some b -> string_of_bool b)
                  in
                  if k < serve_epochs - 1 then fields
                  else begin
                    let rep = Session.report s in
                    check
                      ((not rep.Session.halted) || rep.Session.equivalent = Some true)
                      "halted session not equivalent";
                    Printf.sprintf "%s halted=%b equivalent=%s" fields
                      rep.Session.halted
                      (match rep.Session.equivalent with
                      | None -> "none"
                      | Some b -> string_of_bool b)
                  end);
            }))
      !sessions
  in
  {
    setup =
      (fun () ->
        images := layout_all ws;
        create ());
    pass;
  }

(* Replays of one campaign case, mirroring Campaign.run_case: the
   generated binary, the recorded trace, the chaos matrix (profile,
   rewrite and oracle run per fault plan), the trace codec, the live
   and ingested profiles and the rewrite of the ingested one.  The
   matrix's per-cell bookkeeping and the corruption checks stay in
   run_case's self time. *)
let case_parts (spec : Campaign.spec) _ =
  let base = Campaign.default_config in
  let prog =
    Span.record ~name:"gen.program" ~layer:"vp_gen" (fun () ->
        Gen.program ~seed:spec.Campaign.seed spec.Campaign.params)
  in
  let img =
    Span.record ~name:"prog.layout" ~layer:"vp_prog" (fun () ->
        Vp_prog.Program.layout prog)
  in
  let trace, clean =
    Span.record ~name:"gen.trace_record" ~layer:"vp_gen"
      ~parts:(fun _ ->
        replay_prepare img;
        stream_len := 0;
        ignore
          (Span.record ~name:"exec.run_observed" ~layer:"vp_exec" ~work:instrs
             (fun () ->
               Emulator.run_backend ~backend:(Config.backend base)
                 ~fuel:(Config.fuel base) ~mem_words:(Config.mem_words base)
                 ~on_branch:push_branch img)))
      (fun () ->
        Trace.record ~backend:(Config.backend base) ~fuel:(Config.fuel base)
          ~mem_words:(Config.mem_words base) img)
  in
  let config = Config.with_fuel ((2 * clean.Emulator.instructions) + 10_000) base in
  replay_run ~config img;
  let root = Rng.create ~seed:spec.Campaign.seed in
  List.iteri
    (fun pi plan ->
      let plan =
        Vp_fault.Plan.with_seed plan (Rng.stream_seed (Rng.stream root pi) 0)
      in
      let cell_config =
        config |> Config.with_fault plan |> Config.with_degrade true
      in
      let p = profile ~config:cell_config img in
      let r = rewrite ~config:cell_config p in
      replay_run ~name:"exec.run_oracle" ~config (Driver.rewritten_image r))
    Vp_fault.Plan.presets;
  let t =
    if spec.Campaign.trace_frac_pct >= 100 then trace
    else Trace.prefix trace (Trace.length trace * max 0 spec.Campaign.trace_frac_pct / 100)
  in
  ignore
    (Span.record ~name:"gen.trace_codec" ~layer:"vp_gen"
       ~work:(fun _ -> Trace.length t)
       (fun () -> Trace.decode (Trace.encode t)));
  ignore (profile ~config img);
  let events = Trace.events t in
  let ingested =
    Span.record ~name:"driver.profile_of_events" ~layer:"vacuum"
      ~parts:(fun p ->
        let d = new_detector config in
        count "hsd.branches" (Array.length events);
        Span.record ~name:"hsd.replay" ~layer:"vp_hsd"
          ~work:(fun () -> Array.length events)
          (fun () -> Detector.replay d events);
        count_detector d;
        replay_phase_build ~config p)
      (fun () ->
        Driver.profile_of_events ~config ~instructions:t.Trace.instructions img
          events)
  in
  let r = rewrite ~config ingested in
  replay_run ~name:"exec.run_oracle" ~config (Driver.rewritten_image r)

(* The corpus is fixed: cases 0..[cases-1] of `vpack fuzz`'s default
   root seed.  A corpus drawn from the benchmark seed made the cost of
   a 100-case pass vary by a fifth from seed to seed, wider than any
   bound a regression check could use; the seed orders the ops, as it
   does in the other workloads. *)
let fuzz_root_seed = 0

let fuzz_corpus ~cases =
  let specs = ref [||] in
  let pass _ =
    List.init cases (fun i ->
        let spec = !specs.(i) in
        [ {
          key = Printf.sprintf "case/%d" i;
          deps = [];
          run =
            (fun () ->
              let o =
                Span.record ~name:"campaign.run_case" ~layer:"vp_gen"
                  ~parts:(case_parts spec)
                  (fun () -> Campaign.run_case ~index:i spec)
              in
              (match o.Campaign.failure with
              | None -> ()
              | Some f -> failwith (f.Campaign.stage ^ ": " ^ f.Campaign.detail));
              count "gen.cells" o.Campaign.cells;
              Printf.sprintf
                "static=%d instrs=%d snapshots=%d phases=%d cells=%d events=%d"
                o.Campaign.static_size o.Campaign.instructions
                o.Campaign.snapshots o.Campaign.phases o.Campaign.cells
                o.Campaign.trace_events);
        } ])
  in
  {
    setup =
      (fun () ->
        specs :=
          Array.init cases (fun i ->
              Campaign.spec_of_index ~root_seed:fuzz_root_seed i));
    pass;
  }

(* ------------------------------------------------------------------ *)
(* Running passes. *)

(* Groups in a random order; within a group, a random topological
   order: repeatedly run a uniformly chosen op whose dependencies are
   done.  Keeping a group contiguous keeps the program's one-slot
   decode memo behaving the same for every seed. *)
let order rng groups =
  let done_ = Hashtbl.create 256 in
  let rec go acc pending =
    match pending with
    | [] -> List.rev acc
    | _ ->
      let ready, blocked =
        List.partition (fun o -> List.for_all (Hashtbl.mem done_) o.deps) pending
      in
      let ready = Array.of_list ready in
      let k = Rng.int rng (Array.length ready) in
      let pick = ready.(k) in
      Hashtbl.replace done_ pick.key ();
      let rest = List.filteri (fun i _ -> i <> k) (Array.to_list ready) in
      go (pick :: acc) (rest @ blocked)
  in
  let groups = Array.of_list groups in
  Rng.shuffle rng groups;
  List.map (go []) (Array.to_list groups)

type outcome = { latencies : (string, float list) Hashtbl.t; mutable attempted : int; mutable failed : int }

let load_expected path =
  let t = Hashtbl.create 256 in
  if Sys.file_exists path then begin
    let ic = open_in path in
    (try
       while true do
         let line = input_line ic in
         match String.index_opt line '\t' with
         | Some i ->
           Hashtbl.replace t (String.sub line 0 i)
             (String.sub line (i + 1) (String.length line - i - 1))
         | None -> ()
       done
     with End_of_file -> ());
    close_in ic
  end;
  t

let save_expected path t =
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t []) in
  let oc = open_out path in
  List.iter (fun k -> Printf.fprintf oc "%s\t%s\n" k (Hashtbl.find t k)) keys;
  close_out oc

(* One pass: every op in a seeded order, each timed and checked
   against its stored expectation.  The heap is collected before each
   op, outside its time, so an op does not pay for garbage its
   predecessors left and peak RSS does not depend on the order.
   Returns the pass wall time: the sum of op latencies. *)
let run_pass ~wl ~rng ~expected ~record ~out ~index =
  Hashtbl.reset counts;
  Gc.compact ();
  let wall = ref 0.0 in
  let run_op op =
    Gc.full_major ();
    let s = now () in
    let observed =
      try Ok (Span.record ~name:op.key ~layer:"op" op.run)
      with e -> Error (Printexc.to_string e)
    in
    let dt = now () -. s in
    wall := !wall +. dt;
    Span.stack := [];
    out.attempted <- out.attempted + 1;
    let ok =
      match observed with
      | Error msg ->
        Printf.printf "FAIL %s: %s\n%!" op.key msg;
        false
      | Ok got -> (
        if record then Hashtbl.replace expected op.key got;
        let want = Hashtbl.find_opt expected op.key in
        match want with
        | Some w when w = got -> true
        | Some w ->
          Printf.printf "FAIL %s: expected {%s}, got {%s}\n%!" op.key w got;
          false
        | None ->
          Printf.printf "FAIL %s: no expectation stored, got {%s}\n%!" op.key got;
          false)
    in
    if not ok then out.failed <- out.failed + 1;
    Hashtbl.replace out.latencies op.key
      (dt :: Option.value ~default:[] (Hashtbl.find_opt out.latencies op.key))
  in
  List.iter (List.iter run_op) (order rng (wl.pass index));
  !wall

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile p l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> 0.0
  in
  let v = find () in
  close_in ic;
  v

(* Set-up is timed in batches of [k] repetitions, [k] doubling until a
   batch takes [setup_batch] seconds, so that a set-up of microseconds
   is not lost in clock resolution.  Batches repeat until they have
   taken [setup_budget] seconds and number at least [setup_min];
   setup_s is the median batch time per repetition. *)
let setup_batch = 0.002
let setup_budget = 1.0
let setup_min = 5

let measure_setup wl =
  let batch k =
    (* garbage of the previous batch (serve-drift's session states are
       megabytes each) is collected outside the timed region *)
    Gc.full_major ();
    let t0 = now () in
    for _ = 1 to k do
      wl.setup ()
    done;
    now () -. t0
  in
  let rec size k = if k >= 1 lsl 16 || batch k >= setup_batch then k else size (2 * k) in
  let k = size 1 in
  let times = ref [] and spent = ref 0.0 and n = ref 0 in
  while !n < setup_min || !spent < setup_budget do
    let dt = batch k in
    times := (dt /. float_of_int k) :: !times;
    spent := !spent +. dt;
    incr n
  done;
  (median !times, !n * k)

(* ------------------------------------------------------------------ *)
(* The ledger and per-layer metrics of the traced passes. *)

let layers =
  [ "vp_cpu"; "vp_exec"; "vp_hsd"; "vp_phase"; "vp_region"; "vp_package";
    "vp_opt"; "vacuum"; "vp_gen"; "vp_prog" ]

(* Self time of every non-root span: its duration minus that of its
   direct children, calls and replays alike.  It is negative when a
   composite's replays outran it (say, a warm memo inside the
   composite, a cold one in the replay); the ledger clamps it at 0 and
   prints the clamped total. *)
let self_times spans =
  let child = Hashtbl.create 4096 in
  List.iter
    (fun (s : Span.t) ->
      if s.Span.parent >= 0 then
        Hashtbl.replace child s.Span.parent
          (Span.dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.Span.parent)))
    spans;
  List.filter_map
    (fun (s : Span.t) ->
      if s.Span.kind = Span.Root then None
      else
        Some
          (s, Span.dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.Span.id)))
    spans

(* Spans of one op share its root's id; calls nest inside their parent,
   replays start after their parent ended and nest inside the root. *)
let check_spans spans =
  let by_id = Hashtbl.create 4096 in
  List.iter (fun (s : Span.t) -> Hashtbl.replace by_id s.Span.id s) spans;
  let eps = 1e-9 in
  let inside (a : Span.t) (b : Span.t) = a.Span.t0 +. eps >= b.Span.t0 && a.Span.t1 <= b.Span.t1 +. eps in
  List.filter_map
    (fun (s : Span.t) ->
      let bad why = Some (Printf.sprintf "span %d (%s): %s" s.Span.id s.Span.name why) in
      match s.Span.kind with
      | Span.Root -> if s.Span.op <> s.Span.id then bad "root is not its own op" else None
      | _ -> (
        match (Hashtbl.find_opt by_id s.Span.parent, Hashtbl.find_opt by_id s.Span.op) with
        | None, _ | _, None -> bad "dangling parent or op"
        | Some p, Some root ->
          if p.Span.op <> s.Span.op then bad "parent belongs to another op"
          else if not (inside s root) then bad "outside its op"
          else if s.Span.kind = Span.Call && not (inside s p) then bad "call outside its parent"
          else if s.Span.kind = Span.Replay && s.Span.t0 +. eps < p.Span.t1 then
            bad "replay starts before its parent ended"
          else None))
    spans

let write_trace path spans =
  let oc = open_out path in
  Printf.fprintf oc "{\"schema\":\"vpbench-spans/1\",\"spans\":%d}\n" (List.length spans);
  List.iter
    (fun (s : Span.t) ->
      Printf.fprintf oc
        "{\"id\":%d,\"op\":%d,\"parent\":%d,\"kind\":\"%s\",\"name\":\"%s\",\"layer\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,\"work\":%d}\n"
        s.Span.id s.Span.op s.Span.parent (Span.kind_name s.Span.kind)
        (String.escaped s.Span.name) s.Span.layer (s.Span.t0 *. 1e6) (s.Span.t1 *. 1e6)
        s.Span.work)
    (List.rev spans);
  close_out oc

(* ------------------------------------------------------------------ *)

let json_metric (name, value, unit) =
  Printf.sprintf "\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}" name value unit

let usage () =
  prerr_endline
    "usage: vpbench.exe --workload repro-quick|serve-drift|fuzz-corpus --seed N \
     --seconds S --trace 0|1 [--size full|smoke] [--expected FILE] [--record] \
     [--trace-file FILE]";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.0) and trace = ref (-1) in
  let size = ref "full" and expected_path = ref "" and record = ref false in
  let trace_file = ref "" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int_of_string v; parse r
    | "--seconds" :: v :: r -> seconds := float_of_string v; parse r
    | "--trace" :: v :: r -> trace := int_of_string v; parse r
    | "--size" :: v :: r -> size := v; parse r
    | "--expected" :: v :: r -> expected_path := v; parse r
    | "--record" :: r -> record := true; parse r
    | "--trace-file" :: v :: r -> trace_file := v; parse r
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seed < 0 || !seconds < 0.0 || (!trace <> 0 && !trace <> 1) || !expected_path = ""
  then usage ();
  let smoke = match !size with "full" -> false | "smoke" -> true | _ -> usage () in
  let ws = if smoke then List.filteri (fun i _ -> i < 2) a_inputs else a_inputs in
  let wl =
    match !workload with
    | "repro-quick" -> repro_quick ws
    | "serve-drift" -> serve_drift ws
    | "fuzz-corpus" -> fuzz_corpus ~cases:(if smoke then 3 else 100)
    | _ -> usage ()
  in
  let expected = load_expected !expected_path in
  let traced = !trace = 1 in
  let setup_s, setup_reps = measure_setup wl in
  Gc.compact ();
  let rng_of pass = Rng.stream (Rng.create ~seed:!seed) pass in
  let out = { latencies = Hashtbl.create 256; attempted = 0; failed = 0 } in
  let walls = ref [] and npass = ref 0 in
  let start = now () in
  (* Peak RSS is read after the first pass, so that it does not grow
     with the number of passes a faster program fits into --seconds. *)
  let rss = ref 0.0 in
  let run_one () =
    let w =
      run_pass ~wl ~rng:(rng_of !npass) ~expected ~record:!record ~out
        ~index:!npass
    in
    if !npass = 0 then rss := peak_rss_mb ();
    incr npass;
    w
  in
  (* Untraced passes until --seconds have elapsed (at least one).  A
     traced run makes one untraced pass as its ledger's wall, then
     traced passes for the rest of its time. *)
  if not traced then
    while !npass = 0 || now () -. start < !seconds do
      walls := run_one () :: !walls
    done
  else walls := [ run_one () ];
  let untraced_wall = median !walls in
  let traced_walls = ref [] and traced_spans = ref [] and traced_passes = ref 0 in
  let pass_counts = ref None in
  let layer_self = Hashtbl.create 16 and name_time = Hashtbl.create 64 in
  let name_work = Hashtbl.create 64 and name_calls = Hashtbl.create 64 in
  let add t k v = Hashtbl.replace t k (v +. Option.value ~default:0.0 (Hashtbl.find_opt t k)) in
  if traced then begin
    layout_times := [];
    ignore (measure_setup wl);
    Gc.compact ();
    while !traced_passes = 0 || now () -. start < !seconds do
      drift_steps := [];
      hit_steps := [];
      Span.enabled := true;
      Span.all := [];
      let w = run_one () in
      Span.enabled := false;
      traced_walls := w :: !traced_walls;
      incr traced_passes;
      let spans = !Span.all in
      traced_spans := spans @ !traced_spans;
      List.iter
        (fun ((s : Span.t), raw) ->
          let self = Float.max 0.0 raw in
          add layer_self "clamped" (self -. raw);
          add layer_self s.Span.layer self;
          add name_time s.Span.name (Span.dur s);
          add name_time (s.Span.name ^ "#self") self;
          add name_work s.Span.name (float_of_int s.Span.work);
          add name_calls s.Span.name 1.0)
        (self_times spans);
      let snapshot = Hashtbl.copy counts in
      (match !pass_counts with
      | None -> pass_counts := Some snapshot
      | Some first ->
        if Hashtbl.fold (fun k v acc -> acc && Hashtbl.find_opt first k = Some v) snapshot true
           && Hashtbl.length first = Hashtbl.length snapshot
        then ()
        else begin
          Printf.printf "FAIL per-layer counts differ between traced passes\n";
          out.failed <- out.failed + 1
        end)
    done
  end;
  if !record then save_expected !expected_path expected;
  let failed_spans = if traced then check_spans !traced_spans else [] in
  List.iteri (fun i m -> if i < 5 then Printf.printf "FAIL trace: %s\n" m) failed_spans;
  if failed_spans <> [] then out.failed <- out.failed + 1;
  if traced && !trace_file <> "" then write_trace !trace_file !traced_spans;
  let op_medians = Hashtbl.fold (fun _ l acc -> median l :: acc) out.latencies [] in
  let n_ops = List.length op_medians in
  Printf.printf
    "meta: workload=%s seed=%d setup_reps=%d passes=%d traced_passes=%d \
     op_samples=%d attempted=%d failed=%d pass_walls=%s\n"
    !workload !seed setup_reps !npass !traced_passes n_ops out.attempted out.failed
    (String.concat "," (List.rev_map (Printf.sprintf "%.3f") !walls));
  let metrics =
    if not traced then
      [
        ("setup_s", setup_s, "s");
        ("wall_s", untraced_wall, "s");
        ("op_ms_p50", 1e3 *. percentile 0.5 op_medians, "ms");
        ("op_ms_p90", 1e3 *. percentile 0.9 op_medians, "ms");
        ("peak_rss_mb", !rss, "MB");
      ]
    else begin
      let np = float_of_int (max 1 !traced_passes) in
      let counts = Option.value ~default:(Hashtbl.create 1) !pass_counts in
      let c name = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts name)) in
      let time name = Option.value ~default:0.0 (Hashtbl.find_opt name_time name) in
      let work name = Option.value ~default:0.0 (Hashtbl.find_opt name_work name) in
      let calls name = Option.value ~default:0.0 (Hashtbl.find_opt name_calls name) in
      let ratio a b = if b = 0.0 then 0.0 else a /. b in
      let per_work scale name = ratio (scale *. time name) (work name) in
      let per_call scale name = ratio (scale *. time name) (calls name) in
      let self_s l = Option.value ~default:0.0 (Hashtbl.find_opt layer_self l) /. np in
      let sum = List.fold_left (fun a l -> a +. self_s l) 0.0 layers in
      let traced_wall = median !traced_walls in
      let residual_pct = 100.0 *. ratio (untraced_wall -. sum) untraced_wall in
      let overhead_pct = 100.0 *. ratio (traced_wall -. untraced_wall) untraced_wall in
      Printf.printf "ledger %s: untraced pass %.3f s, traced pass %.3f s\n" !workload
        untraced_wall traced_wall;
      Printf.printf "  %-10s %10s %8s %8s\n" "layer" "self_s" "of wall" "of sum";
      List.iter
        (fun l ->
          Printf.printf "  %-10s %10.4f %7.2f%% %7.2f%%\n" l (self_s l)
            (100.0 *. ratio (self_s l) untraced_wall)
            (100.0 *. ratio (self_s l) sum))
        layers;
      Printf.printf "  %-10s %10.4f %7.2f%%\n" "sum" sum (100.0 *. ratio sum untraced_wall);
      Printf.printf "  %-10s %10.4f %7.2f%%\n" "residual" (untraced_wall -. sum) residual_pct;
      Printf.printf "  (negative self times clamped to 0: %.4f s)\n" (self_s "clamped");
      Printf.printf "  trace.overhead_pct %.2f\n" overhead_pct;
      let exec_instrs =
        work "exec.run" +. work "exec.run_observed" +. work "exec.run_retire"
        +. work "exec.run_oracle"
      in
      let step_p50 l = 1e3 *. median l in
      let cpu_instrs = c "cpu.instructions" in
      [
        ("cpu.timing_ns_per_instr", ratio (1e9 *. time "cpu.simulate#self") (np *. cpu_instrs), "ns/instr");
        ("cpu.cycles", c "cpu.cycles", "count");
        ("cpu.instructions", cpu_instrs, "count");
        ("exec.ns_per_instr",
         ratio (1e9 *. (time "exec.run" +. time "exec.run_oracle"))
           (work "exec.run" +. work "exec.run_oracle"), "ns/instr");
        ("exec.observed_ns_per_instr", per_work 1e9 "exec.run_observed", "ns/instr");
        ("exec.prepare_ns_per_static_instr", per_work 1e9 "exec.prepare", "ns/static_instr");
        ("exec.instructions", exec_instrs /. np, "count");
        ("hsd.ns_per_branch", per_work 1e9 "hsd.replay", "ns/branch");
        ("hsd.branches", c "hsd.branches", "count");
        ("hsd.snapshots", c "hsd.snapshots", "count");
        ("hsd.recorded_per_detection", ratio (c "hsd.recordings") (c "hsd.detections"), "ratio");
        ("phase.us_per_snapshot", per_work 1e6 "phase.build", "us/snapshot");
        ("phase.unique", c "phase.unique", "count");
        ("region.identify_us", per_call 1e6 "region.identify", "us");
        ("package.build_us_per_pkg", per_work 1e6 "package.build", "us/pkg");
        ("package.link_us", per_call 1e6 "package.link", "us");
        ("package.emit_us_per_pkg", ratio (1e6 *. time "package.emit#self") (work "package.emit"), "us/pkg");
        ("opt.transform_us_per_pkg", per_call 1e6 "opt.transform", "us/pkg");
        ("package.verify_us_per_image", per_call 1e6 "package.verify", "us/image");
        ("package.built", c "package.built", "count");
        ("package.survived", c "package.survived", "count");
        ("package.demotions", c "package.demotions", "count");
        ("package.survival_ratio", ratio (c "package.survived") (c "package.built"), "ratio");
        ("driver.profile_self_ms", 1e3 *. time "driver.profile#self" /. np, "ms");
        ("driver.rewrite_self_ms", 1e3 *. time "driver.rewrite#self" /. np, "ms");
        ("driver.assemble_ms", 1e3 *. time "driver.assemble" /. np, "ms");
        ("coverage.ns_per_instr", per_work 1e9 "coverage.measure", "ns/instr");
        ("session.drift_step_ms_p50", step_p50 !drift_steps, "ms");
        ("session.hit_step_ms_p50", step_p50 !hit_steps, "ms");
        ("session.activations", c "session.activations", "count");
        ("session.deferred", c "session.deferred", "count");
        ("session.cache_hit_ratio",
         ratio (c "session.matched") (c "session.matched" +. c "session.new"), "ratio");
        ("gen.program_us", per_call 1e6 "gen.program", "us");
        ("gen.trace_ns_per_event", per_work 1e9 "gen.trace_codec", "ns/event");
        ("gen.cells", c "gen.cells", "count");
        ("prog.layout_us_per_image",
         1e6 *. ratio (List.fold_left ( +. ) (time "prog.layout") !layout_times)
           (calls "prog.layout" +. float_of_int (List.length !layout_times)), "us");
        ("ledger.wall_s", untraced_wall, "s");
        ("ledger.sum_s", sum, "s");
        ("ledger.residual_pct", residual_pct, "%");
        ("trace.overhead_pct", overhead_pct, "%");
      ]
      @ List.concat_map
          (fun l ->
            [
              (Printf.sprintf "ledger.%s_self_s" l, self_s l, "s");
              (Printf.sprintf "ledger.%s_pct" l, 100.0 *. ratio (self_s l) untraced_wall, "%");
            ])
          layers
    end
  in
  List.iter (fun (n, v, u) -> Printf.printf "metric %s = %.6g %s\n" n v u) metrics;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (out.failed = 0) out.attempted out.failed
    (String.concat "," (List.map json_metric metrics))
