(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation section on the synthetic Table 1 workloads, and
   runs Bechamel micro-benchmarks of the pipeline stages.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- fig8    # one experiment
     dune exec bench/main.exe -- --quick # A-inputs only, shorter micro runs
     dune exec bench/main.exe -- --jobs 4 fig8   # 4 domains
     dune exec bench/main.exe -- --quick micro --json bench.json
                                         # machine-readable estimates
     dune exec bench/main.exe -- --trace bench-trace.json fig8
                                         # vp-perfetto-trace/1 span timeline
     dune exec bench/main.exe -- --backend compiled --quick micro
                                         # functional backend for all runs

   Experiments: table1 table2 fig8 table3 fig9 fig10
   baseline-aggregate aggregate ablation-bbb ablation-growth
   ablation-sink ablation-superblock session micro overhead.

   The workload x configuration matrix is executed up front by
   Vacuum.Engine on a domain pool (--jobs N, default = the machine's
   domain count); tables are then rendered from the engine's caches,
   so stdout is byte-identical for every --jobs value.  The per-task
   timing summary goes to stderr. *)

module Registry = Vp_workloads.Registry
module Program = Vp_prog.Program
module Emulator = Vp_exec.Emulator
module Tabular = Vp_util.Tabular
module Stats = Vp_util.Stats
module Phase_log = Vp_phase.Phase_log
module Categorize = Vp_phase.Categorize
module Engine = Vacuum.Engine

(* The four configurations of Figures 8 and 10, in the paper's bar
   order: inference x linking. *)
let configurations =
  [
    (false, false, "no inf, no link");
    (false, true, "no inf, link");
    (true, false, "inf, no link");
    (true, true, "inf, link");
  ]

(* ------------------------------------------------------------------ *)
(* Pipeline artefacts — one profile per workload, one rewrite per
   workload x configuration, shared by all experiments — live in the
   engine's caches, populated in parallel before the tables render. *)

let engine = ref (Engine.create ~jobs:1 ())

(* Which functional emulator produces every retire stream this process
   runs (--backend); all backends are bit-identical, so tables do not
   change with the selection — only wall-clock does. *)
let backend = ref Emulator.default_backend

let spec_of w =
  {
    Engine.name = Registry.name w;
    load = (fun () -> Program.layout (w.Registry.program ()));
  }

let config_of ~inference ~linking =
  Vacuum.Config.with_backend !backend
    (Vacuum.Config.experiment ~inference ~linking)

let cell_of ~inference ~linking =
  {
    Engine.key = Printf.sprintf "%b%b" inference linking;
    config = config_of ~inference ~linking;
  }

let image_of w = Engine.image !engine (spec_of w)

(* A truncated profiling run would silently undercount coverage and
   speedup; fail loudly instead (the driver has already logged it). *)
let fail_truncated name =
  Printf.eprintf
    "bench: profile of %s exhausted its fuel before halting; results would \
     reflect a partial run (raise Config.fuel)\n"
    name;
  exit 2

let profile_of w =
  let p = Engine.profile !engine (spec_of w) in
  if p.Vacuum.Driver.truncated then fail_truncated (Registry.name w);
  p

let rewrite_of w ~inference ~linking =
  Engine.rewrite !engine (spec_of w) (cell_of ~inference ~linking)

let coverage_of w ~inference ~linking =
  Engine.coverage !engine (spec_of w) (cell_of ~inference ~linking)

(* ------------------------------------------------------------------ *)

let heading title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n"

let table1 workloads =
  heading "Table 1: benchmarks and inputs";
  let t =
    Tabular.create
      ~header:
        [
          ("Benchmark", Tabular.Left);
          ("Input", Tabular.Left);
          ("# of Inst", Tabular.Right);
          ("Cond branches", Tabular.Right);
          ("Static size", Tabular.Right);
        ]
  in
  List.iter
    (fun w ->
      let p = profile_of w in
      let o = p.Vacuum.Driver.outcome in
      Tabular.add_row t
        [
          w.Registry.bench;
          w.Registry.input;
          Printf.sprintf "%.1fM" (float_of_int o.Emulator.instructions /. 1e6);
          Printf.sprintf "%.2fM" (float_of_int o.Emulator.cond_branches /. 1e6);
          string_of_int (Vp_prog.Image.size p.Vacuum.Driver.image);
        ])
    workloads;
  Tabular.print t

let table2 () =
  heading "Table 2: simulated EPIC machine model";
  Format.printf "%a@." Vp_cpu.Config.pp Vp_cpu.Config.default;
  let d = Vp_hsd.Config.default in
  let t = Tabular.create ~header:[ ("HSD parameter", Tabular.Left); ("Value", Tabular.Right) ] in
  Tabular.add_row t [ "BBB associativity"; Printf.sprintf "%d-way" d.Vp_hsd.Config.assoc ];
  Tabular.add_row t [ "Num BBB sets"; string_of_int d.Vp_hsd.Config.sets ];
  Tabular.add_row t [ "Candidate branch threshold"; string_of_int d.Vp_hsd.Config.candidate_threshold ];
  Tabular.add_row t [ "Refresh timer interval"; Printf.sprintf "%d br" d.Vp_hsd.Config.refresh_interval ];
  Tabular.add_row t [ "Clear timer interval"; Printf.sprintf "%d br" d.Vp_hsd.Config.clear_interval ];
  Tabular.add_row t [ "Hot spot detection cntr size"; Printf.sprintf "%d bits" d.Vp_hsd.Config.hdc_bits ];
  Tabular.add_row t [ "Hot spot detection cntr inc"; string_of_int d.Vp_hsd.Config.hdc_inc ];
  Tabular.add_row t [ "Hot spot detection cntr dec"; string_of_int d.Vp_hsd.Config.hdc_dec ];
  Tabular.add_row t [ "Exec and taken counter size"; Printf.sprintf "%d bits" d.Vp_hsd.Config.counter_bits ];
  Tabular.print t

let fig8 workloads =
  heading "Figure 8: percent of dynamic instructions from within packages";
  let t =
    Tabular.create
      ~header:
        (("Benchmark", Tabular.Left)
        :: List.map (fun (_, _, name) -> (name, Tabular.Right)) configurations
        @ [ ("equivalent", Tabular.Right) ])
  in
  let sums = Array.make (List.length configurations) 0.0 in
  List.iter
    (fun w ->
      let cells, all_equiv =
        List.fold_left
          (fun (cells, equiv) (inference, linking, _) ->
            let c = coverage_of w ~inference ~linking in
            (cells @ [ c ], equiv && c.Vacuum.Coverage.equivalent))
          ([], true) configurations
      in
      List.iteri
        (fun i c -> sums.(i) <- sums.(i) +. c.Vacuum.Coverage.coverage_pct)
        cells;
      Tabular.add_row t
        (Registry.name w
        :: List.map (fun c -> Tabular.cell_pct c.Vacuum.Coverage.coverage_pct) cells
        @ [ (if all_equiv then "yes" else "NO") ]))
    workloads;
  Tabular.add_separator t;
  let n = float_of_int (List.length workloads) in
  Tabular.add_row t
    ("average" :: Array.to_list (Array.map (fun s -> Tabular.cell_pct (s /. n)) sums));
  Tabular.print t

let table3 workloads =
  heading "Table 3: code expansion (full configuration)";
  let t =
    Tabular.create
      ~header:
        [
          ("Benchmark", Tabular.Left);
          ("% Incr in size", Tabular.Right);
          ("% Static inst selected", Tabular.Right);
          ("Replication", Tabular.Right);
        ]
  in
  let incrs = ref [] in
  let selects = ref [] in
  List.iter
    (fun w ->
      let r = rewrite_of w ~inference:true ~linking:true in
      let e = Vacuum.Expansion.measure r in
      incrs := e.Vacuum.Expansion.increase_pct :: !incrs;
      selects := e.Vacuum.Expansion.selected_pct :: !selects;
      Tabular.add_row t
        [
          Registry.name w;
          Tabular.cell_pct e.Vacuum.Expansion.increase_pct;
          Tabular.cell_pct e.Vacuum.Expansion.selected_pct;
          Tabular.cell_float ~decimals:2 e.Vacuum.Expansion.replication;
        ])
    workloads;
  Tabular.add_separator t;
  Tabular.add_row t
    [
      "average";
      Tabular.cell_pct (Stats.mean !incrs);
      Tabular.cell_pct (Stats.mean !selects);
    ];
  Tabular.print t

let fig9 workloads =
  heading "Figure 9: categorisation of hot spot branch behaviour (% of dynamic branches)";
  let t =
    Tabular.create
      ~header:
        (("Benchmark", Tabular.Left)
        :: List.map
             (fun c -> (Categorize.category_name c, Tabular.Right))
             Categorize.all_categories)
  in
  List.iter
    (fun w ->
      let p = profile_of w in
      let ws =
        Categorize.weighted p.Vacuum.Driver.log ~dynamic:p.Vacuum.Driver.aggregate
      in
      Tabular.add_row t
        (Registry.name w :: List.map (fun (_, pct) -> Tabular.cell_pct pct) ws))
    workloads;
  Tabular.print t

let fig10 workloads =
  heading "Figure 10: speedup from package relayout and rescheduling";
  let t =
    Tabular.create
      ~header:
        (("Benchmark", Tabular.Left)
        :: List.map (fun (_, _, name) -> (name, Tabular.Right)) configurations)
  in
  let per_config = Array.make (List.length configurations) [] in
  List.iter
    (fun w ->
      let config = config_of ~inference:true ~linking:true in
      let baseline =
        Engine.baseline !engine (spec_of w) ~cpu:(Vacuum.Config.cpu config)
      in
      let cells =
        List.mapi
          (fun i (inference, linking, _) ->
            let optimized =
              Engine.optimized !engine (spec_of w) (cell_of ~inference ~linking)
            in
            let s = Vp_cpu.Pipeline.speedup ~baseline ~optimized in
            per_config.(i) <- s :: per_config.(i);
            s)
          configurations
      in
      Tabular.add_row t
        (Registry.name w :: List.map (Tabular.cell_float ~decimals:3) cells))
    workloads;
  Tabular.add_separator t;
  Tabular.add_row t
    ("average"
    :: Array.to_list
         (Array.map (fun l -> Tabular.cell_float ~decimals:3 (Stats.mean l)) per_config));
  Tabular.print t

(* ------------------------------------------------------------------ *)
(* Ablations for the design choices called out in DESIGN.md. *)

(* Inference only matters when the BBB actually loses branches.  The
   full-size table (2048 entries) never conflicts on these workloads,
   so this ablation re-runs the coverage experiment under a
   16-entry BBB where contention is real. *)
let ablation_bbb workloads =
  heading
    "Ablation: inference under BBB contention (16-entry BBB, coverage %)";
  let small_bbb =
    { Vp_hsd.Config.default with Vp_hsd.Config.sets = 4; candidate_threshold = 16 }
  in
  let t =
    Tabular.create
      ~header:
        [
          ("Benchmark", Tabular.Left);
          ("no inference", Tabular.Right);
          ("with inference", Tabular.Right);
          ("delta", Tabular.Right);
        ]
  in
  let deltas = ref [] in
  List.iter
    (fun w ->
      let base_config =
        Vacuum.Config.with_detector small_bbb Vacuum.Config.default
      in
      let profile = Vacuum.Driver.profile ~config:base_config (image_of w) in
      if profile.Vacuum.Driver.truncated then
        fail_truncated (Registry.name w ^ " [small-bbb]");
      let coverage inference =
        let config =
          Vacuum.Config.with_detector small_bbb
            (config_of ~inference ~linking:true)
        in
        (Vacuum.Coverage.measure ~config
           (Vacuum.Driver.rewrite_of_profile ~config profile))
          .Vacuum.Coverage.coverage_pct
      in
      let off = coverage false in
      let on_ = coverage true in
      deltas := (on_ -. off) :: !deltas;
      Tabular.add_row t
        [
          Registry.name w;
          Tabular.cell_pct off;
          Tabular.cell_pct on_;
          Printf.sprintf "%+.1f" (on_ -. off);
        ])
    workloads;
  Tabular.add_separator t;
  Tabular.add_row t
    [ "average delta"; ""; ""; Printf.sprintf "%+.1f" (Stats.mean !deltas) ];
  Tabular.print t

(* Contribution of the heuristic-growth machinery: entry predecessor
   growth (MAX_BLOCKS) and opportunistic connector adoption. *)
let ablation_growth workloads =
  heading "Ablation: heuristic growth (coverage %, full configuration)";
  let variants =
    [
      ("no growth", 0, 0);
      ("connectors only", 0, 6);
      ("entries only (MAX_BLOCKS=1)", 1, 0);
      ("paper (MAX_BLOCKS=1 + connectors)", 1, 6);
    ]
  in
  let t =
    Tabular.create
      ~header:
        (("Benchmark", Tabular.Left)
        :: List.map (fun (n, _, _) -> (n, Tabular.Right)) variants)
  in
  let sums = Array.make (List.length variants) 0.0 in
  List.iter
    (fun w ->
      let profile = profile_of w in
      let cells =
        List.mapi
          (fun i (_, max_blocks, max_connector) ->
            let base = config_of ~inference:true ~linking:true in
            let config =
              Vacuum.Config.map_identify
                (fun identify ->
                  { identify with Vp_region.Identify.max_blocks; max_connector })
                base
            in
            let c =
              Vacuum.Coverage.measure ~config
                (Vacuum.Driver.rewrite_of_profile ~config profile)
            in
            sums.(i) <- sums.(i) +. c.Vacuum.Coverage.coverage_pct;
            c.Vacuum.Coverage.coverage_pct)
          variants
      in
      Tabular.add_row t (Registry.name w :: List.map Tabular.cell_pct cells))
    workloads;
  Tabular.add_separator t;
  let n = float_of_int (List.length workloads) in
  Tabular.add_row t
    ("average" :: Array.to_list (Array.map (fun s -> Tabular.cell_pct (s /. n)) sums));
  Tabular.print t

(* The baseline the paper argues against: one package set formed from
   the whole-run aggregate profile, with no phase sensitivity. *)
let baseline_aggregate workloads =
  heading
    "Baseline: aggregate-profile packing vs phase packing (full configuration)";
  let t =
    Tabular.create
      ~header:
        [
          ("Benchmark", Tabular.Left);
          ("agg coverage", Tabular.Right);
          ("phase coverage", Tabular.Right);
          ("agg speedup", Tabular.Right);
          ("phase speedup", Tabular.Right);
        ]
  in
  let agg_speeds = ref [] in
  let phase_speeds = ref [] in
  List.iter
    (fun w ->
      let profile = profile_of w in
      let config = config_of ~inference:true ~linking:true in
      let agg = Vacuum.Aggregate.rewrite ~config profile in
      let agg_cov = Vacuum.Coverage.measure ~config agg in
      let phase_cov = coverage_of w ~inference:true ~linking:true in
      let baseline =
        Engine.baseline !engine (spec_of w) ~cpu:(Vacuum.Config.cpu config)
      in
      let time r =
        Vp_cpu.Pipeline.speedup ~baseline
          ~optimized:
            (Vp_cpu.Pipeline.simulate ~config:(Vacuum.Config.cpu config)
               (Vacuum.Driver.rewritten_image r))
      in
      let agg_speed = time agg in
      let phase_speed =
        Vp_cpu.Pipeline.speedup ~baseline
          ~optimized:
            (Engine.optimized !engine (spec_of w)
               (cell_of ~inference:true ~linking:true))
      in
      agg_speeds := agg_speed :: !agg_speeds;
      phase_speeds := phase_speed :: !phase_speeds;
      Tabular.add_row t
        [
          Registry.name w;
          Tabular.cell_pct agg_cov.Vacuum.Coverage.coverage_pct;
          Tabular.cell_pct phase_cov.Vacuum.Coverage.coverage_pct;
          Tabular.cell_float ~decimals:3 agg_speed;
          Tabular.cell_float ~decimals:3 phase_speed;
        ])
    workloads;
  Tabular.add_separator t;
  Tabular.add_row t
    [
      "average";
      "";
      "";
      Tabular.cell_float ~decimals:3 (Stats.mean !agg_speeds);
      Tabular.cell_float ~decimals:3 (Stats.mean !phase_speeds);
    ];
  Tabular.print t

(* Fleet-scale profile aggregation: each workload's profiling run seen
   through per-machine noise on N emulated user machines, aggregated
   into one consensus profile per binary.  The table is deterministic
   (exact sums, order-fixed digests); the snapshots/sec throughput is
   timing, so it goes to stderr and the --json export. *)

(* (workload, snapshots ingested, snapshots/sec) rows from the last
   [aggregate] run, kept for the --json export. *)
let aggregate_results : (string * int * float) list ref = ref []

let fleet_aggregate workloads ~quick ~jobs =
  heading "Fleet aggregation: consensus profile per binary (emulated fleet)";
  let runs = if quick then 64 else 256 in
  let t =
    Tabular.create
      ~header:
        [
          ("Benchmark", Tabular.Left);
          ("runs", Tabular.Right);
          ("snapshots", Tabular.Right);
          ("classified", Tabular.Right);
          ("dropped", Tabular.Right);
          ("classes", Tabular.Right);
          ("digest", Tabular.Right);
        ]
  in
  aggregate_results := [];
  List.iter
    (fun w ->
      let base = profile_of w in
      let wire = Vacuum.Fleet.emulate_runs ~runs base in
      let t0 = Unix.gettimeofday () in
      let fleet = Vacuum.Fleet.aggregate ~jobs ~base wire in
      let dt = Unix.gettimeofday () -. t0 in
      let stats = fleet.Vacuum.Fleet.stats in
      let snaps = stats.Vp_aggregate.Shard.snapshots in
      let per_sec = float_of_int snaps /. Float.max dt 1e-9 in
      aggregate_results :=
        (Registry.name w, snaps, per_sec) :: !aggregate_results;
      Tabular.add_row t
        [
          Registry.name w;
          string_of_int stats.Vp_aggregate.Shard.runs;
          string_of_int snaps;
          string_of_int stats.Vp_aggregate.Shard.classified;
          string_of_int stats.Vp_aggregate.Shard.dropped;
          string_of_int (List.length fleet.Vacuum.Fleet.classes);
          Printf.sprintf "%016x" fleet.Vacuum.Fleet.digest;
        ];
      Printf.eprintf "aggregate %s: %.0f snapshots/sec (%.3f s, %d jobs)\n"
        (Registry.name w) per_sec dt jobs)
    workloads;
  aggregate_results := List.rev !aggregate_results;
  Tabular.print t

(* Superblock formation: chain merging + speculative hoisting — this
   repository's extension of the paper's "basic rescheduling",
   exercising the region-level scheduling scope Section 2 motivates. *)
let ablation_superblock workloads =
  heading "Ablation: superblock formation (beyond the paper's study)";
  let t =
    Tabular.create
      ~header:
        [
          ("Benchmark", Tabular.Left);
          ("paper opt", Tabular.Right);
          ("+superblocks", Tabular.Right);
        ]
  in
  let base_speeds = ref [] in
  let sb_speeds = ref [] in
  List.iter
    (fun w ->
      let profile = profile_of w in
      let paper_cfg = config_of ~inference:true ~linking:true in
      let sb_cfg = Vacuum.Config.with_opt Vp_opt.Opt.default paper_cfg in
      let baseline =
        Engine.baseline !engine (spec_of w) ~cpu:(Vacuum.Config.cpu paper_cfg)
      in
      let time config =
        let r = Vacuum.Driver.rewrite_of_profile ~config profile in
        Vp_cpu.Pipeline.speedup ~baseline
          ~optimized:
            (Vp_cpu.Pipeline.simulate ~config:(Vacuum.Config.cpu config)
               (Vacuum.Driver.rewritten_image r))
      in
      let a = time paper_cfg in
      let b = time sb_cfg in
      base_speeds := a :: !base_speeds;
      sb_speeds := b :: !sb_speeds;
      Tabular.add_row t
        [
          Registry.name w;
          Tabular.cell_float ~decimals:3 a;
          Tabular.cell_float ~decimals:3 b;
        ])
    workloads;
  Tabular.add_separator t;
  Tabular.add_row t
    [
      "average";
      Tabular.cell_float ~decimals:3 (Stats.mean !base_speeds);
      Tabular.cell_float ~decimals:3 (Stats.mean !sb_speeds);
    ];
  Tabular.print t

(* Exit-block sinking (Section 5.4's suggested redundancy elimination,
   not applied in the paper's own study). *)
let ablation_sink workloads =
  heading "Ablation: exit-block sinking (full configuration)";
  let t =
    Tabular.create
      ~header:
        [
          ("Benchmark", Tabular.Left);
          ("sunk", Tabular.Right);
          ("deleted", Tabular.Right);
          ("speedup w/o sink", Tabular.Right);
          ("speedup w/ sink", Tabular.Right);
        ]
  in
  List.iter
    (fun w ->
      let profile = profile_of w in
      let base = config_of ~inference:true ~linking:true in
      let sink_cfg =
        Vacuum.Config.with_opt Vp_opt.Opt.with_sinking base
      in
      (* Count what the pass does on the linked packages. *)
      let r_plain = rewrite_of w ~inference:true ~linking:true in
      let sunk = ref 0 in
      let deleted = ref 0 in
      List.iter
        (fun p ->
          let _, stats = Vp_opt.Sink.run p in
          sunk := !sunk + stats.Vp_opt.Sink.sunk;
          deleted := !deleted + stats.Vp_opt.Sink.deleted)
        r_plain.Vacuum.Driver.packages;
      let r_sink = Vacuum.Driver.rewrite_of_profile ~config:sink_cfg profile in
      let baseline =
        Engine.baseline !engine (spec_of w) ~cpu:(Vacuum.Config.cpu base)
      in
      let time r =
        Vp_cpu.Pipeline.speedup ~baseline
          ~optimized:
            (Vp_cpu.Pipeline.simulate ~config:(Vacuum.Config.cpu base)
               (Vacuum.Driver.rewritten_image r))
      in
      Tabular.add_row t
        [
          Registry.name w;
          string_of_int !sunk;
          string_of_int !deleted;
          Tabular.cell_float ~decimals:3 (time r_plain);
          Tabular.cell_float ~decimals:3 (time r_sink);
        ])
    workloads;
  Tabular.print t

(* ------------------------------------------------------------------ *)
(* Online re-optimization: Vacuum.Session epochs against the one-shot
   post-link rewrite.  The session column is live coverage — the share
   of instructions actually retired from package space while the
   workload ran under the patch-profile-repackage loop — so it also
   pays for the epochs spent profiling before the first activation. *)

let session_exp workloads =
  heading "Session: online re-optimization loop vs single-shot rewrite";
  let cell = cell_of ~inference:true ~linking:true in
  (* The engine memoizes per (workload, cell); warm the session cache
     in parallel, then render serially from the memo. *)
  ignore
    (Vp_util.Pool.map ~jobs:(Engine.jobs !engine)
       (fun w -> ignore (Engine.session !engine (spec_of w) cell))
       workloads);
  let t =
    Tabular.create
      ~header:
        [
          ("Benchmark", Tabular.Left);
          ("single-shot", Tabular.Right);
          ("session", Tabular.Right);
          ("epochs", Tabular.Right);
          ("activations", Tabular.Right);
          ("cache", Tabular.Right);
          ("equivalent", Tabular.Right);
        ]
  in
  let single_sum = ref 0.0 and session_sum = ref 0.0 in
  List.iter
    (fun w ->
      let c = coverage_of w ~inference:true ~linking:true in
      let r = Engine.session !engine (spec_of w) cell in
      single_sum := !single_sum +. c.Vacuum.Coverage.coverage_pct;
      session_sum := !session_sum +. r.Vacuum.Session.coverage_pct;
      Tabular.add_row t
        [
          Registry.name w;
          Tabular.cell_pct c.Vacuum.Coverage.coverage_pct;
          Tabular.cell_pct r.Vacuum.Session.coverage_pct;
          string_of_int (List.length r.Vacuum.Session.epochs);
          string_of_int r.Vacuum.Session.activations;
          string_of_int r.Vacuum.Session.final_cache_entries;
          (match r.Vacuum.Session.equivalent with
          | Some true -> "yes"
          | Some false -> "NO"
          | None -> "-");
        ])
    workloads;
  Tabular.add_separator t;
  let n = float_of_int (List.length workloads) in
  Tabular.add_row t
    [
      "average";
      Tabular.cell_pct (!single_sum /. n);
      Tabular.cell_pct (!session_sum /. n);
      ""; ""; ""; "";
    ];
  Tabular.print t

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the pipeline stages. *)

(* (stage name, ns/run, r^2) rows from the last [micro] run, kept for
   the --json export. *)
let micro_results : (string * float * float option) list ref = ref []

(* Ditto for the last [overhead] run. *)
let overhead_results : (string * float * float option) list ref = ref []

(* Run a Bechamel test tree and return its OLS estimates as sorted
   (name, ns/run, r^2) rows.  Hashtbl.iter order depends on internal
   hashing; sorting by stage name keeps the table (and the JSON
   export) stable run to run. *)
let bechamel_rows ~quick tests =
  let open Bechamel in
  let open Toolkit in
  let quota = if quick then Time.second 0.25 else Time.second 1.0 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota ~stabilize:false ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols_result acc ->
      let nanos =
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> e
        | _ -> nan
      in
      let r2 = Analyze.OLS.r_square ols_result in
      (name, nanos, r2) :: acc)
    results []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let print_bechamel_rows rows =
  let t =
    Tabular.create
      ~header:
        [ ("stage", Tabular.Left); ("time/run", Tabular.Right); ("r^2", Tabular.Right) ]
  in
  List.iter
    (fun (name, nanos, r2) ->
      let pretty =
        if nanos > 1e9 then Printf.sprintf "%.2f s" (nanos /. 1e9)
        else if nanos > 1e6 then Printf.sprintf "%.2f ms" (nanos /. 1e6)
        else if nanos > 1e3 then Printf.sprintf "%.2f us" (nanos /. 1e3)
        else Printf.sprintf "%.0f ns" nanos
      in
      let r2 =
        match r2 with Some r -> Printf.sprintf "%.4f" r | None -> "-"
      in
      Tabular.add_row t [ name; pretty; r2 ])
    rows;
  Tabular.print t

let micro ~quick =
  heading "Micro-benchmarks (Bechamel, monotonic clock)";
  let open Bechamel in
  let sample = Option.get (Registry.find ~bench:"134.perl" ~input:"B") in
  let img = image_of sample in
  let profile = profile_of sample in
  let snapshot =
    (List.hd (Phase_log.phases profile.Vacuum.Driver.log)).Phase_log.representative
  in
  let region = Vp_region.Identify.identify img snapshot in
  let pkgs = Vp_package.Build.build region ~prefix:"bench$p0" in
  let detector_stream =
    Staged.stage (fun () ->
        let d = Vp_hsd.Detector.create ~config:Vp_hsd.Config.default () in
        for i = 0 to 9_999 do
          Vp_hsd.Detector.on_branch d ~pc:(100 + (i mod 24)) ~taken:(i land 3 <> 0)
        done)
  in
  let identify =
    Staged.stage (fun () -> ignore (Vp_region.Identify.identify img snapshot))
  in
  let build =
    Staged.stage (fun () ->
        ignore (Vp_package.Build.build region ~prefix:"bench$p1"))
  in
  let emit =
    Staged.stage (fun () -> ignore (Vp_package.Emit.emit img pkgs))
  in
  let optimize =
    Staged.stage (fun () ->
        List.iter (fun p -> ignore (Vp_opt.Opt.transform p)) pkgs)
  in
  let snaps = profile.Vacuum.Driver.snapshots in
  let chaos_plan =
    Option.get (Vp_fault.Plan.find_preset "duplicate-reorder")
  in
  (* Guard: a clean plan must be physically inert — the injector
     returns its input list untouched, so this clocks at bare
     call-dispatch cost.  The active plan row shows the (bounded,
     per-snapshot) price actually paid under chaos testing. *)
  let inject_clean =
    Staged.stage (fun () ->
        ignore
          (Vp_fault.Inject.snapshots ~plan:Vp_fault.Plan.clean ~counter_max:511
             snaps))
  in
  let inject_active =
    Staged.stage (fun () ->
        ignore
          (Vp_fault.Inject.snapshots ~plan:chaos_plan ~counter_max:511 snaps))
  in
  let emulate_100k =
    Staged.stage (fun () ->
        ignore (Emulator.run_backend ~backend:!backend ~fuel:100_000 img))
  in
  let timing_100k =
    Staged.stage (fun () ->
        ignore (Vp_cpu.Pipeline.simulate ~backend:!backend ~fuel:100_000 img))
  in
  let tests =
    Test.make_grouped ~name:"vacuum"
      [
        Test.make ~name:"hsd detector (10k branches)" detector_stream;
        Test.make ~name:"region identify (134.perl phase)" identify;
        Test.make ~name:"package build" build;
        Test.make ~name:"package emit" emit;
        Test.make ~name:"layout+schedule" optimize;
        Test.make ~name:"fault inject (clean plan)" inject_clean;
        Test.make ~name:"fault inject (duplicate-reorder)" inject_active;
        Test.make ~name:"emulator (100k instrs)" emulate_100k;
        Test.make ~name:"timing model (100k instrs)" timing_100k;
      ]
  in
  let rows = bechamel_rows ~quick tests in
  micro_results := rows;
  print_bechamel_rows rows

(* The generative corpus: program generation, trace record/codec
   throughput, and the end-to-end campaign case rate — the budget that
   sizes CI's fuzz-smoke sweep (cases/second x wall budget = corpus
   size). *)
let gen_results : (string * float * float option) list ref = ref []

let gen_exp ~quick =
  heading "Generative corpus: generation, trace codec and campaign case rates";
  let open Bechamel in
  let params = Vp_gen.Gen.default in
  let image = Vp_prog.Program.layout (Vp_gen.Gen.program ~seed:1 params) in
  let trace, _ = Vp_gen.Trace.record ~backend:!backend image in
  let enc = Vp_gen.Trace.encode trace in
  let spec = Vp_gen.Campaign.spec_of_index ~root_seed:1 0 in
  let generate =
    Staged.stage (fun () -> ignore (Vp_gen.Gen.program ~seed:1 params))
  in
  let layout =
    Staged.stage (fun () ->
        ignore (Vp_prog.Program.layout (Vp_gen.Gen.program ~seed:1 params)))
  in
  let record =
    Staged.stage (fun () -> ignore (Vp_gen.Trace.record ~backend:!backend image))
  in
  let encode = Staged.stage (fun () -> ignore (Vp_gen.Trace.encode trace)) in
  let decode = Staged.stage (fun () -> ignore (Vp_gen.Trace.decode enc)) in
  let case =
    Staged.stage (fun () ->
        ignore
          (Vp_gen.Campaign.run_case
             ~config:
               (Vacuum.Config.with_backend !backend
                  Vp_gen.Campaign.default_config)
             ~index:0 spec))
  in
  let tests =
    Test.make_grouped ~name:"gen"
      [
        Test.make ~name:"generate (default params)" generate;
        Test.make ~name:"generate + layout" layout;
        Test.make ~name:(Printf.sprintf "trace record (%d events)" (Vp_gen.Trace.length trace)) record;
        Test.make ~name:"trace encode" encode;
        Test.make ~name:"trace decode + checksum" decode;
        Test.make ~name:"campaign case (full pipeline)" case;
      ]
  in
  let rows = bechamel_rows ~quick tests in
  gen_results := rows;
  print_bechamel_rows rows

(* The cost of the observability recorder itself: metric operations on
   a disabled vs enabled recorder, and the emulator micro with a
   histogram observed once per run — the instrumentation shape of
   Driver.profile.  The disabled rows are the always-on price every hot
   loop pays (they must clock at bare call-dispatch cost; the alloc
   group in test_obs pins the zero-allocation half of that claim). *)
let overhead ~quick =
  heading "Overhead: observability recorder enabled vs disabled";
  let open Bechamel in
  let sample = Option.get (Registry.find ~bench:"134.perl" ~input:"B") in
  let img = image_of sample in
  let off = Vp_obs.disabled in
  let on_ = Vp_obs.create () in
  let bump_1k m =
    Staged.stage (fun () ->
        for _ = 1 to 1_000 do
          Vp_obs.Counter.bump m "bench.counter" 1
        done)
  in
  let observe_1k m =
    Staged.stage (fun () ->
        for i = 1 to 1_000 do
          Vp_obs.Histogram.observe m "bench.hist" i
        done)
  in
  let emulate m =
    Staged.stage (fun () ->
        let o = Emulator.run_backend ~backend:!backend ~fuel:100_000 img in
        Vp_obs.Histogram.observe m "bench.emulator.instructions"
          o.Emulator.instructions)
  in
  let tests =
    Test.make_grouped ~name:"overhead"
      [
        Test.make ~name:"counter bump x1k (disabled)" (bump_1k off);
        Test.make ~name:"counter bump x1k (enabled)" (bump_1k on_);
        Test.make ~name:"hist observe x1k (disabled)" (observe_1k off);
        Test.make ~name:"hist observe x1k (enabled)" (observe_1k on_);
        Test.make ~name:"emulator (100k instrs, disabled)" (emulate off);
        Test.make ~name:"emulator (100k instrs, enabled)" (emulate on_);
      ]
  in
  let rows = bechamel_rows ~quick tests in
  overhead_results := rows;
  print_bechamel_rows rows

(* ------------------------------------------------------------------ *)

(* What each experiment needs pre-computed by the engine: the matrix
   rewrites/coverages, and the timing simulations. *)
let needs = function
  | "fig8" | "table3" | "ablation-sink" | "session" -> (true, false)
  | "fig10" | "baseline-aggregate" | "ablation-superblock" -> (true, true)
  | _ -> (false, false)

(* Pull "--name VALUE" or "--name=VALUE" out of the argument list. *)
let parse_valued ~name args =
  let flag = "--" ^ name in
  let prefix = flag ^ "=" in
  let plen = String.length prefix in
  let rec go acc = function
    | [] -> (None, List.rev acc)
    | [ arg ] when arg = flag ->
      Printf.eprintf "bench: %s expects a value\n" flag;
      exit 2
    | arg :: v :: rest when arg = flag -> (Some v, List.rev_append acc rest)
    | arg :: rest
      when String.length arg > plen && String.sub arg 0 plen = prefix ->
      (Some (String.sub arg plen (String.length arg - plen)),
       List.rev_append acc rest)
    | arg :: rest -> go (arg :: acc) rest
  in
  go [] args

let parse_jobs args =
  match parse_valued ~name:"jobs" args with
  | None, rest -> (None, rest)
  | Some n, rest -> (
    match int_of_string_opt n with
    | Some j -> (Some j, rest)
    | None ->
      Printf.eprintf "bench: --jobs expects an integer, got %S\n" n;
      exit 2)

(* ------------------------------------------------------------------ *)
(* --json FILE: machine-readable export of the micro estimates and the
   engine's per-task wall-clock timings (hand-rolled writer — the tree
   is tiny and the build carries no JSON library). *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let write_json ~path ~jobs ~engine_metrics ~counters ~timeline =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  let backend_name = Emulator.backend_name !backend in
  (* Every experiment record repeats the run metadata, so records stay
     self-describing when jq slices one array out of the file. *)
  let meta () = Printf.sprintf "\"backend\": \"%s\", \"jobs\": %d" (json_escape backend_name) jobs in
  out "{\n  \"schema\": \"vacuum-bench/2\",\n";
  out "  \"backend\": \"%s\",\n  \"jobs\": %d,\n" (json_escape backend_name) jobs;
  (match timeline with
  | None -> ()
  | Some (trace, tls) ->
    out "  \"timeline\": {\n    \"trace\": \"%s\",\n" (json_escape trace);
    out "    \"series\": [";
    let first = ref true in
    List.iter
      (fun tl ->
        List.iter
          (fun (name, samples, min_v, max_v, total) ->
            out "%s\n      {\"name\": \"%s\", \"samples\": %d, \"min\": %d, \
                 \"max\": %d, \"total\": %d}"
              (if !first then "" else ",")
              (json_escape name) samples min_v max_v total;
            first := false)
          (Vp_obs.Timeline.summary tl))
      tls;
    out "\n    ],\n    \"events\": [";
    let first = ref true in
    List.iter
      (fun tl ->
        List.iter
          (fun (kind, count) ->
            out "%s\n      {\"kind\": \"%s\", \"count\": %d}"
              (if !first then "" else ",")
              (json_escape kind) count;
            first := false)
          (Vp_obs.Timeline.event_counts tl))
      tls;
    out "\n    ]\n  },\n");
  out "  \"aggregate\": [";
  List.iteri
    (fun i (name, snapshots, per_sec) ->
      out
        "%s\n    {\"name\": \"%s\", %s, \"snapshots\": %d, \
         \"snapshots_per_sec\": %s}"
        (if i = 0 then "" else ",")
        (json_escape name) (meta ()) snapshots (json_float per_sec))
    !aggregate_results;
  out "\n  ],\n";
  let bechamel_array key rows =
    out "  \"%s\": [" key;
    List.iteri
      (fun i (name, nanos, r2) ->
        out
          "%s\n    {\"name\": \"%s\", %s, \"ns_per_run\": %s, \
           \"r_square\": %s}"
          (if i = 0 then "" else ",")
          (json_escape name) (meta ()) (json_float nanos)
          (match r2 with Some r -> json_float r | None -> "null"))
      rows;
    out "\n  ],\n"
  in
  bechamel_array "micro" !micro_results;
  bechamel_array "overhead" !overhead_results;
  bechamel_array "gen" !gen_results;
  out "  \"tasks\": [";
  List.iteri
    (fun i m ->
      out
        "%s\n    {\"kind\": \"%s\", \"label\": \"%s\", %s, \"wall_s\": %s, \
         \"instructions\": %d}"
        (if i = 0 then "" else ",")
        (json_escape m.Engine.kind) (json_escape m.Engine.label) (meta ())
        (json_float m.Engine.wall_s) m.Engine.instructions)
    engine_metrics;
  out "\n  ],\n";
  out "  \"counters\": [";
  List.iteri
    (fun i (name, value) ->
      out "%s\n    {\"name\": \"%s\", %s, \"value\": %d}"
        (if i = 0 then "" else ",")
        (json_escape name) (meta ()) value)
    counters;
  out "\n  ]\n}\n";
  close_out oc

let () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Warning);
  let args = List.tl (Array.to_list Sys.argv) in
  let jobs_opt, args = parse_jobs args in
  let backend_opt, args = parse_valued ~name:"backend" args in
  (match backend_opt with
  | None -> ()
  | Some s -> (
    match Emulator.backend_of_string s with
    | Some b -> backend := b
    | None ->
      Printf.eprintf
        "bench: --backend expects reference, decoded or compiled, got %S\n" s;
      exit 2));
  let json_path, args = parse_valued ~name:"json" args in
  let trace_path, args = parse_valued ~name:"trace" args in
  let timeline_path, args = parse_valued ~name:"timeline" args in
  let jobs = Option.value ~default:(Vp_util.Pool.default_jobs ()) jobs_opt in
  let quick = List.mem "--quick" args in
  let selected = List.filter (fun a -> a <> "--quick") args in
  let workloads =
    if quick then List.filter (fun w -> w.Registry.input = "A") Registry.all
    else Registry.all
  in
  let run = function
    | "table1" -> table1 workloads
    | "table2" -> table2 ()
    | "fig8" -> fig8 workloads
    | "table3" -> table3 workloads
    | "fig9" -> fig9 workloads
    | "fig10" -> fig10 workloads
    | "baseline-aggregate" -> baseline_aggregate workloads
    | "aggregate" -> fleet_aggregate workloads ~quick ~jobs
    | "ablation-bbb" -> ablation_bbb workloads
    | "ablation-growth" -> ablation_growth workloads
    | "ablation-sink" -> ablation_sink workloads
    | "ablation-superblock" -> ablation_superblock workloads
    | "session" -> session_exp workloads
    | "micro" -> micro ~quick
    | "overhead" -> overhead ~quick
    | "gen" -> gen_exp ~quick
    | other ->
      Printf.eprintf "unknown experiment %s\n" other;
      exit 1
  in
  let all =
    [
      "table1"; "table2"; "fig8"; "table3"; "fig9"; "fig10";
      "baseline-aggregate"; "aggregate"; "ablation-bbb"; "ablation-growth";
      "ablation-sink"; "ablation-superblock"; "session"; "micro"; "overhead";
      "gen";
    ]
  in
  let picks = match selected with [] -> all | picks -> picks in
  (* Reject unknown experiments before the engine does minutes of
     profiling work. *)
  List.iter
    (fun pick ->
      if not (List.mem pick all) then begin
        Printf.eprintf "unknown experiment %s\n" pick;
        exit 1
      end)
    picks;
  (* Populate the engine caches in parallel before any table renders;
     the DAG covers the union of what the picked experiments read. *)
  let obs = if trace_path = None then Vp_obs.disabled else Vp_obs.create () in
  engine :=
    Engine.create ~jobs
      ~profile_config:
        (Vacuum.Config.with_backend !backend
           (Vacuum.Config.with_obs obs Vacuum.Config.default))
      ();
  let rewrites, timing =
    List.fold_left
      (fun (r, t) pick ->
        let r', t' = needs pick in
        (r || r', t || t'))
      (false, false) picks
  in
  Engine.run ~rewrites ~timing !engine
    ~specs:(List.map spec_of workloads)
    ~cells:
      (List.map
         (fun (inference, linking, _) -> cell_of ~inference ~linking)
         configurations)
    ();
  (match Engine.truncated_profiles !engine with
  | [] -> ()
  | name :: _ -> fail_truncated name);
  List.iter run picks;
  (match trace_path with
  | Some path -> Vp_obs.Perfetto.write_spans obs ~path
  | None -> ());
  (* --timeline FILE: one sampled run of the reference
     workload (profile + rewritten run + timing model), written as a
     merged vp-timeline-trace/1 file with its per-series summaries
     folded into the --json export. *)
  let timeline_tls =
    match timeline_path with
    | None -> None
    | Some path ->
      let w = Option.get (Registry.find ~bench:"134.perl" ~input:"A") in
      let config =
        Vacuum.Config.with_obs
          (Vp_obs.create ~interval:Vp_obs.default_interval ())
          (config_of ~inference:true ~linking:true)
      in
      let profile = Vacuum.Driver.profile ~config (image_of w) in
      let r = Vacuum.Driver.rewrite_of_profile ~config profile in
      let cov = Vacuum.Coverage.measure ~config r in
      let tt = Vp_obs.Timeline.create (Vacuum.Config.obs config) in
      ignore
        (Vp_cpu.Pipeline.simulate ~config:(Vacuum.Config.cpu config)
           ~timeline:tt
           (Vacuum.Driver.rewritten_image r));
      let tls =
        [ profile.Vacuum.Driver.timeline; cov.Vacuum.Coverage.residency; tt ]
      in
      Vp_obs.Timeline.write_trace ~path tls;
      Printf.eprintf "timeline: %s -> %s\n" (Registry.name w) path;
      Some (path, tls)
  in
  (match json_path with
  | Some path ->
    write_json ~path ~jobs
      ~engine_metrics:(Engine.metrics !engine)
      ~counters:
        (List.filter_map
           (function
             | name, Vp_obs.Snapshot.Counter v -> Some (name, v) | _ -> None)
           (Vp_obs.Snapshot.samples obs))
      ~timeline:timeline_tls
  | None -> ());
  Format.eprintf "@.%a" Engine.pp_summary !engine
