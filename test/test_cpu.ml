(* Tests for vp_cpu: cache model, predictors, and the trace-driven
   pipeline timing model. *)

module Config = Vp_cpu.Config
module Cache = Vp_cpu.Cache
module Predictor = Vp_cpu.Predictor
module Pipeline = Vp_cpu.Pipeline
module Program = Vp_prog.Program
module Progs = Vp_test_support.Progs

let small_cache = { Config.size_bytes = 1024; line_bytes = 64; assoc = 2 }

let test_cache_cold_miss_then_hit () =
  let c = Cache.create small_cache in
  Alcotest.(check bool) "cold miss" false (Cache.access c ~addr:0);
  Alcotest.(check bool) "hit" true (Cache.access c ~addr:0);
  Alcotest.(check bool) "same line hit" true (Cache.access c ~addr:63);
  Alcotest.(check bool) "next line miss" false (Cache.access c ~addr:64);
  Alcotest.(check int) "two misses" 2 (Cache.misses c);
  Alcotest.(check int) "four accesses" 4 (Cache.accesses c)

let test_cache_lru_eviction () =
  (* 1024B / 64B lines = 16 lines, 2-way -> 8 sets.  Lines mapping to
     set 0: addresses 0, 512, 1024 ... *)
  let c = Cache.create small_cache in
  ignore (Cache.access c ~addr:0);
  ignore (Cache.access c ~addr:512);
  (* Touch 0 so 512 becomes LRU. *)
  ignore (Cache.access c ~addr:0);
  ignore (Cache.access c ~addr:1024);
  (* 512 evicted; 0 still resident. *)
  Alcotest.(check bool) "0 retained" true (Cache.access c ~addr:0);
  Alcotest.(check bool) "512 evicted" false (Cache.access c ~addr:512)

let test_cache_miss_rate () =
  let c = Cache.create small_cache in
  for i = 0 to 99 do
    ignore (Cache.access c ~addr:(i * 8))
  done;
  Alcotest.(check bool) "spatial locality" true (Cache.miss_rate c < 0.2);
  Cache.reset_stats c;
  Alcotest.(check int) "stats reset" 0 (Cache.accesses c)

let test_gshare_learns_loop () =
  let p = Predictor.create Config.default in
  (* A 99%-taken loop branch: after warmup the predictor is nearly
     perfect. *)
  for i = 1 to 2000 do
    ignore (Predictor.predict_branch p ~pc:400 ~taken:(i mod 100 <> 0))
  done;
  let s = Predictor.stats p in
  Alcotest.(check bool)
    (Printf.sprintf "mispredicts %d low" s.Predictor.mispredictions)
    true
    (s.Predictor.mispredictions < 100)

let test_gshare_alternating_pattern () =
  (* Strict alternation is captured by history correlation. *)
  let p = Predictor.create Config.default in
  for i = 1 to 2000 do
    ignore (Predictor.predict_branch p ~pc:52 ~taken:(i mod 2 = 0))
  done;
  let s = Predictor.stats p in
  Alcotest.(check bool) "alternation learned" true (s.Predictor.mispredictions < 60)

let test_ras_matches_calls () =
  let p = Predictor.create Config.default in
  Predictor.call_push p ~return_addr:101;
  Predictor.call_push p ~return_addr:202;
  Alcotest.(check bool) "inner return" true (Predictor.ret_predict p ~actual:202);
  Alcotest.(check bool) "outer return" true (Predictor.ret_predict p ~actual:101);
  Alcotest.(check bool) "underflow mispredicts" false (Predictor.ret_predict p ~actual:5)

let test_ras_overflow_wraps () =
  let p = Predictor.create Config.default in
  let depth = Config.default.Config.ras_entries + 4 in
  for i = 1 to depth do
    Predictor.call_push p ~return_addr:i
  done;
  (* The newest entries are intact even after wrap. *)
  Alcotest.(check bool) "top ok" true (Predictor.ret_predict p ~actual:depth)

let test_btb_install_and_hit () =
  let p = Predictor.create Config.default in
  Alcotest.(check bool) "first lookup misses" false (Predictor.btb_lookup p ~pc:9 ~target:77);
  Alcotest.(check bool) "second hits" true (Predictor.btb_lookup p ~pc:9 ~target:77);
  Alcotest.(check bool) "retarget misses" false (Predictor.btb_lookup p ~pc:9 ~target:78)

let test_pipeline_basic_sanity () =
  let img = Program.layout (Progs.sum_to_n 1000) in
  let s = Pipeline.simulate img in
  Alcotest.(check bool) "cycles positive" true (s.Pipeline.cycles > 0);
  Alcotest.(check bool) "instructions counted" true (s.Pipeline.instructions > 3000);
  Alcotest.(check bool) "ipc within issue width" true
    (s.Pipeline.ipc <= float_of_int Config.default.Config.issue_width);
  Alcotest.(check bool) "ipc positive" true (s.Pipeline.ipc > 0.1)

let test_pipeline_deterministic () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:500 ~repeats:2) in
  let a = Pipeline.simulate img in
  let b = Pipeline.simulate img in
  Alcotest.(check int) "same cycles" a.Pipeline.cycles b.Pipeline.cycles;
  Alcotest.(check int) "same mispredicts" a.Pipeline.branch_mispredicts
    b.Pipeline.branch_mispredicts

let test_pipeline_more_work_more_cycles () =
  let short = Pipeline.simulate (Program.layout (Progs.sum_to_n 100)) in
  let long = Pipeline.simulate (Program.layout (Progs.sum_to_n 10_000)) in
  Alcotest.(check bool) "monotone" true (long.Pipeline.cycles > short.Pipeline.cycles)

let test_pipeline_biased_branches_predict_well () =
  let img = Program.layout (Progs.biased_branch ~iters:20_000 ~bias_mod:100) in
  let s = Pipeline.simulate img in
  let rate =
    float_of_int s.Pipeline.branch_mispredicts /. float_of_int s.Pipeline.instructions
  in
  Alcotest.(check bool) "low mispredict rate" true (rate < 0.01)

let test_pipeline_dependent_chain_slower () =
  (* A long dependent multiply chain must be slower per instruction
     than independent adds. *)
  let module B = Vp_prog.Builder in
  let module Op = Vp_isa.Op in
  let build dependent =
    let b = B.create () in
    B.func b "main" ~nargs:0 (fun fb _ ->
        let v = B.vreg fb in
        let w = B.vreg fb in
        let i = B.vreg fb in
        B.li fb v 3;
        B.li fb w 5;
        B.for_ fb i ~from:(B.K 0) ~below:(B.K 2000) (fun () ->
            if dependent then begin
              B.alu fb Op.Mul v v (B.K 3);
              B.alu fb Op.Mul v v (B.K 5);
              B.alu fb Op.Mul v v (B.K 7);
              B.alu fb Op.And v v (B.K 0xFFFF)
            end
            else begin
              B.alu fb Op.Add v v (B.K 3);
              B.alu fb Op.Add w w (B.K 5);
              B.alu fb Op.Xor v v (B.K 7);
              B.alu fb Op.And w w (B.K 0xFFFF)
            end);
        B.ret fb (Some v);
        B.halt fb);
    Program.layout (B.program b ~entry:"main")
  in
  let dep = Pipeline.simulate (build true) in
  let indep = Pipeline.simulate (build false) in
  Alcotest.(check bool)
    (Printf.sprintf "dependent ipc %.2f < independent ipc %.2f" dep.Pipeline.ipc
       indep.Pipeline.ipc)
    true
    (dep.Pipeline.ipc < indep.Pipeline.ipc)

let test_simulate_phases_partitions () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:500 ~repeats:2) in
  let whole = Pipeline.simulate img in
  (* A synthetic two-interval timeline covering all branches. *)
  let total_branches =
    (Vp_exec.Emulator.run_backend img).Vp_exec.Emulator.cond_branches
  in
  let timeline =
    [ (0, total_branches / 2, 0); (total_branches / 2, total_branches + 1, 1) ]
  in
  let segs = Pipeline.simulate_phases ~timeline img in
  Alcotest.(check bool) "both phases present" true (List.length segs >= 2);
  let branches = List.fold_left (fun a s -> a + s.Pipeline.branches) 0 segs in
  Alcotest.(check int) "all branches attributed" total_branches branches;
  let instrs = List.fold_left (fun a s -> a + s.Pipeline.seg_instructions) 0 segs in
  Alcotest.(check bool) "most instructions attributed" true
    (instrs <= whole.Pipeline.instructions
    && instrs > whole.Pipeline.instructions * 9 / 10);
  List.iter
    (fun s ->
      Alcotest.(check bool) "ipc sane" true
        (s.Pipeline.seg_ipc > 0.0 && s.Pipeline.seg_ipc <= 8.0))
    segs

let test_pipeline_rejects_unresolved_branch () =
  (* A never-taken branch with an unresolved [Label] target: the
     emulator runs fine (target_addr is only needed when taken), but
     the timing model must refuse rather than silently skip the
     predictor and progress callback, which would desync phase
     attribution. *)
  let module Instr = Vp_isa.Instr in
  let module Op = Vp_isa.Op in
  let module Reg = Vp_isa.Reg in
  let img =
    {
      Vp_prog.Image.code =
        [|
          Instr.Li { dst = Reg.ret_value; imm = 1 };
          Instr.Br
            {
              cond = Op.Lt;
              src1 = Reg.zero;
              src2 = Reg.zero;
              target = Instr.Label "nowhere";
            };
          Instr.Halt;
        |];
      syms = [ { Vp_prog.Image.name = "main"; start = 0; len = 3 } ];
      entry = 0;
      orig_limit = 3;
      data_init = [];
      data_break = 0;
    }
  in
  let outcome = Vp_exec.Emulator.run_backend img in
  Alcotest.(check bool) "emulator completes" true
    outcome.Vp_exec.Emulator.halted;
  Alcotest.check_raises "pipeline rejects"
    (Vp_util.Error.Error
       {
         stage = "pipeline";
         what = "unresolved label nowhere in branch at 0x1";
         pc = Some 1;
         label = Some "nowhere";
         workload = None;
       })
    (fun () -> ignore (Pipeline.simulate img))

let test_speedup_ratio () =
  let img = Program.layout (Progs.sum_to_n 1000) in
  let s = Pipeline.simulate img in
  Alcotest.(check (float 1e-9)) "self speedup" 1.0
    (Pipeline.speedup ~baseline:s ~optimized:s)

(* The retire path must not allocate per instruction: a 10x longer
   simulation allocates the same constant amount (caches, predictor,
   decoded tables are per-call or memoized, not per-retirement). *)
let test_simulate_allocation_flat () =
  let img =
    Program.layout (Progs.two_phase ~iters_per_phase:100_000 ~repeats:2)
  in
  ignore (Pipeline.simulate ~fuel:1_000 img);
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let short = words (fun () -> ignore (Pipeline.simulate ~fuel:10_000 img)) in
  let long = words (fun () -> ignore (Pipeline.simulate ~fuel:100_000 img)) in
  Alcotest.(check bool)
    (Printf.sprintf "allocation flat (short %.0f, long %.0f)" short long)
    true
    (long -. short < 10_000.)

let prop_pipeline_cycles_at_least_instructions_over_width =
  QCheck.Test.make ~name:"cycles bounded below by width limit" ~count:20
    QCheck.(int_range 10 2000)
    (fun n ->
      let img = Program.layout (Progs.sum_to_n n) in
      let s = Pipeline.simulate img in
      s.Pipeline.cycles * Config.default.Config.issue_width >= s.Pipeline.instructions)

let () =
  Alcotest.run "vp_cpu"
    [
      ( "cache",
        [
          Alcotest.test_case "cold miss then hit" `Quick test_cache_cold_miss_then_hit;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "miss rate" `Quick test_cache_miss_rate;
        ] );
      ( "predictor",
        [
          Alcotest.test_case "gshare loop" `Quick test_gshare_learns_loop;
          Alcotest.test_case "gshare alternation" `Quick test_gshare_alternating_pattern;
          Alcotest.test_case "ras" `Quick test_ras_matches_calls;
          Alcotest.test_case "ras overflow" `Quick test_ras_overflow_wraps;
          Alcotest.test_case "btb" `Quick test_btb_install_and_hit;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "sanity" `Quick test_pipeline_basic_sanity;
          Alcotest.test_case "deterministic" `Quick test_pipeline_deterministic;
          Alcotest.test_case "monotone" `Quick test_pipeline_more_work_more_cycles;
          Alcotest.test_case "prediction quality" `Quick
            test_pipeline_biased_branches_predict_well;
          Alcotest.test_case "dependent chain slower" `Quick
            test_pipeline_dependent_chain_slower;
          Alcotest.test_case "speedup ratio" `Quick test_speedup_ratio;
          Alcotest.test_case "per-phase attribution" `Quick test_simulate_phases_partitions;
          Alcotest.test_case "rejects unresolved branch" `Quick
            test_pipeline_rejects_unresolved_branch;
          Alcotest.test_case "zero per-instruction allocation" `Quick
            test_simulate_allocation_flat;
          QCheck_alcotest.to_alcotest prop_pipeline_cycles_at_least_instructions_over_width;
        ] );
    ]
