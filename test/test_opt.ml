(* Tests for vp_opt: weight propagation, layout (branch flipping and
   hot chaining), and the list scheduler's dependence preservation. *)

module Instr = Vp_isa.Instr
module Op = Vp_isa.Op
module Reg = Vp_isa.Reg
module Pkg = Vp_package.Pkg
module Weights = Vp_opt.Weights
module Layout = Vp_opt.Layout_opt
module Schedule = Vp_opt.Schedule
module Opt = Vp_opt.Opt
module Program = Vp_prog.Program
module Emulator = Vp_exec.Emulator
module Progs = Vp_test_support.Progs

let t0 = Reg.of_int 8
let t1 = Reg.of_int 9
let t2 = Reg.of_int 10
let t3 = Reg.of_int 11

(* A small hand-built package: entry -> loop head -> body -> head,
   with a biased branch exiting to an exit block. *)
let block ?(orig = -1) ?(weight = 0) ?taken_prob ?(body = []) ?(exit_ = false)
    ?(live = []) label term =
  {
    Pkg.label;
    orig_addr = orig;
    context = [];
    body;
    term;
    weight;
    taken_prob;
    live_out = live;
    is_exit = exit_;
  }

let loop_package =
  {
    Pkg.id = "pkg$test";
    region_id = 0;
    root = "f";
    blocks =
      [
        block "entry" ~orig:0 (Pkg.Fall "head");
        block "head" ~orig:1 ~taken_prob:0.02
          (Pkg.Branch
             { cond = Op.Ge; src1 = t0; src2 = t1; taken = "exit0"; fall = "body" });
        block "body" ~orig:2
          ~body:[ Instr.Alu { op = Op.Add; dst = t2; src1 = t2; src2 = Instr.Reg t0 } ]
          (Pkg.Goto "head");
        block "exit0" ~exit_:true ~live:[ t2 ] (Pkg.Exit_jump 99);
      ];
    entries = [ ("entry", 0) ];
    sites =
      [
        {
          Pkg.orig_pc = 1;
          site_context = [];
          block_label = "head";
          bias = Pkg.F;
          cold_exit = Some "exit0";
          cold_target = Some 99;
        };
      ];
  }

let test_weights_entry_injection () =
  let w = Weights.compute loop_package in
  Alcotest.(check bool) "entry has weight" true (Weights.block w "entry" >= 1.0);
  (* The loop amplifies: head weight far above entry. *)
  Alcotest.(check bool) "loop amplified" true (Weights.block w "head" > 10.0);
  Alcotest.(check bool) "body close to head" true
    (Weights.block w "body" > 0.9 *. Weights.block w "head" *. 0.9)

let test_weights_arc_split () =
  let w = Weights.compute loop_package in
  let head = Weights.block w "head" in
  let to_exit = Weights.arc w "head" "exit0" in
  let to_body = Weights.arc w "head" "body" in
  Alcotest.(check (float 1e-6)) "split sums to head" head (to_exit +. to_body);
  Alcotest.(check bool) "cold exit lighter" true (to_exit < to_body)

let test_weights_unknown_label () =
  let w = Weights.compute loop_package in
  Alcotest.(check (float 1e-9)) "unknown is zero" 0.0 (Weights.block w "ghost")

let test_flip_branches () =
  let biased =
    {
      loop_package with
      Pkg.blocks =
        List.map
          (fun (b : Pkg.block) ->
            if b.Pkg.label = "head" then { b with Pkg.taken_prob = Some 0.9 } else b)
          loop_package.Pkg.blocks;
    }
  in
  let flipped = Layout.flip_branches biased in
  let head = Option.get (Pkg.find_block flipped "head") in
  (match head.Pkg.term with
  | Pkg.Branch { cond; taken; fall; _ } ->
    Alcotest.(check string) "condition negated" "lt" (Op.cond_name cond);
    Alcotest.(check string) "taken now body" "body" taken;
    Alcotest.(check string) "fall now exit" "exit0" fall
  | _ -> Alcotest.fail "head lost its branch");
  match head.Pkg.taken_prob with
  | Some p -> Alcotest.(check (float 1e-9)) "probability flipped" 0.1 p
  | None -> Alcotest.fail "taken_prob dropped"

let test_flip_leaves_unbiased () =
  let flipped = Layout.flip_branches loop_package in
  let head = Option.get (Pkg.find_block flipped "head") in
  match head.Pkg.term with
  | Pkg.Branch { taken; _ } -> Alcotest.(check string) "unchanged" "exit0" taken
  | _ -> Alcotest.fail "branch lost"

let test_layout_exits_sink () =
  let ordered = Layout.run loop_package in
  let last = List.nth ordered.Pkg.blocks (List.length ordered.Pkg.blocks - 1) in
  Alcotest.(check bool) "exit block last" true last.Pkg.is_exit;
  (* Same blocks, just reordered. *)
  Alcotest.(check int) "same count" (List.length loop_package.Pkg.blocks)
    (List.length ordered.Pkg.blocks)

let test_layout_hot_chain_adjacency () =
  let ordered = Layout.run loop_package in
  let labels = List.map (fun (b : Pkg.block) -> b.Pkg.label) ordered.Pkg.blocks in
  (* After flipping (head is ft-biased already), body should directly
     follow head so the hot arc falls through. *)
  let rec adjacent = function
    | "head" :: next :: _ -> next = "body"
    | _ :: rest -> adjacent rest
    | [] -> false
  in
  Alcotest.(check bool) "body follows head" true (adjacent labels)

(* --- scheduler --- *)

(* Reference evaluator for straight-line code over registers and a
   tiny memory. *)
let eval instrs =
  let regs = Array.make Reg.count 0 in
  Array.iteri (fun i _ -> regs.(i) <- i * 17) regs;
  regs.(0) <- 0;
  let mem = Array.make 64 5 in
  List.iter
    (fun i ->
      match i with
      | Instr.Alu { op; dst; src1; src2 } ->
        let b = match src2 with Instr.Reg r -> regs.(Reg.to_int r) | Instr.Imm n -> n in
        if Reg.to_int dst <> 0 then
          regs.(Reg.to_int dst) <- Op.eval_alu op regs.(Reg.to_int src1) b
      | Instr.Li { dst; imm } -> if Reg.to_int dst <> 0 then regs.(Reg.to_int dst) <- imm
      | Instr.Load { dst; base; offset } ->
        if Reg.to_int dst <> 0 then
          regs.(Reg.to_int dst) <- mem.((regs.(Reg.to_int base) + offset) land 63)
      | Instr.Store { src; base; offset } ->
        mem.((regs.(Reg.to_int base) + offset) land 63) <- regs.(Reg.to_int src)
      | _ -> invalid_arg "eval: control instruction")
    instrs;
  (Array.to_list regs, Array.to_list mem)

let random_straightline rng len =
  let module R = Vp_util.Rng in
  List.init len (fun _ ->
      let reg () = Reg.of_int (8 + R.int rng 8) in
      match R.int rng 5 with
      | 0 -> Instr.Li { dst = reg (); imm = R.int_in rng (-50) 50 }
      | 1 | 2 ->
        let ops = [| Op.Add; Op.Sub; Op.Mul; Op.Xor; Op.And; Op.Or |] in
        Instr.Alu
          {
            op = ops.(R.int rng 6);
            dst = reg ();
            src1 = reg ();
            src2 = (if R.bool rng 0.5 then Instr.Reg (reg ()) else Instr.Imm (R.int rng 20));
          }
      | 3 -> Instr.Load { dst = reg (); base = Reg.zero; offset = R.int rng 60 }
      | _ -> Instr.Store { src = reg (); base = Reg.zero; offset = R.int rng 60 })

let prop_schedule_preserves_semantics =
  QCheck.Test.make ~name:"scheduling preserves straight-line semantics" ~count:200
    QCheck.(pair (int_range 0 100_000) (int_range 0 40))
    (fun (seed, len) ->
      let rng = Vp_util.Rng.create ~seed in
      let body = random_straightline rng len in
      let scheduled = Schedule.schedule_body body in
      List.length scheduled = List.length body && eval body = eval scheduled)

let prop_schedule_is_permutation =
  QCheck.Test.make ~name:"schedule is a permutation" ~count:100
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Vp_util.Rng.create ~seed in
      let body = random_straightline rng 30 in
      let scheduled = Schedule.schedule_body body in
      List.sort compare (List.map Instr.to_string body)
      = List.sort compare (List.map Instr.to_string scheduled))

let test_schedule_hides_latency () =
  (* Two independent multiply chains interleave; in program order they
     are serialised one after the other. *)
  let chain dst =
    List.init 4 (fun _ ->
        Instr.Alu { op = Op.Mul; dst; src1 = dst; src2 = Instr.Imm 3 })
  in
  let body = chain t0 @ chain t1 in
  let before = Schedule.estimate_cycles body in
  let after = Schedule.estimate_cycles (Schedule.schedule_body body) in
  Alcotest.(check bool)
    (Printf.sprintf "compaction (%d -> %d)" before after)
    true (after <= before)

let test_schedule_store_load_order () =
  let body =
    [
      Instr.Li { dst = t0; imm = 42 };
      Instr.Store { src = t0; base = Reg.zero; offset = 7 };
      Instr.Load { dst = t1; base = Reg.zero; offset = 7 };
      Instr.Li { dst = t3; imm = 9 };
      Instr.Store { src = t3; base = Reg.zero; offset = 7 };
    ]
  in
  let scheduled = Schedule.schedule_body body in
  Alcotest.(check bool) "load result correct" true (eval body = eval scheduled)

(* --- exit sinking --- *)

module Sink = Vp_opt.Sink

(* A block computing two values: one feeds the branch (kept), one is
   live only across the exit (sunk). *)
let sink_package extra_body exit_live =
  {
    Pkg.id = "pkg$sink";
    region_id = 0;
    root = "f";
    blocks =
      [
        block "b" ~orig:0
          ~body:
            (extra_body
            @ [ Instr.Alu { op = Op.Add; dst = t3; src1 = t0; src2 = Instr.Imm 1 } ])
          (Pkg.Branch
             { cond = Op.Ge; src1 = t3; src2 = t0; taken = "ex"; fall = "next" });
        block "next" ~orig:5 Pkg.Return;
        block "ex" ~exit_:true ~live:exit_live (Pkg.Exit_jump 50);
      ];
    entries = [ ("b", 0) ];
    sites = [];
  }

let body_of p label = (Option.get (Pkg.find_block p label)).Pkg.body

let test_sink_moves_exit_only_value () =
  let p = sink_package [ Instr.Li { dst = t2; imm = 42 } ] [ t2 ] in
  let p', stats = Sink.run p in
  Alcotest.(check int) "one sunk" 1 stats.Sink.sunk;
  Alcotest.(check int) "none deleted" 0 stats.Sink.deleted;
  Alcotest.(check int) "hot body shrank" 1 (List.length (body_of p' "b"));
  (match body_of p' "ex" with
  | [ Instr.Li { imm = 42; _ } ] -> ()
  | _ -> Alcotest.fail "li not rematerialised at exit");
  (* The branch input stays. *)
  match body_of p' "b" with
  | [ Instr.Alu _ ] -> ()
  | _ -> Alcotest.fail "branch producer disturbed"

let test_sink_deletes_fully_dead () =
  let p = sink_package [ Instr.Li { dst = t2; imm = 7 } ] [] in
  let _, stats = Sink.run p in
  Alcotest.(check int) "deleted" 1 stats.Sink.deleted;
  Alcotest.(check int) "not sunk" 0 stats.Sink.sunk

let test_sink_dependency_chain () =
  let p =
    sink_package
      [
        Instr.Li { dst = t2; imm = 5 };
        Instr.Alu { op = Op.Mul; dst = t1; src1 = t2; src2 = Instr.Imm 3 };
      ]
      [ t1 ]
  in
  let p', stats = Sink.run p in
  Alcotest.(check int) "both sunk" 2 stats.Sink.sunk;
  match body_of p' "ex" with
  | [ Instr.Li _; Instr.Alu _ ] -> ()
  | _ -> Alcotest.fail "chain order lost at exit"

let test_sink_keeps_internally_live () =
  (* t2 is also consumed on the internal path (folded into the result
     register before a halt): it must not sink. *)
  let base = sink_package [ Instr.Li { dst = t2; imm = 9 } ] [ t2 ] in
  let p =
    {
      base with
      Pkg.blocks =
        List.map
          (fun (b : Pkg.block) ->
            if b.Pkg.label = "next" then
              {
                b with
                Pkg.body =
                  [
                    Instr.Alu
                      { op = Op.Add; dst = Reg.ret_value; src1 = t2; src2 = Instr.Imm 0 };
                  ];
                term = Pkg.Stop;
              }
            else b)
          base.Pkg.blocks;
    }
  in
  let _, stats = Sink.run p in
  Alcotest.(check int) "nothing sunk" 0 stats.Sink.sunk;
  Alcotest.(check int) "nothing deleted" 0 stats.Sink.deleted

let test_sink_end_to_end_equivalence () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:3000 ~repeats:3) in
  let d = Vp_hsd.Detector.create ~config:Vp_hsd.Config.tiny () in
  let orig =
    Emulator.run_backend
      ~on_branch:(fun ~pc ~taken -> Vp_hsd.Detector.on_branch d ~pc ~taken)
      img
  in
  let log = Vp_phase.Phase_log.build (Vp_hsd.Detector.snapshots d) in
  let pkgs =
    List.concat_map
      (fun (p : Vp_phase.Phase_log.phase) ->
        let region =
          Vp_region.Identify.identify img p.Vp_phase.Phase_log.representative
        in
        Vp_package.Build.build region
          ~prefix:(Printf.sprintf "pkg$p%d" p.Vp_phase.Phase_log.id))
      (Vp_phase.Phase_log.phases log)
  in
  let transform ~protected p = Opt.transform ~config:Opt.with_sinking ~protected p in
  let result = Vp_package.Emit.emit ~transform img pkgs in
  let rewritten = Emulator.run_backend result.Vp_package.Emit.image in
  Alcotest.(check int) "result" orig.Emulator.result rewritten.Emulator.result;
  Alcotest.(check int) "checksum" orig.Emulator.checksum rewritten.Emulator.checksum

(* --- superblock formation --- *)

module Superblock = Vp_opt.Superblock

let chain_package =
  {
    Pkg.id = "pkg$chain";
    region_id = 0;
    root = "f";
    blocks =
      [
        block "a" ~orig:0 ~body:[ Instr.Li { dst = t0; imm = 1 } ] (Pkg.Goto "b");
        block "b" ~orig:2 ~body:[ Instr.Li { dst = t1; imm = 2 } ] (Pkg.Fall "c");
        block "c" ~orig:4
          ~body:[ Instr.Alu { op = Op.Add; dst = t2; src1 = t0; src2 = Instr.Reg t1 } ]
          Pkg.Return;
      ];
    entries = [ ("a", 0) ];
    sites = [];
  }

let test_superblock_merges_chain () =
  let p, stats = Superblock.run chain_package in
  Alcotest.(check int) "two merges" 2 stats.Superblock.merged;
  Alcotest.(check int) "single block" 1 (List.length p.Pkg.blocks);
  let b = List.hd p.Pkg.blocks in
  Alcotest.(check string) "entry label survives" "a" b.Pkg.label;
  Alcotest.(check int) "bodies concatenated" 3 (List.length b.Pkg.body);
  match b.Pkg.term with
  | Pkg.Return -> ()
  | _ -> Alcotest.fail "terminator not inherited"

let test_superblock_respects_protected () =
  let p, stats = Superblock.run ~protected:[ "b" ] chain_package in
  Alcotest.(check int) "only c merged" 1 stats.Superblock.merged;
  Alcotest.(check int) "two blocks" 2 (List.length p.Pkg.blocks)

let test_superblock_no_merge_multiple_preds () =
  (* Two blocks jump to the same target: no merge. *)
  let p =
    {
      chain_package with
      Pkg.blocks =
        [
          block "a" ~orig:0
            (Pkg.Branch
               { cond = Op.Eq; src1 = t0; src2 = t1; taken = "c"; fall = "b" });
          block "b" ~orig:2 (Pkg.Goto "c");
          block "c" ~orig:4 Pkg.Return;
        ];
    }
  in
  let _, stats = Superblock.run p in
  Alcotest.(check int) "no merges" 0 stats.Superblock.merged

let hoist_package ~taken_live =
  (* a branches to exit (live set configurable) or falls into b, whose
     prefix computes into t2/t3. *)
  {
    Pkg.id = "pkg$hoist";
    region_id = 0;
    root = "f";
    blocks =
      [
        block "a" ~orig:0
          ~body:[ Instr.Li { dst = t0; imm = 3 } ]
          (Pkg.Branch
             { cond = Op.Ge; src1 = t0; src2 = t1; taken = "ex"; fall = "b" });
        block "b" ~orig:3
          ~body:
            [
              Instr.Li { dst = t2; imm = 9 };
              Instr.Alu { op = Op.Mul; dst = t3; src1 = t2; src2 = Instr.Imm 7 };
              Instr.Store { src = t3; base = Reg.zero; offset = 5 };
            ]
          Pkg.Return;
        block "ex" ~exit_:true ~live:taken_live (Pkg.Exit_jump 50);
      ];
    entries = [ ("a", 0) ];
    sites = [];
  }

let test_superblock_hoists_speculatively () =
  let p, stats = Superblock.run (hoist_package ~taken_live:[ t1 ]) in
  Alcotest.(check int) "two hoisted" 2 stats.Superblock.hoisted;
  let a = Option.get (Pkg.find_block p "a") in
  let b = Option.get (Pkg.find_block p "b") in
  Alcotest.(check int) "a grew" 3 (List.length a.Pkg.body);
  (* The store stays put: not pure. *)
  Alcotest.(check int) "b keeps the store" 1 (List.length b.Pkg.body)

let test_superblock_hoist_blocked_by_taken_liveness () =
  (* t2 live on the taken path: the prefix must not be speculated. *)
  let p, stats = Superblock.run (hoist_package ~taken_live:[ t2 ]) in
  Alcotest.(check int) "nothing hoisted" 0 stats.Superblock.hoisted;
  let a = Option.get (Pkg.find_block p "a") in
  Alcotest.(check int) "a unchanged" 1 (List.length a.Pkg.body)

let test_superblock_hoist_blocked_by_branch_sources () =
  (* The branch reads t2: a prefix defining t2 cannot move above it. *)
  let base = hoist_package ~taken_live:[] in
  let p =
    {
      base with
      Pkg.blocks =
        List.map
          (fun (b : Pkg.block) ->
            if b.Pkg.label = "a" then
              {
                b with
                Pkg.term =
                  Pkg.Branch
                    { cond = Op.Ge; src1 = t2; src2 = t1; taken = "ex"; fall = "b" };
              }
            else b)
          base.Pkg.blocks;
    }
  in
  let _, stats = Superblock.run p in
  Alcotest.(check int) "t2 def not hoisted" 0 stats.Superblock.hoisted

let test_opt_transform_end_to_end_equivalence () =
  (* The whole pipeline with aggressive optimization must compute the
     same results as with no optimization at all. *)
  let img = Program.layout (Progs.two_phase ~iters_per_phase:3000 ~repeats:3) in
  let with_config opt_config =
    let d = Vp_hsd.Detector.create ~config:Vp_hsd.Config.tiny () in
    let o = Emulator.run_backend ~on_branch:(fun ~pc ~taken -> Vp_hsd.Detector.on_branch d ~pc ~taken) img in
    let log = Vp_phase.Phase_log.build (Vp_hsd.Detector.snapshots d) in
    let pkgs =
      List.concat_map
        (fun (p : Vp_phase.Phase_log.phase) ->
          let region = Vp_region.Identify.identify img p.Vp_phase.Phase_log.representative in
          Vp_package.Build.build region
            ~prefix:(Printf.sprintf "pkg$p%d" p.Vp_phase.Phase_log.id))
        (Vp_phase.Phase_log.phases log)
    in
    let transform ~protected p = Opt.transform ~config:opt_config ~protected p in
    let result = Vp_package.Emit.emit ~transform img pkgs in
    (o, Emulator.run_backend result.Vp_package.Emit.image)
  in
  let orig, optimized = with_config Opt.default in
  let _, plain = with_config Opt.none in
  Alcotest.(check int) "optimized result" orig.Emulator.result optimized.Emulator.result;
  Alcotest.(check int) "optimized checksum" orig.Emulator.checksum optimized.Emulator.checksum;
  Alcotest.(check int) "plain checksum" orig.Emulator.checksum plain.Emulator.checksum

let () =
  Alcotest.run "vp_opt"
    [
      ( "weights",
        [
          Alcotest.test_case "entry injection" `Quick test_weights_entry_injection;
          Alcotest.test_case "arc split" `Quick test_weights_arc_split;
          Alcotest.test_case "unknown label" `Quick test_weights_unknown_label;
        ] );
      ( "layout",
        [
          Alcotest.test_case "flip branches" `Quick test_flip_branches;
          Alcotest.test_case "flip leaves unbiased" `Quick test_flip_leaves_unbiased;
          Alcotest.test_case "exits sink" `Quick test_layout_exits_sink;
          Alcotest.test_case "hot chain adjacency" `Quick test_layout_hot_chain_adjacency;
        ] );
      ( "schedule",
        [
          QCheck_alcotest.to_alcotest prop_schedule_preserves_semantics;
          QCheck_alcotest.to_alcotest prop_schedule_is_permutation;
          Alcotest.test_case "hides latency" `Quick test_schedule_hides_latency;
          Alcotest.test_case "store/load order" `Quick test_schedule_store_load_order;
          Alcotest.test_case "end-to-end equivalence" `Quick
            test_opt_transform_end_to_end_equivalence;
        ] );
      ( "superblock",
        [
          Alcotest.test_case "merges chains" `Quick test_superblock_merges_chain;
          Alcotest.test_case "respects protected" `Quick test_superblock_respects_protected;
          Alcotest.test_case "multiple preds" `Quick test_superblock_no_merge_multiple_preds;
          Alcotest.test_case "speculative hoist" `Quick test_superblock_hoists_speculatively;
          Alcotest.test_case "hoist vs taken liveness" `Quick
            test_superblock_hoist_blocked_by_taken_liveness;
          Alcotest.test_case "hoist vs branch sources" `Quick
            test_superblock_hoist_blocked_by_branch_sources;
        ] );
      ( "sink",
        [
          Alcotest.test_case "moves exit-only value" `Quick test_sink_moves_exit_only_value;
          Alcotest.test_case "deletes dead" `Quick test_sink_deletes_fully_dead;
          Alcotest.test_case "dependency chain" `Quick test_sink_dependency_chain;
          Alcotest.test_case "keeps internally live" `Quick test_sink_keeps_internally_live;
          Alcotest.test_case "end-to-end equivalence" `Quick test_sink_end_to_end_equivalence;
        ] );
    ]
