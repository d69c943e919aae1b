(* Tests for vp_package: pruning views, root selection, package
   construction with partial inlining, linking, emission — and the
   decisive property that a packaged binary computes exactly what the
   original computed. *)

module Instr = Vp_isa.Instr
module Op = Vp_isa.Op
module Program = Vp_prog.Program
module Image = Vp_prog.Image
module Cfg = Vp_cfg.Cfg
module Emulator = Vp_exec.Emulator
module Detector = Vp_hsd.Detector
module Config = Vp_hsd.Config
module Snapshot = Vp_hsd.Snapshot
module Phase_log = Vp_phase.Phase_log
module Identify = Vp_region.Identify
module Region = Vp_region.Region
module Prune = Vp_package.Prune
module Roots = Vp_package.Roots
module Build = Vp_package.Build
module Linking = Vp_package.Linking
module Pkg = Vp_package.Pkg
module Emit = Vp_package.Emit
module B = Vp_prog.Builder
module Progs = Vp_test_support.Progs

(* The full pipeline: profile with the tiny detector, filter phases,
   identify a region per phase, build and emit packages. *)
let pipeline ?(linking = true) ?(block_inference = true) img =
  let d = Detector.create ~config:Config.tiny () in
  let original =
    Emulator.run_backend ~on_branch:(fun ~pc ~taken -> Detector.on_branch d ~pc ~taken) img
  in
  let log = Phase_log.build (Detector.snapshots d) in
  let config = { Identify.default with Identify.block_inference } in
  let pkgs =
    List.concat_map
      (fun (p : Phase_log.phase) ->
        let region = Identify.identify ~config img p.Phase_log.representative in
        Build.build region ~prefix:(Printf.sprintf "pkg$p%d" p.Phase_log.id))
      (Phase_log.phases log)
  in
  let result = Emit.emit ~linking img pkgs in
  (original, log, pkgs, result)

(* A workload with a hot recursive function under a hot loop. *)
let recursive_workload () =
  let b = B.create () in
  B.func b "fact" ~nargs:1 (fun fb args ->
      let x = args.(0) in
      B.if_ fb (Op.Le, x, B.K 1)
        (fun () ->
          let one = B.vreg fb in
          B.li fb one 1;
          B.ret fb (Some one))
        (fun () ->
          let xm1 = B.vreg fb in
          B.alu fb Op.Sub xm1 x (B.K 1);
          let sub = B.call fb "fact" [ xm1 ] in
          let r = B.vreg fb in
          B.alu fb Op.Mul r x (B.V sub);
          B.ret fb (Some r)));
  B.func b "main" ~nargs:0 (fun fb _ ->
      let acc = B.vreg fb in
      let i = B.vreg fb in
      let n = B.vreg fb in
      B.li fb acc 0;
      B.for_ fb i ~from:(B.K 0) ~below:(B.K 500) (fun () ->
          B.alu fb Op.Rem n i (B.K 12);
          B.addi fb n n 2;
          let r = B.call fb "fact" [ n ] in
          B.alu fb Op.Add acc acc (B.V r);
          B.alu fb Op.And acc acc (B.K 0xFFFFFF));
      B.ret fb (Some acc);
      B.halt fb);
  Program.layout (B.program b ~entry:"main")

let check_equivalence name img =
  let original, _, pkgs, result = pipeline img in
  Alcotest.(check bool) (name ^ ": packages built") true (pkgs <> []);
  let rewritten = Emulator.run_backend result.Emit.image in
  Alcotest.(check bool) (name ^ ": halted") true rewritten.Emulator.halted;
  Alcotest.(check int) (name ^ ": same result") original.Emulator.result
    rewritten.Emulator.result;
  Alcotest.(check int) (name ^ ": same checksum") original.Emulator.checksum
    rewritten.Emulator.checksum;
  Alcotest.(check int) (name ^ ": same instruction order of magnitude")
    original.Emulator.instructions
    original.Emulator.instructions;
  rewritten

let test_rewrite_two_phase () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:3000 ~repeats:3) in
  let rewritten = check_equivalence "two_phase" img in
  (* The whole point: most execution migrates into packages. *)
  let coverage =
    Vp_util.Stats.pct rewritten.Emulator.package_instructions
      rewritten.Emulator.instructions
  in
  Alcotest.(check bool)
    (Printf.sprintf "coverage %.1f%% > 50%%" coverage)
    true (coverage > 50.0)

let test_rewrite_recursive () =
  let img = recursive_workload () in
  let rewritten = check_equivalence "recursive" img in
  Alcotest.(check bool) "some package execution" true
    (rewritten.Emulator.package_instructions > 0)

let test_rewrite_biased_branch () =
  let img = Program.layout (Progs.biased_branch ~iters:20000 ~bias_mod:10) in
  ignore (check_equivalence "biased" img)

let test_rewrite_without_linking () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:3000 ~repeats:3) in
  let original, _, _, result = pipeline ~linking:false img in
  let rewritten = Emulator.run_backend result.Emit.image in
  Alcotest.(check int) "same result" original.Emulator.result rewritten.Emulator.result;
  Alcotest.(check int) "same checksum" original.Emulator.checksum
    rewritten.Emulator.checksum

let test_rewrite_without_inference () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:3000 ~repeats:3) in
  let original, _, _, result = pipeline ~block_inference:false img in
  let rewritten = Emulator.run_backend result.Emit.image in
  Alcotest.(check int) "same result" original.Emulator.result rewritten.Emulator.result;
  Alcotest.(check int) "same checksum" original.Emulator.checksum
    rewritten.Emulator.checksum

let test_package_structure () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:3000 ~repeats:3) in
  let _, _, pkgs, result = pipeline img in
  List.iter
    (fun p ->
      Alcotest.(check bool) (p.Pkg.id ^ " has entries") true (p.Pkg.entries <> []);
      (* Exit blocks jump back into the original code range. *)
      List.iter
        (fun (b : Pkg.block) ->
          if b.Pkg.is_exit then
            match b.Pkg.term with
            | Pkg.Exit_jump a ->
              Alcotest.(check bool) "exit targets original range" true
                (a < img.Image.orig_limit)
            | Pkg.Goto _ -> ()  (* linked exit *)
            | _ -> Alcotest.fail "exit block with non-exit terminator")
        p.Pkg.blocks)
    pkgs;
  (* Launch patches land inside the original image. *)
  List.iter
    (fun (orig, target) ->
      Alcotest.(check bool) "patch in original" true (orig < img.Image.orig_limit);
      Alcotest.(check bool) "target in packages" true (target >= img.Image.orig_limit))
    result.Emit.launch_patches;
  Alcotest.(check bool) "at least one launch" true (result.Emit.launch_patches <> [])

let test_partial_inlining_happens () =
  let img = recursive_workload () in
  let _, _, pkgs, _ = pipeline img in
  (* Some package must contain an inlined call (fact into main's
     package, or fact into itself). *)
  let has_inline p =
    List.exists
      (fun (b : Pkg.block) ->
        match b.Pkg.term with Pkg.Inlined_call _ -> true | _ -> false)
      p.Pkg.blocks
  in
  Alcotest.(check bool) "inlining happened" true (List.exists has_inline pkgs);
  (* And the recursion must bottom out in a call back to original
     code. *)
  let has_call_orig p =
    List.exists
      (fun (b : Pkg.block) ->
        match b.Pkg.term with Pkg.Call_orig _ -> true | _ -> false)
      p.Pkg.blocks
  in
  Alcotest.(check bool) "recursion bottoms out via original call" true
    (List.exists has_call_orig pkgs)

let test_roots_self_recursive () =
  let img = recursive_workload () in
  let d = Detector.create ~config:Config.tiny () in
  let _ =
    Emulator.run_backend ~on_branch:(fun ~pc ~taken -> Detector.on_branch d ~pc ~taken) img
  in
  let log = Phase_log.build (Detector.snapshots d) in
  let phase = List.hd (Phase_log.phases log) in
  let region = Identify.identify img phase.Phase_log.representative in
  let roots = Roots.compute region in
  (match List.assoc_opt "fact" (Roots.roots roots) with
  | Some reasons ->
    Alcotest.(check bool) "fact self-recursive root" true
      (List.mem Roots.Self_recursive reasons)
  | None -> Alcotest.fail "fact is not a root");
  match List.assoc_opt "main" (Roots.roots roots) with
  | Some reasons ->
    Alcotest.(check bool) "main has no callers" true
      (List.mem Roots.No_callers reasons)
  | None -> Alcotest.fail "main is not a root"

let test_prune_view_consistency () =
  let img = recursive_workload () in
  let d = Detector.create ~config:Config.tiny () in
  let _ =
    Emulator.run_backend ~on_branch:(fun ~pc ~taken -> Detector.on_branch d ~pc ~taken) img
  in
  let log = Phase_log.build (Detector.snapshots d) in
  let phase = List.hd (Phase_log.phases log) in
  let region = Identify.identify img phase.Phase_log.representative in
  List.iter
    (fun (_, mf) ->
      let v = Prune.view mf in
      let hot = Prune.hot_blocks v in
      (* Internal succs and exits partition each hot block's succs. *)
      List.iter
        (fun b ->
          let internal = List.length (Prune.internal_succs v b) in
          let exits = List.length (Prune.exit_arcs_of v b) in
          let all = List.length (Cfg.succs (Prune.cfg v) b) in
          Alcotest.(check int) "partition" all (internal + exits))
        hot;
      (* Entry blocks are hot. *)
      List.iter
        (fun e -> Alcotest.(check bool) "entry hot" true (List.mem e hot))
        (Prune.entry_blocks v))
    (Region.funcs region)

(* Hand-built two-package root group exercising link resolution and
   application directly. *)
let mini_block ?(orig = -1) ?(exit_ = false) ?taken_prob label body term =
  {
    Pkg.label;
    orig_addr = orig;
    context = [];
    body;
    term;
    weight = 0;
    taken_prob;
    live_out = [];
    is_exit = exit_;
  }

let t0 = Vp_isa.Reg.of_int 8
let t1 = Vp_isa.Reg.of_int 9

(* Package specialised to the fall-through direction of the branch at
   original pc 100: the taken direction (original 300) exits. *)
let pkg_f =
  {
    Pkg.id = "pkgF";
    region_id = 0;
    root = "f";
    blocks =
      [
        mini_block ~orig:99 "pkgF$b" []
          (Pkg.Branch { cond = Op.Ge; src1 = t0; src2 = t1; taken = "pkgF$x"; fall = "pkgF$ft" });
        mini_block ~orig:200 "pkgF$ft" [] Pkg.Return;
        mini_block ~exit_:true "pkgF$x" [] (Pkg.Exit_jump 300);
      ];
    entries = [ ("pkgF$b", 99) ];
    sites =
      [
        {
          Pkg.orig_pc = 100;
          site_context = [];
          block_label = "pkgF$b";
          bias = Pkg.F;
          cold_exit = Some "pkgF$x";
          cold_target = Some 300;
        };
      ];
  }

(* The opposite specialisation: taken internal, fall-through exits. *)
let pkg_t =
  {
    Pkg.id = "pkgT";
    region_id = 1;
    root = "f";
    blocks =
      [
        mini_block ~orig:99 "pkgT$b" []
          (Pkg.Branch { cond = Op.Ge; src1 = t0; src2 = t1; taken = "pkgT$tk"; fall = "pkgT$x" });
        mini_block ~orig:300 "pkgT$tk" [] Pkg.Return;
        mini_block ~exit_:true "pkgT$x" [] (Pkg.Exit_jump 200);
      ];
    entries = [ ("pkgT$b", 99) ];
    sites =
      [
        {
          Pkg.orig_pc = 100;
          site_context = [];
          block_label = "pkgT$b";
          bias = Pkg.T;
          cold_exit = Some "pkgT$x";
          cold_target = Some 200;
        };
      ];
  }

let test_links_cross_specialisations () =
  let links = Linking.links_for_ordering [ pkg_f; pkg_t ] in
  Alcotest.(check int) "two links" 2 (List.length links);
  let find from = List.find (fun (l : Linking.link) -> l.Linking.from_pkg = from) links in
  let f_to = find "pkgF" in
  Alcotest.(check string) "F links to T's copy of 300" "pkgT" f_to.Linking.to_pkg;
  Alcotest.(check string) "target label" "pkgT$tk" f_to.Linking.to_label;
  let t_to = find "pkgT" in
  Alcotest.(check string) "T links to F's copy of 200" "pkgF" t_to.Linking.to_pkg;
  Alcotest.(check string) "target label" "pkgF$ft" t_to.Linking.to_label

let test_group_rank_and_apply () =
  let groups = Linking.group_packages [ pkg_f; pkg_t ] in
  (match groups with
  | [ g ] ->
    Alcotest.(check string) "single group" "f" g.Linking.root;
    (* Each package: 1 incoming link / 1 branch -> ratios 1.0, 1.0 ->
       rank 1 + 1*1 = 2. *)
    Alcotest.(check (float 1e-9)) "rank" 2.0 g.Linking.rank;
    let final = Linking.apply groups in
    List.iter
      (fun p ->
        let exit_block =
          List.find (fun (b : Pkg.block) -> b.Pkg.is_exit) p.Pkg.blocks
        in
        match exit_block.Pkg.term with
        | Pkg.Goto l ->
          Alcotest.(check bool)
            (p.Pkg.id ^ " exit retargeted across packages")
            true
            (String.length l > 4 && String.sub l 0 4 <> String.sub p.Pkg.id 0 4)
        | _ -> Alcotest.failf "%s exit not linked" p.Pkg.id)
      final
  | _ -> Alcotest.fail "expected one group")

let test_no_linking_keeps_exits () =
  let groups = Linking.group_packages ~linking:false [ pkg_f; pkg_t ] in
  List.iter
    (fun (g : Linking.group) -> Alcotest.(check int) "no links" 0 (List.length g.Linking.links))
    groups;
  let final = Linking.apply groups in
  List.iter
    (fun p ->
      let exit_block = List.find (fun (b : Pkg.block) -> b.Pkg.is_exit) p.Pkg.blocks in
      match exit_block.Pkg.term with
      | Pkg.Exit_jump _ -> ()
      | _ -> Alcotest.fail "exit disturbed without linking")
    final

let test_emit_leftmost_claims_launch () =
  (* Both packages enter at original address 99; the left-most package
     of the chosen ordering owns the patch. *)
  let img = Program.layout (Progs.sum_to_n 200) in
  (* Address 99 must exist in the image for the patch; sum_to_n 200 is
     tiny, so grow it artificially by picking a real address. *)
  let addr = img.Image.entry in
  let retarget p =
    {
      p with
      Pkg.entries = [ (fst (List.hd p.Pkg.entries), addr) ];
      blocks =
        List.map
          (fun (b : Pkg.block) ->
            match b.Pkg.term with
            | Pkg.Exit_jump _ -> { b with Pkg.term = Pkg.Exit_jump 0 }
            | _ -> b)
          p.Pkg.blocks;
    }
  in
  let result = Emit.emit img [ retarget pkg_f; retarget pkg_t ] in
  (match result.Emit.launch_patches with
  | [ (orig, target) ] ->
    Alcotest.(check int) "patched at shared entry" addr orig;
    (* The winner is the left-most package of the group's ordering. *)
    let first = List.hd (List.hd result.Emit.groups).Linking.ordered in
    (match Image.sym_at result.Emit.image target with
    | Some s -> Alcotest.(check string) "owner" first.Pkg.id s.Image.name
    | None -> Alcotest.fail "launch target outside packages")
  | l -> Alcotest.failf "expected one launch patch, got %d" (List.length l))

let test_rank_of_ratios_paper_example () =
  (* Figure 7(c): ratios 2/5, 2/5, 3/6 rank to 0.64. *)
  Alcotest.(check (float 1e-9)) "paper rank" 0.64
    (Linking.rank_of_ratios [ 0.4; 0.4; 0.5 ]);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Linking.rank_of_ratios []);
  Alcotest.(check (float 1e-9)) "single" 0.25 (Linking.rank_of_ratios [ 0.25 ])

let test_linearize_preserves_blocks () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:3000 ~repeats:3) in
  let _, _, pkgs, _ = pipeline img in
  List.iter
    (fun p ->
      let instrs = Emit.linearize p in
      (* Every non-exit block's body instructions appear in the
         stream. *)
      let body_count =
        List.fold_left (fun acc (b : Pkg.block) -> acc + List.length b.Pkg.body) 0
          p.Pkg.blocks
      in
      Alcotest.(check bool) "stream at least as long as bodies" true
        (List.length instrs >= body_count))
    pkgs

let test_emit_image_validates () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:3000 ~repeats:3) in
  let _, _, _, result = pipeline img in
  match Image.validate result.Emit.image with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_code_expansion_is_moderate () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:3000 ~repeats:3) in
  let _, _, _, result = pipeline img in
  let orig = Image.size img in
  let expansion = Vp_util.Stats.pct result.Emit.package_instructions orig in
  (* Small phased programs replicate their hot loops; the expansion
     must stay well below whole-program duplication. *)
  Alcotest.(check bool)
    (Printf.sprintf "expansion %.1f%% < 100%%" expansion)
    true (expansion < 100.0)

let test_append_many_linear_time () =
  (* Regression for the quadratic append path: growing an image by ~1k
     package sections must stay cheap.  The old per-section [append]
     recopied the whole code array and the whole symbol list each
     time. *)
  let img = Program.layout (Progs.sum_to_n 100) in
  let sections =
    List.init 1000 (fun i ->
        (Printf.sprintf "sec%04d" i, Array.make 64 Instr.Halt))
  in
  let t0 = Sys.time () in
  let grown, starts = Image.append_many img sections in
  let elapsed = Sys.time () -. t0 in
  Alcotest.(check int) "all sections placed" 1000 (List.length starts);
  (match Image.validate grown with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  List.iteri
    (fun i s ->
      Alcotest.(check int)
        (Printf.sprintf "section %d contiguous" i)
        (Image.size img + (64 * i))
        s)
    starts;
  (* Singleton batches agree with the one-at-a-time interface. *)
  let one, start = Image.append img ~name:"solo" (Array.make 8 Instr.Halt) in
  Alcotest.(check int) "append start" (Image.size img) start;
  Alcotest.(check int) "append size" (Image.size img + 8) (Image.size one);
  Alcotest.(check bool)
    (Printf.sprintf "1000 sections appended in %.3f s" elapsed)
    true (elapsed < 1.0)

(* Eight packages sharing one root: past the exhaustive-search cap of
   six, [group_packages] must fall back to the greedy rank-based
   ordering instead of silently keeping input order.  Even-numbered
   packages specialise the fall-through direction (hot copy of 200,
   cold exit to 300); odd ones the taken direction — so every link
   crosses parities, and the all-evens-first input order ranks 4.0
   while interleavings rank strictly higher. *)
let mk_link_pkg i =
  let id = Printf.sprintf "pkg%d" i in
  let f_side = i mod 2 = 0 in
  let hot_orig = if f_side then 200 else 300 in
  let cold_target = if f_side then 300 else 200 in
  let b = id ^ "$b" and hot = id ^ "$h" and x = id ^ "$x" in
  {
    Pkg.id;
    region_id = i;
    root = "f";
    blocks =
      [
        mini_block ~orig:99 b []
          (Pkg.Branch
             {
               cond = Op.Ge;
               src1 = t0;
               src2 = t1;
               taken = (if f_side then x else hot);
               fall = (if f_side then hot else x);
             });
        mini_block ~orig:hot_orig hot [] Pkg.Return;
        mini_block ~exit_:true x [] (Pkg.Exit_jump cold_target);
      ];
    entries = [ (b, 99) ];
    sites =
      [
        {
          Pkg.orig_pc = 100;
          site_context = [];
          block_label = b;
          bias = (if f_side then Pkg.F else Pkg.T);
          cold_exit = Some x;
          cold_target = Some cold_target;
        };
      ];
  }

let test_large_group_greedy_fallback () =
  let pkgs = List.map mk_link_pkg [ 0; 2; 4; 6; 1; 3; 5; 7 ] in
  match Linking.group_packages pkgs with
  | [ g ] ->
    Alcotest.(check string) "root" "f" g.Linking.root;
    Alcotest.(check (list string))
      "ordering is a permutation of the input"
      (List.sort compare (List.map (fun (p : Pkg.t) -> p.Pkg.id) pkgs))
      (List.sort compare (List.map (fun (p : Pkg.t) -> p.Pkg.id) g.Linking.ordered));
    Alcotest.(check int) "every site linked" 8 (List.length g.Linking.links);
    let parity id = int_of_string (String.sub id 3 1) mod 2 in
    List.iter
      (fun (l : Linking.link) ->
        Alcotest.(check bool) "link crosses specialisations" true
          (parity l.Linking.from_pkg <> parity l.Linking.to_pkg))
      g.Linking.links;
    Alcotest.(check bool)
      (Printf.sprintf "greedy rank %.2f beats input order's 4.0" g.Linking.rank)
      true
      (g.Linking.rank > 4.0);
    let final = Linking.apply [ g ] in
    List.iter
      (fun (p : Pkg.t) ->
        let exit_block =
          List.find (fun (b : Pkg.block) -> b.Pkg.is_exit) p.Pkg.blocks
        in
        match exit_block.Pkg.term with
        | Pkg.Goto l ->
          Alcotest.(check bool)
            (p.Pkg.id ^ " exit retargeted cross-package")
            true
            (String.sub l 0 (String.index l '$') <> p.Pkg.id)
        | _ -> Alcotest.failf "%s exit not linked" p.Pkg.id)
      final
  | gs -> Alcotest.failf "expected one group, got %d" (List.length gs)

let prop_rewrite_equivalence_random =
  QCheck.Test.make ~name:"rewritten binaries compute identical results" ~count:10
    QCheck.(pair (int_range 500 2500) (int_range 2 4))
    (fun (iters, repeats) ->
      let img = Program.layout (Progs.two_phase ~iters_per_phase:iters ~repeats) in
      let original, _, _, result = pipeline img in
      let rewritten = Emulator.run_backend result.Emit.image in
      rewritten.Emulator.halted
      && original.Emulator.result = rewritten.Emulator.result
      && original.Emulator.checksum = rewritten.Emulator.checksum)

let () =
  Alcotest.run "vp_package"
    [
      ( "rewrite",
        [
          Alcotest.test_case "two-phase equivalence" `Quick test_rewrite_two_phase;
          Alcotest.test_case "recursive equivalence" `Quick test_rewrite_recursive;
          Alcotest.test_case "biased-branch equivalence" `Quick test_rewrite_biased_branch;
          Alcotest.test_case "without linking" `Quick test_rewrite_without_linking;
          Alcotest.test_case "without inference" `Quick test_rewrite_without_inference;
          QCheck_alcotest.to_alcotest prop_rewrite_equivalence_random;
        ] );
      ( "structure",
        [
          Alcotest.test_case "package structure" `Quick test_package_structure;
          Alcotest.test_case "partial inlining" `Quick test_partial_inlining_happens;
          Alcotest.test_case "roots" `Quick test_roots_self_recursive;
          Alcotest.test_case "prune views" `Quick test_prune_view_consistency;
          Alcotest.test_case "linearize" `Quick test_linearize_preserves_blocks;
          Alcotest.test_case "emit validates" `Quick test_emit_image_validates;
          Alcotest.test_case "expansion moderate" `Quick test_code_expansion_is_moderate;
        ] );
      ( "linking",
        [
          Alcotest.test_case "rank formula" `Quick test_rank_of_ratios_paper_example;
          Alcotest.test_case "cross links" `Quick test_links_cross_specialisations;
          Alcotest.test_case "group rank and apply" `Quick test_group_rank_and_apply;
          Alcotest.test_case "no linking keeps exits" `Quick test_no_linking_keeps_exits;
          Alcotest.test_case "leftmost claims launch" `Quick test_emit_leftmost_claims_launch;
          Alcotest.test_case "greedy fallback past cap" `Quick
            test_large_group_greedy_fallback;
        ] );
      ( "emit",
        [
          Alcotest.test_case "append 1k sections fast" `Quick
            test_append_many_linear_time;
        ] );
    ]
