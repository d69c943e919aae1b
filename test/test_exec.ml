(* Tests for vp_exec: architectural semantics end-to-end through the
   builder, layout and emulator. *)

module Program = Vp_prog.Program
module Image = Vp_prog.Image
module Emulator = Vp_exec.Emulator
module State = Vp_exec.State
module Progs = Vp_test_support.Progs

let run p = Emulator.run_backend (Program.layout p)

let test_sum_loop () =
  let o = run (Progs.sum_to_n 100) in
  Alcotest.(check bool) "halted" true o.Emulator.halted;
  Alcotest.(check int) "sum 0..99" 4950 o.Emulator.result

let test_sum_zero_iterations () =
  let o = run (Progs.sum_to_n 0) in
  Alcotest.(check int) "empty loop" 0 o.Emulator.result

let test_factorial_recursion () =
  let o = run (Progs.factorial 10) in
  Alcotest.(check int) "10!" 3628800 o.Emulator.result

let test_factorial_base_case () =
  let o = run (Progs.factorial 1) in
  Alcotest.(check int) "1!" 1 o.Emulator.result

let test_deep_recursion_stack () =
  let o = run (Progs.factorial 200) in
  (* The value overflows; what matters is that 200 nested frames work. *)
  Alcotest.(check bool) "halted" true o.Emulator.halted

let test_call_chain () =
  let o = run (Progs.call_chain 5) in
  (* gamma: 5+100=105; beta: 210; alpha: 211 *)
  Alcotest.(check int) "chained" 211 o.Emulator.result

let test_spill_correctness () =
  let o = run (Progs.spill_heavy 30) in
  Alcotest.(check int) "sum with spills" (30 * 31 / 2) o.Emulator.result

let test_global_rw () =
  let o = run (Progs.global_rw ()) in
  Alcotest.(check int) "globals" (2 * (5 + 6 + 7)) o.Emulator.result

let test_two_phase_runs () =
  let o = run (Progs.two_phase ~iters_per_phase:50 ~repeats:3) in
  Alcotest.(check bool) "halted" true o.Emulator.halted;
  Alcotest.(check bool) "substantial work" true (o.Emulator.instructions > 1000)

let test_fuel_exhaustion () =
  (* An infinite loop: while (0 == 0). *)
  let module B = Vp_prog.Builder in
  let b = B.create () in
  B.func b "main" ~nargs:0 (fun fb _ ->
      let z = B.vreg fb in
      B.li fb z 0;
      B.while_ fb (fun () -> (Vp_isa.Op.Eq, z, B.K 0)) (fun () -> ());
      B.halt fb);
  let o = Emulator.run_backend ~fuel:10_000 (Program.layout (B.program b ~entry:"main")) in
  Alcotest.(check bool) "not halted" false o.Emulator.halted;
  Alcotest.(check int) "fuel consumed" 10_000 o.Emulator.instructions

let test_memory_fault () =
  let module B = Vp_prog.Builder in
  let b = B.create () in
  B.func b "main" ~nargs:0 (fun fb _ ->
      let v = B.vreg fb in
      B.load_abs fb v 999_999_999;
      B.halt fb);
  let img = Program.layout (B.program b ~entry:"main") in
  Alcotest.(check bool) "fault raised" true
    (try
       ignore (Emulator.run_backend img);
       false
     with State.Fault _ -> true)

(* Builder control-flow surface not exercised by the shared programs:
   break/continue, raw labels and frame locals. *)
let test_builder_break_continue () =
  let module B = Vp_prog.Builder in
  let module Op = Vp_isa.Op in
  let b = B.create () in
  B.func b "main" ~nargs:0 (fun fb _ ->
      let acc = B.vreg fb in
      let i = B.vreg fb in
      let m = B.vreg fb in
      B.li fb acc 0;
      B.for_ fb i ~from:(B.K 0) ~below:(B.K 100) (fun () ->
          B.when_ fb (Op.Eq, i, B.K 7) (fun () -> B.break_ fb);
          B.alu fb Op.Rem m i (B.K 2);
          B.when_ fb (Op.Eq, m, B.K 0) (fun () -> B.continue_ fb);
          B.alu fb Op.Add acc acc (B.V i));
      B.ret fb (Some acc);
      B.halt fb);
  let o = Emulator.run_backend (Program.layout (B.program b ~entry:"main")) in
  (* Odd values below 7: 1 + 3 + 5. *)
  Alcotest.(check int) "break/continue semantics" 9 o.Emulator.result

let test_builder_raw_labels () =
  (* An irregular shape built from goto/branch/place_label: a bottom-
     tested loop. *)
  let module B = Vp_prog.Builder in
  let module Op = Vp_isa.Op in
  let b = B.create () in
  B.func b "main" ~nargs:0 (fun fb _ ->
      let acc = B.vreg fb in
      let i = B.vreg fb in
      B.li fb acc 0;
      B.li fb i 0;
      let head = B.new_label fb in
      B.place_label fb head;
      B.alu fb Op.Add acc acc (B.V i);
      B.addi fb i i 1;
      B.branch fb (Op.Lt, i, B.K 10) head;
      let out = B.new_label fb in
      B.goto fb out;
      (* Dead code the goto skips. *)
      B.li fb acc 999;
      B.place_label fb out;
      B.ret fb (Some acc);
      B.halt fb);
  let o = Emulator.run_backend (Program.layout (B.program b ~entry:"main")) in
  Alcotest.(check int) "bottom-tested loop" 45 o.Emulator.result

let test_builder_frame_locals () =
  let module B = Vp_prog.Builder in
  let module Op = Vp_isa.Op in
  let b = B.create () in
  B.func b "main" ~nargs:0 (fun fb _ ->
      let buf = B.local fb ~words:8 in
      let base = B.vreg fb in
      let i = B.vreg fb in
      let v = B.vreg fb in
      let acc = B.vreg fb in
      B.local_addr fb base buf;
      B.for_ fb i ~from:(B.K 0) ~below:(B.K 8) (fun () ->
          B.alu fb Op.Mul v i (B.V i);
          B.alu fb Op.Add v v (B.K 1);
          let slot = B.vreg fb in
          B.alu fb Op.Add slot base (B.V i);
          B.store fb v ~base:slot ~off:0);
      B.li fb acc 0;
      B.for_ fb i ~from:(B.K 0) ~below:(B.K 8) (fun () ->
          let slot = B.vreg fb in
          B.alu fb Op.Add slot base (B.V i);
          B.load fb v ~base:slot ~off:0;
          B.alu fb Op.Add acc acc (B.V v));
      B.ret fb (Some acc);
      B.halt fb);
  let o = Emulator.run_backend (Program.layout (B.program b ~entry:"main")) in
  (* sum of i^2 + 1 for i in 0..7 = 140 + 8. *)
  Alcotest.(check int) "frame-local array" 148 o.Emulator.result

let test_branch_observation () =
  let img = Program.layout (Progs.biased_branch ~iters:1000 ~bias_mod:10) in
  let seen = ref 0 in
  let taken_count = ref 0 in
  let o =
    Emulator.run_backend
      ~on_branch:(fun ~pc:_ ~taken ->
        incr seen;
        if taken then incr taken_count)
      img
  in
  Alcotest.(check int) "observer count matches outcome" o.Emulator.cond_branches !seen;
  Alcotest.(check bool) "some taken" true (!taken_count > 0);
  Alcotest.(check bool) "some not taken" true (!taken_count < !seen)

let test_aggregate_profile_bias () =
  let img = Program.layout (Progs.biased_branch ~iters:1000 ~bias_mod:10) in
  let profile = Emulator.aggregate_branch_profile img in
  (* Find the if-branch: it executes 1000 times, taken 900 (the 'else'
     arm is the common direction). *)
  let found = ref false in
  Vp_exec.Branch_profile.iter
    (fun ~pc:_ ~executed ~taken ->
      if executed = 1000 && taken = 900 then found := true)
    profile;
  Alcotest.(check bool) "biased branch profiled" true !found

(* The retire channel on every backend: one retirement per retired
   instruction, and each retirement's next_pc is the next one's pc (the
   last one's is the halt address). *)
let test_retire_stream_consistency () =
  let img = Program.layout (Progs.sum_to_n 20) in
  List.iter
    (fun backend ->
      let tag what = Emulator.backend_name backend ^ ": " ^ what in
      let retired = ref 0 in
      let expected_pc = ref img.Image.entry in
      let on_retire ~pc ~taken:_ ~next_pc ~mem_addr:_ =
        incr retired;
        Alcotest.(check int) (tag "pc chain") !expected_pc pc;
        expected_pc := next_pc
      in
      let o = Emulator.run_backend ~backend ~on_retire img in
      Alcotest.(check int)
        (tag "one retirement per instruction")
        o.Emulator.instructions !retired;
      Alcotest.(check int) (tag "last next_pc") State.halt_address !expected_pc)
    Emulator.all_backends

let test_package_instruction_accounting () =
  (* Redirect the entry through appended code and check the counters. *)
  let img = Program.layout (Progs.sum_to_n 5) in
  let entry_instr = Image.fetch img img.Image.entry in
  let img2, base =
    Image.append img ~name:"pkg" [| entry_instr; Vp_isa.Instr.Jmp { target = Vp_isa.Instr.Addr (img.Image.entry + 1) } |]
  in
  let img3 =
    Image.patch img2 [ (img2.Image.entry, Vp_isa.Instr.Jmp { target = Vp_isa.Instr.Addr base }) ]
  in
  let o = Emulator.run_backend img3 in
  Alcotest.(check bool) "halted" true o.Emulator.halted;
  Alcotest.(check int) "package instructions" 2 o.Emulator.package_instructions

let test_checksum_stability () =
  let a = run (Progs.two_phase ~iters_per_phase:20 ~repeats:2) in
  let b = run (Progs.two_phase ~iters_per_phase:20 ~repeats:2) in
  Alcotest.(check int) "deterministic checksum" a.Emulator.checksum b.Emulator.checksum;
  let c = run (Progs.two_phase ~iters_per_phase:21 ~repeats:2) in
  Alcotest.(check bool) "different program, different checksum" true
    (a.Emulator.checksum <> c.Emulator.checksum)

(* ------------------------------------------------------------------ *)
(* The decoded form. *)

module Decode = Vp_exec.Decode
module Instr = Vp_isa.Instr
module Reg = Vp_isa.Reg

let test_decode_tables_match_instr () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:5 ~repeats:2) in
  let d = Decode.of_image img in
  Alcotest.(check int) "size" (Array.length img.Image.code) (Decode.size d);
  Array.iteri
    (fun pc i ->
      let regs l = List.map Reg.to_int l in
      Alcotest.(check (list int))
        (Printf.sprintf "uses at pc %d" pc)
        (regs (Instr.uses i))
        (regs (Decode.uses_pc d pc));
      Alcotest.(check (list int))
        (Printf.sprintf "defs at pc %d" pc)
        (regs (Instr.defs i))
        (regs (Decode.defs_pc d pc));
      Alcotest.(check int)
        (Printf.sprintf "latency at pc %d" pc)
        (Instr.latency i) d.Decode.latency.(pc);
      Alcotest.(check bool)
        (Printf.sprintf "fu at pc %d" pc)
        true
        (Instr.fu i = d.Decode.fu.(pc)))
    img.Image.code

let test_decode_memoizes_on_identity () =
  let img = Program.layout (Progs.sum_to_n 10) in
  let d1 = Decode.of_image img in
  let d2 = Decode.of_image img in
  Alcotest.(check bool) "same physical image, same decode" true (d1 == d2)

(* Unresolved [Label] targets must fault lazily — exactly when the
   instruction executes and (for branches) only when taken, matching
   the boxed interpreter's behaviour. *)
let unresolved_branch_image ~taken =
  let r = Reg.of_int 8 in
  {
    Image.code =
      [|
        Instr.Li { dst = r; imm = (if taken then 0 else 1) };
        Instr.Br
          {
            cond = Vp_isa.Op.Eq;
            src1 = r;
            src2 = Reg.zero;
            target = Instr.Label "nowhere";
          };
        Instr.Halt;
      |];
    syms = [ { Image.name = "main"; start = 0; len = 3 } ];
    entry = 0;
    orig_limit = 3;
    data_init = [];
    data_break = 0;
  }

let test_unresolved_branch_not_taken_runs () =
  let o = Emulator.run_backend (unresolved_branch_image ~taken:false) in
  Alcotest.(check bool) "halted" true o.Emulator.halted;
  Alcotest.(check int) "branch counted" 1 o.Emulator.cond_branches

let test_unresolved_branch_taken_faults () =
  Alcotest.check_raises "taken unresolved branch"
    (Vp_util.Error.Error
       {
         stage = "emulator";
         what = "unresolved label nowhere";
         pc = None;
         label = Some "nowhere";
         workload = None;
       }) (fun () ->
      ignore (Emulator.run_backend (unresolved_branch_image ~taken:true)))

let test_unresolved_jmp_faults () =
  let img =
    {
      Image.code = [| Instr.Jmp { target = Instr.Label "gone" }; Instr.Halt |];
      syms = [ { Image.name = "main"; start = 0; len = 2 } ];
      entry = 0;
      orig_limit = 2;
      data_init = [];
      data_break = 0;
    }
  in
  Alcotest.check_raises "unresolved jmp"
    (Vp_util.Error.Error
       {
         stage = "emulator";
         what = "unresolved label gone";
         pc = None;
         label = Some "gone";
         workload = None;
       }) (fun () ->
      ignore (Emulator.run_backend img))

(* The hot loop must not allocate per retired instruction: minor-heap
   allocation for a 10x longer run stays flat (the decoded form is
   memoized, the memory array comes from the arena, and the loop's
   scratch is unboxed). *)
let minor_words_during f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_run_allocation_flat () =
  let img =
    Program.layout (Progs.two_phase ~iters_per_phase:100_000 ~repeats:2)
  in
  (* Warm the decode memo and the state arena. *)
  ignore (Emulator.run_backend ~fuel:1_000 img);
  let short = minor_words_during (fun () -> ignore (Emulator.run_backend ~fuel:10_000 img)) in
  let long =
    minor_words_during (fun () -> ignore (Emulator.run_backend ~fuel:100_000 img))
  in
  (* 90k extra instructions; even one boxed word each would show up as
     ~90k words.  Allow generous constant slack. *)
  Alcotest.(check bool)
    (Printf.sprintf "allocation flat (short %.0f, long %.0f)" short long)
    true
    (long -. short < 10_000.)

let prop_random_programs_halt =
  QCheck.Test.make ~name:"random arithmetic programs halt deterministically" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let img = Program.layout (Progs.random_arith ~seed) in
      let a = Emulator.run_backend img in
      let b = Emulator.run_backend img in
      a.Emulator.halted && a.Emulator.checksum = b.Emulator.checksum
      && a.Emulator.result = b.Emulator.result)

let prop_spill_sum_matches_closed_form =
  QCheck.Test.make ~name:"spill-heavy sums match closed form" ~count:20
    QCheck.(int_range 1 30)
    (fun n ->
      let o = Emulator.run_backend (Program.layout (Progs.spill_heavy n)) in
      o.Emulator.result = n * (n + 1) / 2)

(* ------------------------------------------------------------------ *)
(* Compiled backend: block partitioning, memoization, fuel-boundary
   parity with the decoded oracle, and allocation flatness of the
   threaded-code retire loop. *)

let test_compile_memoizes_on_identity () =
  let img = Program.layout (Progs.sum_to_n 10) in
  let c1 = Vp_exec.Compile.of_image img in
  let c2 = Vp_exec.Compile.of_image img in
  Alcotest.(check bool) "same physical image, same compile" true (c1 == c2)

let test_compile_blocks_partition_image () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:10 ~repeats:2) in
  let c = Vp_exec.Compile.of_image img in
  let n = Array.length img.Image.code in
  let nb = Vp_exec.Compile.block_count c in
  Alcotest.(check bool) "has blocks" true (nb > 0);
  let covered = Array.make n 0 in
  for b = 0 to nb - 1 do
    let start, len = Vp_exec.Compile.block_bounds c b in
    Alcotest.(check bool)
      (Printf.sprintf "block %d in range" b)
      true
      (start >= 0 && len > 0 && start + len <= n);
    Alcotest.(check int)
      (Printf.sprintf "leader of block %d maps back" b)
      b
      (Vp_exec.Compile.block_of_pc c start);
    for pc = start to start + len - 1 do
      covered.(pc) <- covered.(pc) + 1;
      if pc > start then
        Alcotest.(check int)
          (Printf.sprintf "pc %d is mid-block" pc)
          (-1)
          (Vp_exec.Compile.block_of_pc c pc)
    done
  done;
  Array.iteri
    (fun pc k ->
      Alcotest.(check int)
        (Printf.sprintf "pc %d covered exactly once" pc)
        1 k)
    covered

(* Every fuel value from 0 up past the program's full length: each one
   lands the cutoff somewhere else relative to the block boundaries, so
   this sweeps the per-block fast path, the boundary interpreter and
   the exhaustion edge against the decoded core. *)
let test_compiled_fuel_boundary_parity () =
  let img = Program.layout (Progs.factorial 8) in
  let run backend ~fuel = Emulator.run_backend ~backend ~fuel img in
  let full = (Emulator.run_backend img).Emulator.instructions in
  for fuel = 0 to full + 5 do
    let a = run Emulator.Decoded ~fuel in
    let b = run Emulator.Compiled ~fuel in
    let tag what = Printf.sprintf "fuel %d: %s" fuel what in
    Alcotest.(check int) (tag "instructions") a.Emulator.instructions
      b.Emulator.instructions;
    Alcotest.(check int) (tag "cond branches") a.Emulator.cond_branches
      b.Emulator.cond_branches;
    Alcotest.(check bool) (tag "halted") a.Emulator.halted b.Emulator.halted;
    Alcotest.(check int) (tag "checksum") a.Emulator.checksum
      b.Emulator.checksum;
    Alcotest.(check int) (tag "final pc") a.Emulator.final_pc
      b.Emulator.final_pc
  done

let test_compiled_unresolved_branch_parity () =
  let o =
    Emulator.run_backend ~backend:Emulator.Compiled
      (unresolved_branch_image ~taken:false)
  in
  Alcotest.(check bool) "halted" true o.Emulator.halted;
  Alcotest.(check int) "branch counted" 1 o.Emulator.cond_branches;
  Alcotest.check_raises "taken unresolved branch"
    (Vp_util.Error.Error
       {
         stage = "emulator";
         what = "unresolved label nowhere";
         pc = None;
         label = Some "nowhere";
         workload = None;
       }) (fun () ->
      ignore
        (Emulator.run_backend ~backend:Emulator.Compiled
           (unresolved_branch_image ~taken:true)))

let test_compiled_allocation_flat () =
  let img =
    Program.layout (Progs.two_phase ~iters_per_phase:100_000 ~repeats:2)
  in
  let run fuel = ignore (Emulator.run_backend ~backend:Emulator.Compiled ~fuel img) in
  (* Warm the compile memo and the state arena. *)
  run 1_000;
  let short = minor_words_during (fun () -> run 10_000) in
  let long = minor_words_during (fun () -> run 100_000) in
  Alcotest.(check bool)
    (Printf.sprintf "compiled allocation flat (short %.0f, long %.0f)" short
       long)
    true
    (long -. short < 10_000.)

(* Same flatness with the observed compiled variant driving both
   observer channels — the fused sink passes unboxed labeled ints, so
   attaching observers must not reintroduce per-retirement boxing. *)
let test_compiled_observed_allocation_flat () =
  let img =
    Program.layout (Progs.two_phase ~iters_per_phase:100_000 ~repeats:2)
  in
  let branches = ref 0 in
  let retired = ref 0 in
  let on_branch ~pc:_ ~taken:_ = incr branches in
  let on_retire ~pc:_ ~taken:_ ~next_pc:_ ~mem_addr:_ = incr retired in
  let run fuel =
    ignore
      (Emulator.run_backend ~backend:Emulator.Compiled ~fuel ~on_branch
         ~on_retire img)
  in
  run 1_000;
  let short = minor_words_during (fun () -> run 10_000) in
  let long = minor_words_during (fun () -> run 100_000) in
  Alcotest.(check bool)
    (Printf.sprintf "observed compiled allocation flat (short %.0f, long %.0f)"
       short long)
    true
    (long -. short < 10_000.);
  Alcotest.(check bool) "observers fired" true (!branches > 0 && !retired > 0)

(* ------------------------------------------------------------------ *)
(* [run_slice]: chaining slices over one external state at arbitrary
   fuel cuts is the same run as one [run_backend], on every backend —
   outcome counters, final state and both observation streams. *)

let stream_digest () =
  (* FNV-1a folded into OCaml's 63-bit native int (basis truncated). *)
  let h = ref 0x3bf29ce484222325 in
  (h, fun x -> h := (!h lxor x) * 0x100000001b3)

let observed_run run =
  let branches, mix_branch = stream_digest () in
  let retires, mix_retire = stream_digest () in
  let on_branch ~pc ~taken =
    mix_branch pc;
    mix_branch (Bool.to_int taken)
  in
  let on_retire ~pc ~taken ~next_pc ~mem_addr =
    mix_retire pc;
    mix_retire (Bool.to_int taken);
    mix_retire next_pc;
    mix_retire mem_addr
  in
  let o = run ~on_branch ~on_retire in
  (o, !branches, !retires)

let test_slice_chaining () =
  (* A rewritten image, so package instructions are part of the run. *)
  let original = Program.layout (Progs.two_phase ~iters_per_phase:3000 ~repeats:3) in
  let config = Vacuum.Config.with_detector Vp_hsd.Config.tiny Vacuum.Config.default in
  let img = Vacuum.Driver.rewritten_image (Vacuum.Driver.rewrite ~config original) in
  let cuts = [| 1; 7; 0; 1000; 33; 4096; 2; 50_000 |] in
  let chained ~backend ~on_branch ~on_retire =
    let state = State.create ~mem_words:(1 lsl 20) img in
    let instructions = ref 0 and package = ref 0 and branches = ref 0 in
    let rec go i =
      let s =
        Emulator.run_slice ~backend ~state ~fuel:cuts.(i mod Array.length cuts)
          ~on_branch ~on_retire img
      in
      instructions := !instructions + s.Emulator.instructions;
      package := !package + s.Emulator.package_instructions;
      branches := !branches + s.Emulator.cond_branches;
      if not s.Emulator.halted then go (i + 1)
      else
        {
          s with
          Emulator.instructions = !instructions;
          package_instructions = !package;
          cond_branches = !branches;
        }
    in
    go 0
  in
  List.iter
    (fun backend ->
      let tag what = Emulator.backend_name backend ^ ": " ^ what in
      let whole, wb, wr =
        observed_run (fun ~on_branch ~on_retire ->
            Emulator.run_backend ~backend ~on_branch ~on_retire img)
      in
      let sliced, sb, sr = observed_run (chained ~backend) in
      Alcotest.(check bool) (tag "halted") true sliced.Emulator.halted;
      Alcotest.(check bool)
        (tag "package code ran")
        true
        (whole.Emulator.package_instructions > 0);
      Alcotest.(check int) (tag "instructions") whole.Emulator.instructions
        sliced.Emulator.instructions;
      Alcotest.(check int)
        (tag "package instructions")
        whole.Emulator.package_instructions sliced.Emulator.package_instructions;
      Alcotest.(check int) (tag "cond branches") whole.Emulator.cond_branches
        sliced.Emulator.cond_branches;
      Alcotest.(check int) (tag "checksum") whole.Emulator.checksum
        sliced.Emulator.checksum;
      Alcotest.(check int) (tag "result") whole.Emulator.result
        sliced.Emulator.result;
      Alcotest.(check int) (tag "on_branch digest") wb sb;
      Alcotest.(check int) (tag "on_retire digest") wr sr)
    Emulator.all_backends

(* ------------------------------------------------------------------ *)
(* The documented fault contract: leaving the image raises the typed
   emulator error with the offending pc on every backend. *)

let raw_image code =
  {
    Image.code;
    syms = [ { Image.name = "main"; start = 0; len = Array.length code } ];
    entry = 0;
    orig_limit = Array.length code;
    data_init = [];
    data_break = 0;
  }

let test_leaving_image_faults () =
  let far = Instr.Addr 1000 in
  let cases =
    [
      ( "ret",
        [| Instr.Li { dst = Reg.ra; imm = 1000 }; Instr.Ret |],
        1000 );
      ("jmp", [| Instr.Jmp { target = far }; Instr.Halt |], 1000);
      ("call", [| Instr.Call { target = far }; Instr.Halt |], 1000);
      ( "taken br",
        [|
          Instr.Br
            { cond = Vp_isa.Op.Eq; src1 = Reg.zero; src2 = Reg.zero; target = far };
          Instr.Halt;
        |],
        1000 );
      ("run off the end", [| Instr.Nop; Instr.Nop |], 2);
    ]
  in
  List.iter
    (fun backend ->
      List.iter
        (fun (what, code, pc) ->
          Alcotest.check_raises
            (Printf.sprintf "%s: %s" (Emulator.backend_name backend) what)
            (Vp_util.Error.Error
               {
                 stage = "emulator";
                 what = Printf.sprintf "pc 0x%x outside image" pc;
                 pc = Some pc;
                 label = None;
                 workload = None;
               })
            (fun () -> ignore (Emulator.run_backend ~backend (raw_image code))))
        cases;
      (* An executed unresolved label names the label instead. *)
      List.iter
        (fun img ->
          Alcotest.check_raises
            (Emulator.backend_name backend ^ ": unresolved label")
            (Vp_util.Error.Error
               {
                 stage = "emulator";
                 what = "unresolved label nowhere";
                 pc = None;
                 label = Some "nowhere";
                 workload = None;
               })
            (fun () -> ignore (Emulator.run_backend ~backend img)))
        [
          unresolved_branch_image ~taken:true;
          raw_image [| Instr.Call { target = Instr.Label "nowhere" }; Instr.Halt |];
        ])
    Emulator.all_backends

let () =
  Alcotest.run "vp_exec"
    [
      ( "semantics",
        [
          Alcotest.test_case "sum loop" `Quick test_sum_loop;
          Alcotest.test_case "zero iterations" `Quick test_sum_zero_iterations;
          Alcotest.test_case "factorial" `Quick test_factorial_recursion;
          Alcotest.test_case "factorial base" `Quick test_factorial_base_case;
          Alcotest.test_case "deep recursion" `Quick test_deep_recursion_stack;
          Alcotest.test_case "call chain" `Quick test_call_chain;
          Alcotest.test_case "spills" `Quick test_spill_correctness;
          Alcotest.test_case "globals" `Quick test_global_rw;
          Alcotest.test_case "two-phase runs" `Quick test_two_phase_runs;
        ] );
      ( "machine",
        [
          Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion;
          Alcotest.test_case "memory fault" `Quick test_memory_fault;
          Alcotest.test_case "package accounting" `Quick test_package_instruction_accounting;
          Alcotest.test_case "leaving the image faults" `Quick
            test_leaving_image_faults;
          Alcotest.test_case "checksum stability" `Quick test_checksum_stability;
        ] );
      ( "builder-control",
        [
          Alcotest.test_case "break/continue" `Quick test_builder_break_continue;
          Alcotest.test_case "raw labels" `Quick test_builder_raw_labels;
          Alcotest.test_case "frame locals" `Quick test_builder_frame_locals;
        ] );
      ( "decode",
        [
          Alcotest.test_case "tables match Instr" `Quick
            test_decode_tables_match_instr;
          Alcotest.test_case "memoized by identity" `Quick
            test_decode_memoizes_on_identity;
          Alcotest.test_case "unresolved branch not taken" `Quick
            test_unresolved_branch_not_taken_runs;
          Alcotest.test_case "unresolved branch taken" `Quick
            test_unresolved_branch_taken_faults;
          Alcotest.test_case "unresolved jmp" `Quick test_unresolved_jmp_faults;
          Alcotest.test_case "zero per-instruction allocation" `Quick
            test_run_allocation_flat;
        ] );
      ( "compiled",
        [
          Alcotest.test_case "memoized by identity" `Quick
            test_compile_memoizes_on_identity;
          Alcotest.test_case "blocks partition the image" `Quick
            test_compile_blocks_partition_image;
          Alcotest.test_case "fuel boundary parity" `Quick
            test_compiled_fuel_boundary_parity;
          Alcotest.test_case "unresolved branch parity" `Quick
            test_compiled_unresolved_branch_parity;
          Alcotest.test_case "zero per-instruction allocation" `Quick
            test_compiled_allocation_flat;
          Alcotest.test_case "zero per-instruction allocation (observed)"
            `Quick test_compiled_observed_allocation_flat;
        ] );
      ( "observation",
        [
          Alcotest.test_case "branch observer" `Quick test_branch_observation;
          Alcotest.test_case "aggregate profile" `Quick test_aggregate_profile_bias;
          Alcotest.test_case "retire stream" `Quick test_retire_stream_consistency;
          Alcotest.test_case "slice chaining" `Quick test_slice_chaining;
          QCheck_alcotest.to_alcotest prop_random_programs_halt;
          QCheck_alcotest.to_alcotest prop_spill_sum_matches_closed_form;
        ] );
    ]
