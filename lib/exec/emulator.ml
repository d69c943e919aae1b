module Instr = Vp_isa.Instr
module Op = Vp_isa.Op
module Reg = Vp_isa.Reg
module Image = Vp_prog.Image

type outcome = {
  instructions : int;
  package_instructions : int;
  cond_branches : int;
  halted : bool;
  checksum : int;
  result : int;
  final_pc : int;
}

type backend = Reference | Decoded | Compiled

let default_backend = Decoded

let backend_name = function
  | Reference -> "reference"
  | Decoded -> "decoded"
  | Compiled -> "compiled"

let backend_of_string = function
  | "reference" -> Some Reference
  | "decoded" -> Some Decoded
  | "compiled" -> Some Compiled
  | _ -> None

let all_backends = [ Reference; Decoded; Compiled ]

(* A slice's own counters, plus what the (cumulative) state holds at
   its end. *)
let outcome_of st ~instructions ~package_instructions ~cond_branches ~halted =
  {
    instructions;
    package_instructions;
    cond_branches;
    halted;
    checksum = State.checksum st;
    result = State.reg st Reg.ret_value;
    final_pc = State.pc st;
  }

let target_addr = function
  | Instr.Addr a -> a
  | Instr.Label l -> Vp_util.Error.failf ~stage:"emulator" ~label:l "unresolved label %s" l

let operand_value st = function
  | Instr.Reg r -> State.reg st r
  | Instr.Imm n -> n

(* Unchecked array access inside the decoded hot loop: [pc] is
   validated against the image size at the top of each iteration, and
   every decoded table has exactly one entry per pc. *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"

(* Cold path: an unresolved-label instruction actually executed.
   Re-read the boxed instruction to rebuild the exact message
   {!target_addr} would have produced. *)
let unresolved code pc =
  match Instr.target code.(pc) with
  | Some (Instr.Label l) ->
    Vp_util.Error.failf ~stage:"emulator" ~label:l "unresolved label %s" l
  | _ -> assert false

(* One bounded slice of decoded execution over an external [st]: starts
   from the state's current pc, retires at most [fuel] instructions, and
   leaves the final pc in the state so a later slice (possibly over a
   different image sharing the same address space) resumes exactly where
   this one stopped.  Counts in the outcome cover only this slice. *)
let decoded_slice st ~fuel ?on_branch ?on_retire (d : Decode.t) =
  let instructions = ref 0 in
  let package_instructions = ref 0 in
  let cond_branches = ref 0 in
  let halted = ref false in
  let orig_limit = d.Decode.image.Image.orig_limit in
  let tag = d.Decode.tag in
  let dst = d.Decode.dst in
  let src1 = d.Decode.src1 in
  let src2 = d.Decode.src2 in
  let imm = d.Decode.imm in
  let alu_op = d.Decode.alu_op in
  let cond = d.Decode.cond in
  let target = d.Decode.target in
  let code = d.Decode.code in
  let size = Array.length tag in
  (* Per-instruction scratch, allocated once for the whole run: the
     retire loop writes plain ints and bools here, never a record. *)
  let taken = ref false in
  let mem_addr = ref (-1) in
  let next = ref 0 in
  while (not !halted) && !instructions < fuel do
    let pc = State.pc st in
    if pc < 0 || pc >= size then
      Vp_util.Error.failf ~stage:"emulator" ~pc "pc 0x%x outside image" pc;
    incr instructions;
    if pc >= orig_limit then incr package_instructions;
    taken := false;
    mem_addr := -1;
    next := pc + 1;
    (match tag.!(pc) with
    | 0 (* Alu, register operand *) ->
      State.set_reg st dst.!(pc)
        (Op.eval_alu alu_op.!(pc) (State.reg st src1.!(pc))
           (State.reg st src2.!(pc)))
    | 1 (* Alu, immediate operand *) ->
      State.set_reg st dst.!(pc)
        (Op.eval_alu alu_op.!(pc) (State.reg st src1.!(pc)) imm.!(pc))
    | 2 (* Li *) -> State.set_reg st dst.!(pc) imm.!(pc)
    | 3 (* La *) -> State.set_reg st dst.!(pc) target.!(pc)
    | 4 (* Load *) ->
      let addr = State.reg st src1.!(pc) + imm.!(pc) in
      mem_addr := addr;
      State.set_reg st dst.!(pc) (State.mem st addr)
    | 5 (* Store *) ->
      let addr = State.reg st src1.!(pc) + imm.!(pc) in
      mem_addr := addr;
      let v = State.reg st dst.!(pc) in
      State.set_mem st addr v;
      (* ra spills hold code addresses; keep them out of the digest so
         original and rewritten binaries stay comparable. *)
      if not (Reg.equal dst.!(pc) Reg.ra) then State.bump_store_digest st addr v
    | 6 (* Br *) ->
      incr cond_branches;
      let t =
        Op.eval_cond cond.!(pc) (State.reg st src1.!(pc)) (State.reg st src2.!(pc))
      in
      taken := t;
      if t then next := target.!(pc);
      (match on_branch with Some f -> f ~pc ~taken:t | None -> ())
    | 7 (* Jmp *) ->
      taken := true;
      next := target.!(pc)
    | 8 (* Call *) ->
      taken := true;
      State.set_reg st Reg.ra (pc + 1);
      next := target.!(pc)
    | 9 (* Ret *) ->
      taken := true;
      let ra = State.reg st Reg.ra in
      if ra = State.halt_address then begin
        halted := true;
        next := State.halt_address
      end
      else next := ra
    | 10 (* Nop *) -> ()
    | 11 (* Halt *) ->
      halted := true;
      next := State.halt_address
    | 13 (* Br, unresolved label: fault only when taken *) ->
      incr cond_branches;
      let t =
        Op.eval_cond cond.!(pc) (State.reg st src1.!(pc)) (State.reg st src2.!(pc))
      in
      taken := t;
      if t then unresolved code pc;
      (match on_branch with Some f -> f ~pc ~taken:t | None -> ())
    | _ (* La/Jmp/Call with an unresolved label *) -> unresolved code pc);
    (match on_retire with
    | Some f -> f ~pc ~taken:!taken ~next_pc:!next ~mem_addr:!mem_addr
    | None -> ());
    if not !halted then State.set_pc st !next
  done;
  outcome_of st ~instructions:!instructions
    ~package_instructions:!package_instructions ~cond_branches:!cond_branches
    ~halted:!halted

(* The same slice over block-compiled closures; with no observer at all
   {!Compile.exec} runs the observer-free compiled variant. *)
let compiled_slice st ~fuel ?on_branch ?on_retire (c : Compile.t) =
  let r = Compile.exec c st ~fuel ?on_branch ?on_retire () in
  outcome_of st ~instructions:r.Compile.instructions
    ~package_instructions:r.Compile.package_instructions
    ~cond_branches:r.Compile.cond_branches ~halted:r.Compile.halted

(* The original boxed interpreter, kept as the executable
   specification: the differential tests re-run every workload through
   it and require bit-identical outcomes and observation streams from
   the decoded and compiled cores. *)
let reference_slice st ~fuel ?on_branch ?on_retire image =
  let instructions = ref 0 in
  let package_instructions = ref 0 in
  let cond_branches = ref 0 in
  let halted = ref false in
  let orig_limit = image.Image.orig_limit in
  let code = image.Image.code in
  let size = Array.length code in
  while (not !halted) && !instructions < fuel do
    let pc = State.pc st in
    if pc < 0 || pc >= size then
      Vp_util.Error.failf ~stage:"emulator" ~pc "pc 0x%x outside image" pc;
    let instr = code.(pc) in
    incr instructions;
    if pc >= orig_limit then incr package_instructions;
    let taken = ref false in
    let mem_addr = ref (-1) in
    let next = ref (pc + 1) in
    (match instr with
    | Instr.Alu { op; dst; src1; src2 } ->
      State.set_reg st dst (Op.eval_alu op (State.reg st src1) (operand_value st src2))
    | Instr.Li { dst; imm } -> State.set_reg st dst imm
    | Instr.La { dst; target } -> State.set_reg st dst (target_addr target)
    | Instr.Load { dst; base; offset } ->
      let addr = State.reg st base + offset in
      mem_addr := addr;
      State.set_reg st dst (State.mem st addr)
    | Instr.Store { src; base; offset } ->
      let addr = State.reg st base + offset in
      mem_addr := addr;
      let v = State.reg st src in
      State.set_mem st addr v;
      if not (Reg.equal src Reg.ra) then State.bump_store_digest st addr v
    | Instr.Br { cond; src1; src2; target } ->
      incr cond_branches;
      let t = Op.eval_cond cond (State.reg st src1) (State.reg st src2) in
      taken := t;
      if t then next := target_addr target;
      (match on_branch with Some f -> f ~pc ~taken:t | None -> ())
    | Instr.Jmp { target } ->
      taken := true;
      next := target_addr target
    | Instr.Call { target } ->
      taken := true;
      State.set_reg st Reg.ra (pc + 1);
      next := target_addr target
    | Instr.Ret ->
      taken := true;
      let ra = State.reg st Reg.ra in
      if ra = State.halt_address then begin
        halted := true;
        next := State.halt_address
      end
      else next := ra
    | Instr.Nop -> ()
    | Instr.Halt ->
      halted := true;
      next := State.halt_address);
    (match on_retire with
    | Some f -> f ~pc ~taken:!taken ~next_pc:!next ~mem_addr:!mem_addr
    | None -> ());
    if not !halted then State.set_pc st !next
  done;
  outcome_of st ~instructions:!instructions
    ~package_instructions:!package_instructions ~cond_branches:!cond_branches
    ~halted:!halted

let run_slice ?(backend = default_backend) ~state ~fuel ?on_branch ?on_retire
    image =
  match backend with
  | Decoded ->
    decoded_slice state ~fuel ?on_branch ?on_retire (Decode.of_image image)
  | Compiled ->
    compiled_slice state ~fuel ?on_branch ?on_retire (Compile.of_image image)
  | Reference -> reference_slice state ~fuel ?on_branch ?on_retire image

let run_backend ?backend ?(fuel = 200_000_000) ?(mem_words = 1 lsl 20)
    ?on_branch ?on_retire image =
  let state = State.create ~mem_words image in
  let outcome = run_slice ?backend ~state ~fuel ?on_branch ?on_retire image in
  (* The state never escapes this function; recycle its memory array. *)
  State.release state;
  outcome

let aggregate_branch_profile ?fuel ?mem_words image =
  let size = Array.length image.Image.code in
  (* pc-indexed counters instead of a hashtable: the per-branch cost
     is two array bumps, and the table shape is recovered once at the
     end for the callers that want it. *)
  let executed = Array.make size 0 in
  let takens = Array.make size 0 in
  let on_branch ~pc ~taken =
    executed.(pc) <- executed.(pc) + 1;
    if taken then takens.(pc) <- takens.(pc) + 1
  in
  let (_ : outcome) = run_backend ?fuel ?mem_words ~on_branch image in
  Branch_profile.of_counts ~executed ~takens
