(* Block-threaded closure compilation of a decoded image.

   The decoded core ({!Decode} + the emulator's decoded backend) pays a
   per-instruction dispatch: fuel check, pc bounds check, tag load,
   match, operand loads, scratch writes, [State.set_pc].  This module
   removes all of it.  The image is partitioned into basic blocks and
   each block is compiled — once, at load time — into a single OCaml
   closure that executes the whole block straight-line over the
   {!State} arena: operands, immediates, ALU ops and branch conditions
   are baked into the closure environments, each instruction closure
   tail-calls its compile-time continuation, and block terminators
   dispatch directly into the successor block's closure through a
   block-indexed array (threaded code).  Fuel is checked once per
   block; a block that no longer fits in the remaining fuel falls back
   to a per-instruction interpreter at the boundary, so instruction
   accounting stays exact.

   Two variants of every block are compiled: a [fast] one with no
   observation calls at all, and an [observed] one that feeds the
   run's [on_branch]/[on_retire] closures (read from the per-run {!ctx},
   so compiled code is reusable across runs and observers).  Outcomes,
   checksums and observation streams are bit-identical to the decoded
   and reference backends, which stay the differential oracles. *)

module Op = Vp_isa.Op
module Reg = Vp_isa.Reg
module Instr = Vp_isa.Instr
module Image = Vp_prog.Image

(* Unchecked array access on the compiled hot paths: block and pc
   indices are validated at partition/compile time or by the
   interpreter's own bounds check. *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"

(* Per-run execution context.  Compiled closures are shared across
   runs; everything run-specific — state, fuel, counters, observer
   closures — lives here.  [fuel_left] counts down so the per-block
   check is one compare; retired instructions are recovered as
   [fuel - fuel_left]. *)
type ctx = {
  st : State.t;
  mutable fuel_left : int;
  mutable pkg : int;
  mutable branches : int;
  mutable halted : bool;
  on_branch : pc:int -> taken:bool -> unit;
  on_retire : pc:int -> taken:bool -> next_pc:int -> mem_addr:int -> unit;
}

type variant = {
  blocks : (ctx -> unit) array;
  enter : ctx -> int -> unit;  (* the boundary interpreter *)
}

type t = {
  decode : Decode.t;
  n_blocks : int;
  block_idx : int array;  (* pc -> block id at leaders, -1 mid-block *)
  block_start : int array;
  block_len : int array;
  fast : variant;
  observed : variant;
}

type result = {
  instructions : int;
  package_instructions : int;
  cond_branches : int;
  halted : bool;
}

let is_terminator tg =
  tg = Decode.tag_br || tg = Decode.tag_jmp || tg = Decode.tag_call
  || tg = Decode.tag_ret || tg = Decode.tag_halt
  || tg = Decode.tag_br_unresolved
  || tg = Decode.tag_jmp_unresolved
  || tg = Decode.tag_call_unresolved

(* Leaders: the image entry, every static control-flow target, every
   address materialised by [La] (insurance for computed returns), and
   the instruction after every terminator.  Every pc then belongs to
   exactly one block [leader .. next leader); a terminator can only
   sit at a block's last slot because its successor is a leader. *)
let partition (d : Decode.t) =
  let tag = d.Decode.tag and target = d.Decode.target in
  let n = Array.length tag in
  let leader = Array.make n false in
  if n > 0 then leader.(0) <- true;
  let entry = d.Decode.image.Image.entry in
  if entry >= 0 && entry < n then leader.(entry) <- true;
  for pc = 0 to n - 1 do
    let tg = tag.(pc) in
    if
      tg = Decode.tag_br || tg = Decode.tag_jmp || tg = Decode.tag_call
      || tg = Decode.tag_la
    then begin
      let t = target.(pc) in
      if t >= 0 && t < n then leader.(t) <- true
    end;
    if is_terminator tg && pc + 1 < n then leader.(pc + 1) <- true
  done;
  let nb = ref 0 in
  for pc = 0 to n - 1 do
    if leader.(pc) then incr nb
  done;
  let nb = !nb in
  let block_idx = Array.make n (-1) in
  let block_start = Array.make nb 0 in
  let block_len = Array.make nb 0 in
  let b = ref (-1) in
  for pc = 0 to n - 1 do
    if leader.(pc) then begin
      incr b;
      block_idx.(pc) <- !b;
      block_start.(!b) <- pc
    end;
    block_len.(!b) <- block_len.(!b) + 1
  done;
  (block_idx, block_start, block_len, nb)

let make_variant (d : Decode.t) ~block_idx ~block_start ~block_len ~nb
    ~observed =
  let tag = d.Decode.tag in
  let dst = d.Decode.dst in
  let src1 = d.Decode.src1 in
  let src2 = d.Decode.src2 in
  let imm = d.Decode.imm in
  let alu_op = d.Decode.alu_op in
  let cond = d.Decode.cond in
  let target = d.Decode.target in
  let code = d.Decode.code in
  let n = Array.length tag in
  let orig_limit = d.Decode.image.Image.orig_limit in
  (* Cold path: an unresolved-label instruction actually executed;
     rebuild the decoded interpreter's exact message lazily. *)
  let unres pc =
    match Instr.target code.(pc) with
    | Some (Instr.Label l) ->
      Vp_util.Error.failf ~stage:"emulator" ~label:l "unresolved label %s" l
    | _ -> assert false
  in
  let blocks = Array.make nb (fun (_ : ctx) -> assert false) in
  (* The boundary interpreter: entered at the run's start, on dynamic
     [Ret] targets, and whenever a block no longer fits in the
     remaining fuel.  It retires one instruction at a time with the
     decoded interpreter's exact semantics (including observer
     ordering) and re-enters compiled blocks as soon as a leader with
     sufficient fuel comes up.  All calls are tail calls. *)
  let rec interp (ctx : ctx) pc =
    if not ctx.halted then begin
      if ctx.fuel_left <= 0 then State.set_pc ctx.st pc
      else if pc < 0 || pc >= n then
        Vp_util.Error.failf ~stage:"emulator" ~pc "pc 0x%x outside image" pc
      else begin
        let b = block_idx.!(pc) in
        if b >= 0 && ctx.fuel_left >= block_len.!(b) then blocks.!(b) ctx
        else step ctx pc
      end
    end
  and step ctx pc =
    let st = ctx.st in
    ctx.fuel_left <- ctx.fuel_left - 1;
    if pc >= orig_limit then ctx.pkg <- ctx.pkg + 1;
    State.set_pc st pc;
    let taken = ref false in
    let mem_addr = ref (-1) in
    let next = ref (pc + 1) in
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
      if not (Reg.equal dst.!(pc) Reg.ra) then State.bump_store_digest st addr v
    | 6 (* Br *) ->
      ctx.branches <- ctx.branches + 1;
      let t =
        Op.eval_cond cond.!(pc) (State.reg st src1.!(pc))
          (State.reg st src2.!(pc))
      in
      taken := t;
      if t then next := target.!(pc);
      ctx.on_branch ~pc ~taken:t
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
        ctx.halted <- true;
        next := State.halt_address
      end
      else next := ra
    | 10 (* Nop *) -> ()
    | 11 (* Halt *) ->
      ctx.halted <- true;
      next := State.halt_address
    | 13 (* Br, unresolved label: fault only when taken *) ->
      ctx.branches <- ctx.branches + 1;
      let t =
        Op.eval_cond cond.!(pc) (State.reg st src1.!(pc))
          (State.reg st src2.!(pc))
      in
      taken := t;
      if t then unres pc;
      ctx.on_branch ~pc ~taken:t
    | _ (* La/Jmp/Call with an unresolved label *) -> unres pc);
    ctx.on_retire ~pc ~taken:!taken ~next_pc:!next ~mem_addr:!mem_addr;
    if not ctx.halted then interp ctx !next
  in
  (* Compile-time dispatch to a target address.  In-range targets are
     leaders by construction (branch/jump/call targets and fallthrough
     successors are all marked), so this is a direct jump into the
     target block's closure; its prologue re-checks fuel.  Out-of-range
     targets replicate the decoded loop exactly: the bounds fault only
     fires while fuel remains, otherwise the run ends with the bad pc
     as [final_pc]. *)
  let goto tgt =
    if tgt >= 0 && tgt < n then begin
      let b = block_idx.(tgt) in
      if b >= 0 then fun ctx -> blocks.!(b) ctx
      else fun ctx -> interp ctx tgt
    end
    else
      fun ctx ->
        if ctx.fuel_left > 0 then
          Vp_util.Error.failf ~stage:"emulator" ~pc:tgt "pc 0x%x outside image"
            tgt
        else State.set_pc ctx.st tgt
  in
  (* Retirement epilogue of a straight-line instruction: in the fast
     variant it is the continuation itself — observation costs nothing
     when nobody observes. *)
  let fin pc k =
    if observed then begin
      let np = pc + 1 in
      fun ctx ->
        ctx.on_retire ~pc ~taken:false ~next_pc:np ~mem_addr:(-1);
        k ctx
    end
    else k
  in
  (* One straight-line (non-terminator) instruction, specialized per
     tag and — for ALU ops — per operation, with operands and folded
     immediates in the closure environment.  Loads and stores publish
     the pc first so an out-of-range [State.Fault] carries the same pc
     context as the decoded interpreter's. *)
  let compile_straight pc k =
    let kk = fin pc k in
    match tag.(pc) with
    | 0 -> (
      let d0 = dst.(pc) and a = src1.(pc) and b = src2.(pc) in
      match alu_op.(pc) with
      | Op.Add | Op.Fadd ->
        fun ctx ->
          let st = ctx.st in
          State.set_reg st d0 (State.reg st a + State.reg st b);
          kk ctx
      | Op.Sub ->
        fun ctx ->
          let st = ctx.st in
          State.set_reg st d0 (State.reg st a - State.reg st b);
          kk ctx
      | Op.Mul | Op.Fmul ->
        fun ctx ->
          let st = ctx.st in
          State.set_reg st d0 (State.reg st a * State.reg st b);
          kk ctx
      | Op.Div | Op.Fdiv ->
        fun ctx ->
          let st = ctx.st in
          let bv = State.reg st b in
          State.set_reg st d0 (if bv = 0 then 0 else State.reg st a / bv);
          kk ctx
      | Op.Rem ->
        fun ctx ->
          let st = ctx.st in
          let bv = State.reg st b in
          State.set_reg st d0 (if bv = 0 then 0 else State.reg st a mod bv);
          kk ctx
      | Op.And ->
        fun ctx ->
          let st = ctx.st in
          State.set_reg st d0 (State.reg st a land State.reg st b);
          kk ctx
      | Op.Or ->
        fun ctx ->
          let st = ctx.st in
          State.set_reg st d0 (State.reg st a lor State.reg st b);
          kk ctx
      | Op.Xor ->
        fun ctx ->
          let st = ctx.st in
          State.set_reg st d0 (State.reg st a lxor State.reg st b);
          kk ctx
      | Op.Shl ->
        fun ctx ->
          let st = ctx.st in
          State.set_reg st d0 (State.reg st a lsl (State.reg st b land 63));
          kk ctx
      | Op.Shr ->
        fun ctx ->
          let st = ctx.st in
          State.set_reg st d0 (State.reg st a asr (State.reg st b land 63));
          kk ctx
      | Op.Slt ->
        fun ctx ->
          let st = ctx.st in
          State.set_reg st d0 (if State.reg st a < State.reg st b then 1 else 0);
          kk ctx)
    | 1 -> (
      let d0 = dst.(pc) and a = src1.(pc) and i = imm.(pc) in
      match alu_op.(pc) with
      | Op.Add | Op.Fadd ->
        fun ctx ->
          State.set_reg ctx.st d0 (State.reg ctx.st a + i);
          kk ctx
      | Op.Sub ->
        fun ctx ->
          State.set_reg ctx.st d0 (State.reg ctx.st a - i);
          kk ctx
      | Op.Mul | Op.Fmul ->
        fun ctx ->
          State.set_reg ctx.st d0 (State.reg ctx.st a * i);
          kk ctx
      | Op.Div | Op.Fdiv ->
        if i = 0 then
          fun ctx ->
            State.set_reg ctx.st d0 0;
            kk ctx
        else
          fun ctx ->
            State.set_reg ctx.st d0 (State.reg ctx.st a / i);
            kk ctx
      | Op.Rem ->
        if i = 0 then
          fun ctx ->
            State.set_reg ctx.st d0 0;
            kk ctx
        else
          fun ctx ->
            State.set_reg ctx.st d0 (State.reg ctx.st a mod i);
            kk ctx
      | Op.And ->
        fun ctx ->
          State.set_reg ctx.st d0 (State.reg ctx.st a land i);
          kk ctx
      | Op.Or ->
        fun ctx ->
          State.set_reg ctx.st d0 (State.reg ctx.st a lor i);
          kk ctx
      | Op.Xor ->
        fun ctx ->
          State.set_reg ctx.st d0 (State.reg ctx.st a lxor i);
          kk ctx
      | Op.Shl ->
        let s = i land 63 in
        fun ctx ->
          State.set_reg ctx.st d0 (State.reg ctx.st a lsl s);
          kk ctx
      | Op.Shr ->
        let s = i land 63 in
        fun ctx ->
          State.set_reg ctx.st d0 (State.reg ctx.st a asr s);
          kk ctx
      | Op.Slt ->
        fun ctx ->
          State.set_reg ctx.st d0 (if State.reg ctx.st a < i then 1 else 0);
          kk ctx)
    | 2 ->
      let d0 = dst.(pc) and i = imm.(pc) in
      fun ctx ->
        State.set_reg ctx.st d0 i;
        kk ctx
    | 3 ->
      let d0 = dst.(pc) and v = target.(pc) in
      fun ctx ->
        State.set_reg ctx.st d0 v;
        kk ctx
    | 4 ->
      let d0 = dst.(pc) and b = src1.(pc) and off = imm.(pc) in
      if observed then begin
        let np = pc + 1 in
        fun ctx ->
          let st = ctx.st in
          State.set_pc st pc;
          let addr = State.reg st b + off in
          State.set_reg st d0 (State.mem st addr);
          ctx.on_retire ~pc ~taken:false ~next_pc:np ~mem_addr:addr;
          k ctx
      end
      else
        fun ctx ->
          let st = ctx.st in
          State.set_pc st pc;
          let addr = State.reg st b + off in
          State.set_reg st d0 (State.mem st addr);
          k ctx
    | 5 ->
      let s0 = dst.(pc) and b = src1.(pc) and off = imm.(pc) in
      (* ra spills hold code addresses; keep them out of the digest so
         original and rewritten binaries stay comparable. *)
      let track = not (Reg.equal s0 Reg.ra) in
      if observed then begin
        let np = pc + 1 in
        fun ctx ->
          let st = ctx.st in
          State.set_pc st pc;
          let addr = State.reg st b + off in
          let v = State.reg st s0 in
          State.set_mem st addr v;
          if track then State.bump_store_digest st addr v;
          ctx.on_retire ~pc ~taken:false ~next_pc:np ~mem_addr:addr;
          k ctx
      end
      else if track then
        fun ctx ->
          let st = ctx.st in
          State.set_pc st pc;
          let addr = State.reg st b + off in
          let v = State.reg st s0 in
          State.set_mem st addr v;
          State.bump_store_digest st addr v;
          k ctx
      else
        fun ctx ->
          let st = ctx.st in
          State.set_pc st pc;
          let addr = State.reg st b + off in
          State.set_mem st addr (State.reg st s0);
          k ctx
    | 10 -> kk (* Nop compiles to nothing in the fast variant *)
    | 12 -> fun _ctx -> unres pc
    | _ -> assert false (* terminators are compiled by compile_term *)
  in
  (* A block's terminator: control transfer baked at compile time,
     observation stream in the decoded interpreter's exact order
     ([on_branch] inside the dispatch, [on_retire] after, faults on
     unresolved taken branches before either). *)
  let compile_term pc =
    match tag.(pc) with
    | 6 ->
      let a = src1.(pc) and b = src2.(pc) in
      let tpc = target.(pc) and np = pc + 1 in
      let gt = goto tpc and gf = goto np in
      if observed then begin
        let test = Op.eval_cond cond.(pc) in
        fun ctx ->
          ctx.branches <- ctx.branches + 1;
          let st = ctx.st in
          let t = test (State.reg st a) (State.reg st b) in
          ctx.on_branch ~pc ~taken:t;
          if t then begin
            ctx.on_retire ~pc ~taken:true ~next_pc:tpc ~mem_addr:(-1);
            gt ctx
          end
          else begin
            ctx.on_retire ~pc ~taken:false ~next_pc:np ~mem_addr:(-1);
            gf ctx
          end
      end
      else begin
        match cond.(pc) with
        | Op.Eq ->
          fun ctx ->
            ctx.branches <- ctx.branches + 1;
            let st = ctx.st in
            if State.reg st a = State.reg st b then gt ctx else gf ctx
        | Op.Ne ->
          fun ctx ->
            ctx.branches <- ctx.branches + 1;
            let st = ctx.st in
            if State.reg st a <> State.reg st b then gt ctx else gf ctx
        | Op.Lt ->
          fun ctx ->
            ctx.branches <- ctx.branches + 1;
            let st = ctx.st in
            if State.reg st a < State.reg st b then gt ctx else gf ctx
        | Op.Le ->
          fun ctx ->
            ctx.branches <- ctx.branches + 1;
            let st = ctx.st in
            if State.reg st a <= State.reg st b then gt ctx else gf ctx
        | Op.Gt ->
          fun ctx ->
            ctx.branches <- ctx.branches + 1;
            let st = ctx.st in
            if State.reg st a > State.reg st b then gt ctx else gf ctx
        | Op.Ge ->
          fun ctx ->
            ctx.branches <- ctx.branches + 1;
            let st = ctx.st in
            if State.reg st a >= State.reg st b then gt ctx else gf ctx
      end
    | 7 ->
      let tpc = target.(pc) in
      let g = goto tpc in
      if observed then
        fun ctx ->
          ctx.on_retire ~pc ~taken:true ~next_pc:tpc ~mem_addr:(-1);
          g ctx
      else g
    | 8 ->
      let tpc = target.(pc) in
      let g = goto tpc in
      let link = pc + 1 in
      if observed then
        fun ctx ->
          State.set_reg ctx.st Reg.ra link;
          ctx.on_retire ~pc ~taken:true ~next_pc:tpc ~mem_addr:(-1);
          g ctx
      else
        fun ctx ->
          State.set_reg ctx.st Reg.ra link;
          g ctx
    | 9 ->
      (* The return target is dynamic; the interpreter's leader check
         re-enters compiled code immediately (call successors are
         leaders by construction). *)
      if observed then
        fun ctx ->
          let ra = State.reg ctx.st Reg.ra in
          if ra = State.halt_address then begin
            ctx.halted <- true;
            State.set_pc ctx.st pc;
            ctx.on_retire ~pc ~taken:true ~next_pc:State.halt_address
              ~mem_addr:(-1)
          end
          else begin
            ctx.on_retire ~pc ~taken:true ~next_pc:ra ~mem_addr:(-1);
            interp ctx ra
          end
      else
        fun ctx ->
          let ra = State.reg ctx.st Reg.ra in
          if ra = State.halt_address then begin
            ctx.halted <- true;
            State.set_pc ctx.st pc
          end
          else interp ctx ra
    | 11 ->
      if observed then
        fun ctx ->
          ctx.halted <- true;
          State.set_pc ctx.st pc;
          ctx.on_retire ~pc ~taken:false ~next_pc:State.halt_address
            ~mem_addr:(-1)
      else
        fun ctx ->
          ctx.halted <- true;
          State.set_pc ctx.st pc
    | 13 ->
      let a = src1.(pc) and b = src2.(pc) in
      let test = Op.eval_cond cond.(pc) in
      let np = pc + 1 in
      let g = goto np in
      if observed then
        fun ctx ->
          ctx.branches <- ctx.branches + 1;
          if test (State.reg ctx.st a) (State.reg ctx.st b) then unres pc;
          ctx.on_branch ~pc ~taken:false;
          ctx.on_retire ~pc ~taken:false ~next_pc:np ~mem_addr:(-1);
          g ctx
      else
        fun ctx ->
          ctx.branches <- ctx.branches + 1;
          if test (State.reg ctx.st a) (State.reg ctx.st b) then unres pc;
          g ctx
    | 14 | 15 -> fun _ctx -> unres pc
    | _ -> assert false
  in
  let rec compile_from pc stop =
    if pc = stop then begin
      if is_terminator tag.(pc) then compile_term pc
      else compile_straight pc (goto (pc + 1))
    end
    else compile_straight pc (compile_from (pc + 1) stop)
  in
  for b = 0 to nb - 1 do
    let start = block_start.(b) in
    let len = block_len.(b) in
    let stop = start + len - 1 in
    (* Whole-block package accounting: the block's pcs at or above
       [orig_limit], added in one bump. *)
    let pkg = if stop >= orig_limit then stop - max start orig_limit + 1 else 0 in
    let body = compile_from start stop in
    blocks.(b) <-
      (if pkg = 0 then
         fun ctx ->
           if ctx.fuel_left < len then interp ctx start
           else begin
             ctx.fuel_left <- ctx.fuel_left - len;
             body ctx
           end
       else
         fun ctx ->
           if ctx.fuel_left < len then interp ctx start
           else begin
             ctx.fuel_left <- ctx.fuel_left - len;
             ctx.pkg <- ctx.pkg + pkg;
             body ctx
           end)
  done;
  { blocks; enter = interp }

let compile (d : Decode.t) =
  let block_idx, block_start, block_len, nb = partition d in
  {
    decode = d;
    n_blocks = nb;
    block_idx;
    block_start;
    block_len;
    fast = make_variant d ~block_idx ~block_start ~block_len ~nb ~observed:false;
    observed =
      make_variant d ~block_idx ~block_start ~block_len ~nb ~observed:true;
  }

(* One-slot domain-local memo keyed by physical image identity,
   mirroring the decode memo: the pipelines run the same immutable
   image over and over, and the compiled form is pure data derived
   from it. *)
let memo : (Image.t * t) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let of_image (image : Image.t) =
  let slot = Domain.DLS.get memo in
  match !slot with
  | Some (key, c) when key == image -> c
  | _ ->
    let c = compile (Decode.of_image image) in
    slot := Some (image, c);
    c

let decode t = t.decode
let block_count t = t.n_blocks
let block_of_pc t pc = t.block_idx.(pc)
let block_bounds t b = (t.block_start.(b), t.block_len.(b))

let noop_branch ~pc:_ ~taken:_ = ()
let noop_retire ~pc:_ ~taken:_ ~next_pc:_ ~mem_addr:_ = ()

let exec t st ~fuel ?on_branch ?on_retire () =
  let observe =
    (match on_branch with Some _ -> true | None -> false)
    || match on_retire with Some _ -> true | None -> false
  in
  let ctx =
    {
      st;
      fuel_left = fuel;
      pkg = 0;
      branches = 0;
      halted = false;
      on_branch = (match on_branch with Some f -> f | None -> noop_branch);
      on_retire = (match on_retire with Some f -> f | None -> noop_retire);
    }
  in
  let v = if observe then t.observed else t.fast in
  v.enter ctx (State.pc st);
  {
    instructions = fuel - ctx.fuel_left;
    package_instructions = ctx.pkg;
    cond_branches = ctx.branches;
    halted = ctx.halted;
  }
