module Instr = Vp_isa.Instr
module Op = Vp_isa.Op
module Reg = Vp_isa.Reg
module Emulator = Vp_exec.Emulator
module Decode = Vp_exec.Decode
module Timeline = Vp_obs.Timeline

type stats = {
  cycles : int;
  instructions : int;
  ipc : float;
  branch_mispredicts : int;
  ras_mispredicts : int;
  taken_redirects : int;
  icache_misses : int;
  dcache_misses : int;
  l2_misses : int;
  fetch_stall_cycles : int;
  data_stall_cycles : int;
  fetch_line_buffer_hits : int;
  data_line_buffer_hits : int;
}

(* Unchecked array access in the retire path: [pc] was validated by
   the emulator before retiring, the decoded tables have one entry per
   pc ([uses_off]/[defs_off] have [n + 1]), register numbers are in
   [0, Reg.count) by construction, and FU indices are in [0, 4). *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

(* Monomorphic int max: [Stdlib.max] is polymorphic and goes through
   the generic comparison — a real function call at least once per
   retired instruction on this path. *)
let imax (a : int) (b : int) = if a >= b then a else b

let fu_index = function
  | Op.Ialu -> 0
  | Op.Fp | Op.Long_fp -> 1
  | Op.Mem -> 2
  | Op.Control -> 3

(* Domain-local pool of timing models (three caches + predictor).
   Their tag/LRU/counter arrays are ~160 KB per simulation and live on
   the major heap; reusing them across runs replaces that churn with a
   cheap reset.  Same steal-on-use discipline as [State]'s arena: the
   slot is emptied while the models are live, so a re-entrant
   simulation on the same domain simply allocates fresh ones. *)
let model_pool :
    (Config.t * (Cache.t * Cache.t * Cache.t * Predictor.t)) option ref
    Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let take_models (config : Config.t) =
  let slot = Domain.DLS.get model_pool in
  match !slot with
  | Some (key, ((l1i, l1d, l2, pred) as models)) when key == config ->
    slot := None;
    Cache.reset l1i;
    Cache.reset l1d;
    Cache.reset l2;
    Predictor.reset pred;
    models
  | _ ->
    ( Cache.create config.Config.l1i,
      Cache.create config.Config.l1d,
      Cache.create config.Config.l2,
      Predictor.create config )

let release_models config models =
  Domain.DLS.get model_pool := Some (config, models)

let simulate_internal ?(config = Config.default) ?backend ?fuel ?mem_words
    ?on_branch_progress ?(timeline = Timeline.disabled) image =
  let d = Decode.of_image image in
  (* Per-pc tables, decoded once: the retire callback below reads
     these flat arrays instead of matching on boxed [Instr.t] and
     rebuilding use/def lists every retirement. *)
  let tag = d.Decode.tag in
  let btarget = d.Decode.target in
  let base_latency = d.Decode.latency in
  let uses_off = d.Decode.uses_off in
  let uses = d.Decode.uses in
  let defs_off = d.Decode.defs_off in
  let defs = d.Decode.defs in
  let fu_of_pc = Array.map fu_index d.Decode.fu in
  let ((l1i, l1d, l2, pred) as models) = take_models config in
  let fu_limit =
    [|
      config.Config.ialu_units;
      config.Config.fp_units;
      config.Config.mem_units;
      config.Config.branch_units;
    |]
  in
  (* Captured as immediate ints so the retire closure does not chase
     the config record on every instruction. *)
  let instr_bytes = config.Config.instr_bytes in
  let word_bytes = config.Config.word_bytes in
  let issue_width = config.Config.issue_width in
  let l2_latency = config.Config.l2_latency in
  let memory_latency = config.Config.memory_latency in
  let branch_resolution = config.Config.branch_resolution in
  let fu_used = Array.make 4 0 in
  let reg_ready = Array.make Reg.count 0 in
  let cycle = ref 0 in
  let width_used = ref 0 in
  let fetch_ready = ref 0 in
  let fetch_stalls = ref 0 in
  let data_stalls = ref 0 in
  let taken_redirects = ref 0 in
  let instructions = ref 0 in
  (* Line buffers, as in a real fetch/load unit: a repeat access to
     the line the cache just served is a guaranteed hit (no other
     access to that cache intervened, so nothing evicted it) and is
     not replayed.  Skipping these replays provably leaves every
     hit/miss count and LRU victim unchanged (see {!Cache.line_index}),
     and it removes a model call from the common sequential-fetch and
     stack-traffic paths. *)
  let fetch_line = ref (-1) in
  let data_line = ref (-1) in
  let fetch_lb_hits = ref 0 in
  let data_lb_hits = ref 0 in
  (* Telemetry: per-interval deltas of the timing-model series.  The
     retire path tests one immutable boolean; all registration and
     last-value state exists only when the timeline is enabled (the
     registers are no-ops on the disabled timeline). *)
  let tl = timeline in
  let tl_on = Timeline.enabled tl in
  let tl_interval = Timeline.interval_length tl in
  let s_instr = Timeline.Series.register tl "timing.instructions" in
  let s_cycles = Timeline.Series.register tl "timing.cycles" in
  let s_icache = Timeline.Series.register tl "timing.icache_misses" in
  let s_dcache = Timeline.Series.register tl "timing.dcache_misses" in
  let s_l2 = Timeline.Series.register tl "timing.l2_misses" in
  let s_mispred = Timeline.Series.register tl "timing.mispredicts" in
  let s_fstall = Timeline.Series.register tl "timing.fetch_stalls" in
  let s_dstall = Timeline.Series.register tl "timing.data_stalls" in
  let tl_count = ref 0 in
  let tl_last = Array.make 7 0 in
  let tl_flush n =
    Timeline.Series.push tl s_instr n;
    let delta i s cur =
      Timeline.Series.push tl s (cur - tl_last.(i));
      tl_last.(i) <- cur
    in
    (* [!cycle + 1] is the cycle-count convention of [stats.cycles]
       (index of the last cycle -> number of cycles), so the interval
       deltas telescope to exactly the reported total. *)
    delta 0 s_cycles (!cycle + 1);
    delta 1 s_icache (Cache.misses l1i);
    delta 2 s_dcache (Cache.misses l1d);
    delta 3 s_l2 (Cache.misses l2);
    delta 4 s_mispred (Predictor.stats pred).Predictor.mispredictions;
    delta 5 s_fstall !fetch_stalls;
    delta 6 s_dstall !data_stalls
  in
  let advance_to c =
    if c > !cycle then begin
      cycle := c;
      width_used := 0;
      Array.fill fu_used 0 4 0
    end
  in
  (* Extra latency after an L1 miss; the L1-hit fast path is inlined
     at the call sites so the per-instruction cost is one [Cache.access]
     call, not a closure call wrapping it. *)
  let l2_penalty addr =
    if Cache.access l2 ~addr then l2_latency
    else l2_latency + memory_latency
  in
  let on_retire ~pc ~taken ~next_pc ~mem_addr =
    incr instructions;
    (* Fetch: I-cache access for this instruction's line. *)
    let fetch_addr = pc * instr_bytes in
    let line = Cache.line_index l1i fetch_addr in
    if line = !fetch_line then incr fetch_lb_hits
    else begin
      fetch_line := line;
      if not (Cache.access l1i ~addr:fetch_addr) then begin
        let fetch_pen = l2_penalty fetch_addr in
        fetch_ready := imax !fetch_ready (!cycle + fetch_pen)
      end
    end;
    (* Earliest issue: fetch and operands (decoded use set). *)
    let op_ready = ref 0 in
    for i = uses_off.!(pc) to uses_off.!(pc + 1) - 1 do
      let r = reg_ready.!(Reg.to_int uses.!(i)) in
      if r > !op_ready then op_ready := r
    done;
    let op_ready = !op_ready in
    let earliest = imax !fetch_ready op_ready in
    if earliest > !cycle then begin
      (if !fetch_ready >= op_ready then
         fetch_stalls := !fetch_stalls + (earliest - !cycle)
       else data_stalls := !data_stalls + (earliest - !cycle));
      advance_to earliest
    end;
    (* Structural hazards: issue width and FU availability. *)
    let fu = fu_of_pc.!(pc) in
    while
      !width_used >= issue_width || fu_used.!(fu) >= fu_limit.!(fu)
    do
      advance_to (!cycle + 1)
    done;
    fu_used.!(fu) <- fu_used.!(fu) + 1;
    incr width_used;
    (* Result latency, plus D-cache behaviour for memory operations
       ([mem_addr] is -1 for non-memory instructions). *)
    let t = tag.!(pc) in
    let latency =
      if t = Decode.tag_load then
        base_latency.!(pc)
        + (if mem_addr >= 0 then begin
             let a = mem_addr * word_bytes in
             let line = Cache.line_index l1d a in
             if line = !data_line then begin
               incr data_lb_hits;
               0
             end
             else begin
               data_line := line;
               if Cache.access l1d ~addr:a then 0 else l2_penalty a
             end
           end
           else 0)
      else begin
        if t = Decode.tag_store && mem_addr >= 0 then begin
          let a = mem_addr * word_bytes in
          let line = Cache.line_index l1d a in
          if line = !data_line then incr data_lb_hits
          else begin
            data_line := line;
            if not (Cache.access l1d ~addr:a) then ignore (l2_penalty a)
          end
        end;
        base_latency.!(pc)
      end
    in
    for i = defs_off.!(pc) to defs_off.!(pc + 1) - 1 do
      reg_ready.!(Reg.to_int defs.!(i)) <- !cycle + latency
    done;
    (* Control flow: fetch redirects and mispredictions.  Every
       conditional branch must consult the predictor and fire
       [on_branch_progress]: the emulator and the HSD count every
       [Br], so skipping any here would silently shift phase
       attribution in {!simulate_phases}. *)
    if t = Decode.tag_br then begin
      let correct = Predictor.predict_branch pred ~pc ~taken in
      if not correct then
        fetch_ready := imax !fetch_ready (!cycle + branch_resolution)
      else if taken then begin
        let btb_hit = Predictor.btb_lookup pred ~pc ~target:btarget.!(pc) in
        incr taken_redirects;
        fetch_ready := imax !fetch_ready (!cycle + if btb_hit then 1 else 2)
      end;
      match on_branch_progress with
      | Some f -> f ~cycles:!cycle ~instructions:!instructions
      | None -> ()
    end
    else if t = Decode.tag_jmp then fetch_ready := imax !fetch_ready (!cycle + 1)
    else if t = Decode.tag_call then begin
      Predictor.call_push pred ~return_addr:(pc + 1);
      fetch_ready := imax !fetch_ready (!cycle + 1)
    end
    else if t = Decode.tag_ret then begin
      let correct = Predictor.ret_predict pred ~actual:next_pc in
      fetch_ready :=
        imax !fetch_ready
          (!cycle + if correct then 1 else branch_resolution)
    end
    else if t = Decode.tag_br_unresolved then
      (* Reachable only when not taken — a taken unresolved branch
         already faulted inside the emulator. *)
      (match Instr.target d.Decode.code.(pc) with
      | Some (Instr.Label l) ->
        Vp_util.Error.failf ~stage:"pipeline" ~label:l ~pc
          "unresolved label %s in branch at 0x%x" l pc
      | _ -> assert false);
    if tl_on then begin
      incr tl_count;
      if !tl_count = tl_interval then begin
        tl_count := 0;
        tl_flush tl_interval
      end
    end
  in
  (* The retire feed driving the timing model comes from whichever
     functional backend is selected; the timing tables above are keyed
     by pc only, so the feed's provenance is transparent. *)
  let (_ : Emulator.outcome) =
    Emulator.run_backend ?backend ?fuel ?mem_words ~on_retire image
  in
  if tl_on && !tl_count > 0 then tl_flush !tl_count;
  let pstats = Predictor.stats pred in
  let total_cycles = !cycle + 1 in
  let result =
    {
      cycles = total_cycles;
      instructions = !instructions;
      ipc =
        (if total_cycles = 0 then 0.0
         else float_of_int !instructions /. float_of_int total_cycles);
      branch_mispredicts = pstats.Predictor.mispredictions;
      ras_mispredicts = pstats.Predictor.ras_misses;
      taken_redirects = !taken_redirects;
      icache_misses = Cache.misses l1i;
      dcache_misses = Cache.misses l1d;
      l2_misses = Cache.misses l2;
      fetch_stall_cycles = !fetch_stalls;
      data_stall_cycles = !data_stalls;
      fetch_line_buffer_hits = !fetch_lb_hits;
      data_line_buffer_hits = !data_lb_hits;
    }
  in
  release_models config models;
  result

let simulate ?config ?backend ?fuel ?mem_words ?timeline image =
  simulate_internal ?config ?backend ?fuel ?mem_words ?timeline image

type phase_stats = {
  phase : int;
  branches : int;
  seg_cycles : int;
  seg_instructions : int;
  seg_ipc : float;
}

let simulate_phases ?config ?backend ?fuel ?mem_words ~timeline image =
  (* The timeline gives [(start, stop, phase)] intervals in dynamic
     conditional-branch indices; attribute cycle/instruction deltas to
     the phase active at each retired branch (interval gaps — detector
     warmup — attribute to phase -1). *)
  let acc : (int, int * int * int) Hashtbl.t = Hashtbl.create 8 in
  let branch_index = ref 0 in
  let last_cycles = ref 0 in
  let last_instructions = ref 0 in
  (* The timeline is sorted and branch indices arrive monotonically, so
     a cursor suffices. *)
  let remaining = ref timeline in
  let phase_of i =
    let rec advance () =
      match !remaining with
      | (_, e, _) :: rest when i >= e ->
        remaining := rest;
        advance ()
      | _ -> ()
    in
    advance ();
    match !remaining with
    | (s, _, p) :: _ when i >= s -> p
    | _ -> -1
  in
  let on_branch_progress ~cycles ~instructions =
    incr branch_index;
    let p = phase_of !branch_index in
    let b, c, n = Option.value ~default:(0, 0, 0) (Hashtbl.find_opt acc p) in
    Hashtbl.replace acc p
      (b + 1, c + (cycles - !last_cycles), n + (instructions - !last_instructions));
    last_cycles := cycles;
    last_instructions := instructions
  in
  let (_ : stats) =
    simulate_internal ?config ?backend ?fuel ?mem_words ~on_branch_progress
      image
  in
  Hashtbl.fold
    (fun phase (branches, seg_cycles, seg_instructions) l ->
      {
        phase;
        branches;
        seg_cycles;
        seg_instructions;
        seg_ipc =
          (if seg_cycles = 0 then 0.0
           else float_of_int seg_instructions /. float_of_int seg_cycles);
      }
      :: l)
    acc []
  |> List.sort (fun a b -> compare a.phase b.phase)

let speedup ~baseline ~optimized =
  if optimized.cycles = 0 then 0.0
  else float_of_int baseline.cycles /. float_of_int optimized.cycles

let pp fmt s =
  Format.fprintf fmt
    "@[<v>cycles %d, instructions %d, IPC %.3f@,\
     mispredicts %d (ras %d), taken redirects %d@,\
     misses: L1I %d, L1D %d, L2 %d@,\
     stalls: fetch %d, data %d@]"
    s.cycles s.instructions s.ipc s.branch_mispredicts s.ras_mispredicts
    s.taken_redirects s.icache_misses s.dcache_misses s.l2_misses
    s.fetch_stall_cycles s.data_stall_cycles
