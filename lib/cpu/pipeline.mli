(** Trace-driven timing model of the Table 2 EPIC machine.

    The functional emulator supplies the retired instruction stream;
    this model charges cycles for in-order multi-issue with functional
    unit contention, operand latency interlocks, I-cache/D-cache/L2
    misses, taken-branch fetch redirects and branch/return
    mispredictions (charged at the 7-cycle resolution depth).
    Wrong-path cache pollution is not simulated — the misprediction
    penalty is the paper's fixed resolution latency (documented
    substitution in DESIGN.md). *)

type stats = {
  cycles : int;
  instructions : int;
  ipc : float;
  branch_mispredicts : int;
  ras_mispredicts : int;
  taken_redirects : int;  (** correctly predicted taken-branch bubbles *)
  icache_misses : int;
  dcache_misses : int;
  l2_misses : int;
  fetch_stall_cycles : int;
  data_stall_cycles : int;
  fetch_line_buffer_hits : int;
      (** fetches absorbed by the I-side line buffer (no cache access) *)
  data_line_buffer_hits : int;
      (** loads/stores absorbed by the D-side line buffer *)
}

val simulate :
  ?config:Config.t ->
  ?backend:Vp_exec.Emulator.backend ->
  ?fuel:int ->
  ?mem_words:int ->
  ?timeline:Vp_obs.Timeline.t ->
  Vp_prog.Image.t ->
  stats
(** Emulate the image and time its retirement stream.  [backend]
    selects which functional emulator produces the retire feed through
    {!Vp_exec.Emulator.run_backend} (default
    {!Vp_exec.Emulator.default_backend}); all backends deliver
    bit-identical streams, so the choice only affects wall-clock
    simulation speed.  With an enabled
    [timeline], per-interval deltas of the timing series are
    recorded under the [timing.*] names ([instructions], [cycles],
    [icache_misses], [dcache_misses], [l2_misses], [mispredicts],
    [fetch_stalls], [data_stalls]); the disabled default costs one
    immutable-boolean test per retirement. *)

type phase_stats = {
  phase : int;  (** phase id from the timeline; -1 = between intervals *)
  branches : int;  (** retired conditional branches attributed *)
  seg_cycles : int;
  seg_instructions : int;
  seg_ipc : float;
}

val simulate_phases :
  ?config:Config.t ->
  ?backend:Vp_exec.Emulator.backend ->
  ?fuel:int ->
  ?mem_words:int ->
  timeline:(int * int * int) list ->
  Vp_prog.Image.t ->
  phase_stats list
(** Attribute cycles and instructions to the phases of a
    {!Vp_phase.Phase_log.timeline} — per-phase IPC on the Table 2
    machine.  Sorted by phase id; detector warm-up windows between
    intervals report as phase [-1]. *)

val speedup : baseline:stats -> optimized:stats -> float
(** [baseline.cycles / optimized.cycles]. *)

val pp : Format.formatter -> stats -> unit
