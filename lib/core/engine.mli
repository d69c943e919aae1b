(** The parallel experiment engine.

    The evaluation matrix — workloads × configurations, each cell a
    profile → rewrite → emulate/time chain — is a task DAG in which
    every (workload, configuration) cell is independent and all cells
    of one workload share a single profiling run.  The engine executes
    that DAG on a {!Vp_util.Pool} of domains and memoises every
    artefact, so the experiment tables afterwards read from caches.

    {b Determinism contract.}  Results are byte-identical for every
    [jobs] value, including [1] (the reference sequential schedule):
    each task works on isolated state — its own emulator state, cache
    and predictor models, and detector — created from pure inputs, and
    each DAG key is owned by exactly one task, so caches receive
    schedule-independent values.  Only the metrics in {!pp_summary}
    (wall-clock times) vary between runs; print them to stderr to keep
    stdout comparable. *)

type spec = { name : string; load : unit -> Vp_prog.Image.t }
(** A workload: a stable name (the cache key) and a pure image
    producer. *)

type cell = { key : string; config : Config.t }
(** A configuration column of the matrix, keyed for caching. *)

type metric = {
  kind : string;  (** [image], [profile], [rewrite], [coverage], [timing] *)
  label : string;
  wall_s : float;
  instructions : int;  (** instructions simulated by the task; 0 if none *)
  start_s : float;  (** [Unix.gettimeofday] when the task began *)
  domain : int;  (** OCaml domain id the task ran on — a Perfetto lane *)
}

type t

val create : ?jobs:int -> ?profile_config:Config.t -> unit -> t
(** An engine running at most [jobs] tasks concurrently (default
    {!Vp_util.Pool.default_jobs}; [jobs <= 1] is sequential).
    [profile_config] (default {!Config.default}) governs the shared
    profiling runs.  When its {!Config.obs} recorder is enabled, every
    memo miss is also recorded as a depth-0 span named [kind:label]
    with the task's wall time and simulated instructions, and {!run}
    flushes memo hit/miss counters. *)

val jobs : t -> int

val run :
  ?rewrites:bool ->
  ?timing:bool ->
  t ->
  specs:spec list ->
  cells:cell list ->
  unit ->
  unit
(** Execute the DAG: a [profile] task per spec, then per spec × cell a
    [rewrite] task feeding a [coverage] task (when [rewrites], default
    true) and a timing simulation of the rewritten image (when
    [timing], default false).  [timing] also simulates each original
    image once as the shared baseline.  If tasks failed, re-raises the
    exception of the first failed task by label order. *)

(** {2 Memoised accessors}

    Cache hits return the DAG's artefacts; misses compute sequentially
    (and are recorded as tasks), so ad-hoc lookups outside the matrix
    remain valid. *)

val image : t -> spec -> Vp_prog.Image.t
val profile : t -> spec -> Driver.profile
val rewrite : t -> spec -> cell -> Driver.rewrite
val coverage : t -> spec -> cell -> Coverage.t

val fleet : ?runs:int -> ?seed:int -> t -> spec -> Fleet.t
(** The memoised fleet aggregate for a workload: [runs] emulated user
    machines (default 64) derived from the shared profiling run with
    {!Fleet.default_noise} seeded by [seed] (default 42), aggregated
    against the profile's phase log.  Cache key is
    [(spec, runs, seed)]. *)

val session : ?epochs:int -> t -> spec -> cell -> Session.report
(** The memoised online re-optimization run for a workload under a
    cell's configuration: {!Session.run} over a fresh session on the
    workload's image.  [epochs] overrides the configured epoch count
    and is part of the cache key. *)

val baseline : t -> spec -> cpu:Vp_cpu.Config.t -> Vp_cpu.Pipeline.stats
(** Timing of the original image, shared across cells (the machine
    model is uniform over the matrix). *)

val optimized : t -> spec -> cell -> Vp_cpu.Pipeline.stats
(** Timing of the cell's rewritten image. *)

val truncated_profiles : t -> string list
(** Names of specs whose profiling run exhausted its fuel (sorted);
    non-empty means every derived metric reflects partial runs. *)

val metrics : t -> metric list

val pp_summary : Format.formatter -> t -> unit
(** The per-task metrics table plus memo-layer hit/miss counts and the
    task-seconds vs wall-seconds harness speedup. *)
