(** The online re-optimization loop (ROADMAP item 2).

    Where {!Driver} performs one offline profile → package → rewrite
    pass, a session keeps one machine running and re-optimizes it in
    epochs:

    + run one fuel-bounded slice of the {e currently active} image,
      feeding the Hot Spot Detector with branch outcomes folded back
      into original-pc space through {!Vp_package.Emit.result}
      [branch_map] — so profiling continues over the rewritten image;
    + classify each detected phase against the package cache with
      {!Vp_phase.Similarity.score}: at or above the drift threshold it
      is a cached phase re-observed, below it is {e drift} and a new
      region is identified and packaged from the pristine original;
    + bound the cache by the paper's Table 3 expansion budget
      ([Config.session.cache_pct] of the original's static size),
      evicting least-resident-first — the residency signal integrates
      the PR 4 per-package telemetry lanes plus matched phase extents,
      halved each epoch;
    + re-assemble every cached package against the original image
      through {!Driver.assemble} (screening, linking, emission,
      verification, and the demotion ladder), then hot-patch the
      running machine: the swap happens only at a {e quiescent} point
      — pc in original code and no live package-space return address —
      sought within a bounded grace window, deferred to the next epoch
      otherwise;
    + optionally check the differential oracle: the candidate image,
      run standalone, must be architecturally equivalent to the
      original before it may be activated.

    Determinism: a session is single-owner like a {!Driver.profile}
    run (per-epoch timelines, fresh detectors), so N-epoch runs are
    byte-identical under any job count and across execution backends.
    When the program halts inside a session, the continuously-patched
    machine's final checksum is compared against a clean run of the
    original — the end-to-end equivalence verdict in
    {!report.equivalent}. *)

type epoch_report = {
  epoch : int;  (** 0-based *)
  slice : Vp_exec.Emulator.outcome;  (** the epoch's profiling slice *)
  grace_used : int;  (** instructions spent seeking a safe patch point *)
  grace_package_instructions : int;
  phases_seen : int;  (** unique phases in this epoch's log *)
  new_entries : int list;  (** cache ids created (drift) *)
  matched_entries : int list;  (** cache ids re-observed *)
  evicted : int list;  (** cache ids evicted *)
  cache_entries : int;
  cache_instructions : int;  (** cached package code, static instrs *)
  activated : bool;  (** a re-assembled image was hot-patched in *)
  deferred : bool;  (** assembly ready but no quiescent point found *)
  fallback : bool;  (** the ladder hit [Fallback_image] this epoch *)
  verifier_ok : bool;
  oracle_ok : bool option;  (** [None] when the oracle is off or idle *)
  drops : Driver.demotion list;
  coverage_pct : float;  (** package share of this epoch's instructions *)
  timeline : Vp_obs.Timeline.t;
      (** per-epoch interval series ([session.instructions],
          [session.branches], [session.package_instructions]) and
          [drift]/[evict]/[activate]/[defer] events, named ["epoch-K"]
          so a multi-epoch vp-timeline-trace/1 file keeps epochs
          distinguishable *)
}

type report = {
  epochs : epoch_report list;
  instructions : int;  (** total retired across all epochs *)
  package_instructions : int;
  cond_branches : int;
  halted : bool;
  coverage_pct : float;  (** whole-session Figure 8 metric *)
  activations : int;
  final_cache_entries : int;
  final_image : Vp_prog.Image.t;
  equivalent : bool option;
      (** end-to-end oracle: once the program halts, the live-patched
          machine must have computed exactly what the original would
          have ([None] while still running) *)
}

type t

val create : ?config:Config.t -> Vp_prog.Image.t -> t
(** A session over the given original image: one persistent machine
    state positioned at the entry point, an empty package cache, the
    original image active.  Raises on an invalid image. *)

val step : t -> epoch_report
(** Run one epoch (slice, classify, evict, re-assemble, patch).
    Raises [Error.Error] with stage ["session"] if the program has
    already halted. *)

val run : ?epochs:int -> t -> report
(** Step until [epochs] total epochs have run (default
    [Config.session.epochs]) or the program halts, then {!report}.
    Counting is absolute, so [step; step; run ~epochs:4] continues at
    epoch 2 and is identical to [run ~epochs:4] from scratch. *)

val report : t -> report
(** The report so far without running anything. *)

val halted : t -> bool

val epochs_run : t -> int

val image : t -> Vp_prog.Image.t
(** The currently active (possibly hot-patched) image. *)

val cache_entries : t -> int

val pp_epoch : Format.formatter -> epoch_report -> unit
val pp_report : Format.formatter -> report -> unit
