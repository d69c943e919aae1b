(** End-to-end Vacuum Packing configuration.

    The type is abstract: build one with {!v} (every field defaulted)
    or {!experiment}, derive variants with the [with_*] setters, and
    read fields through the accessors.  Downstream code never
    constructs the record literally, so adding a field — like the
    {!obs} recorder — is not a breaking change.

    The four configurations evaluated in Figures 8 and 10 are the
    cross product of hot-block inference and package linking; build
    them with {!experiment}. *)

type t

type session = {
  epoch_fuel : int;
      (** retired instructions per epoch slice; 0 (the default) means
          auto — the baseline run's instruction count divided by
          [epochs], so a default session spans the whole program *)
  epochs : int;  (** default epoch count for [Session.run] (4) *)
  cache_pct : float;
      (** package cache budget as a percentage of the original image's
          static instruction count — the paper's Table 3 expansion
          budget repurposed as the cache-size knob (30.0) *)
  drift_threshold : float;
      (** [Similarity.score] at or above which a freshly detected phase
          is classified as a cached one re-observed rather than drift
          (0.5) *)
  patch_grace : int;
      (** extra instructions the session may run past an epoch boundary
          to reach a quiescent point before hot-patching (50_000) *)
  oracle : bool;
      (** run the per-epoch differential oracle: each activated image
          is executed standalone and must be architecturally
          equivalent to the original (true) *)
}

val default_session : session

val v :
  ?detector:Vp_hsd.Config.t ->
  ?history_size:int ->
  ?similarity:Vp_phase.Similarity.config ->
  ?identify:Vp_region.Identify.config ->
  ?linking:bool ->
  ?opt:Vp_opt.Opt.config ->
  ?cpu:Vp_cpu.Config.t ->
  ?backend:Vp_exec.Emulator.backend ->
  ?mem_words:int ->
  ?fuel:int ->
  ?obs:Vp_obs.t ->
  ?fault:Vp_fault.Plan.t ->
  ?degrade:bool ->
  ?session:session ->
  unit ->
  t
(** Every argument defaults to the corresponding {!default} field. *)

val default : t
(** [v ()]: Table 2 detector, inference and linking on, layout and
    scheduling on, observability disabled. *)

val experiment : inference:bool -> linking:bool -> t
(** One of the four Figure 8 / Figure 10 configurations.  Uses the
    paper's optimization set (relayout + rescheduling only); the
    library default additionally enables superblock formation. *)

val experiment_name : inference:bool -> linking:bool -> string

(** {1 Accessors} *)

val detector : t -> Vp_hsd.Config.t

val counter_max : t -> int
(** The saturation cap of the detector's BBB counters,
    [2^counter_bits - 1] (511 for the Table 2 detector).  Every
    software consumer of counter values — fault injection, fleet
    aggregation — must use this single derivation rather than
    re-deriving the width. *)

val history_size : t -> int
(** Hardware snapshot history (0 = record all). *)

val similarity : t -> Vp_phase.Similarity.config
val identify : t -> Vp_region.Identify.config
val linking : t -> bool
val opt : t -> Vp_opt.Opt.config
val cpu : t -> Vp_cpu.Config.t

val backend : t -> Vp_exec.Emulator.backend
(** Which emulation core every run in the pipeline uses — profiling,
    coverage, chaos oracles, fleet emulation, session slices and the
    timing model's retire feed all pass it to
    {!Vp_exec.Emulator.run_backend} or {!Vp_exec.Emulator.run_slice}.
    Defaults to {!Vp_exec.Emulator.default_backend} (the decoded core).
    All backends are bit-identical, so the choice moves only wall-clock
    time; [Reference] runs the executable specification. *)

val mem_words : t -> int
val fuel : t -> int

val obs : t -> Vp_obs.t
(** The observability recorder the pipeline reports through
    ({!Vp_obs.disabled} by default): spans, counters, histograms and
    flight marks go into this one shared recorder, and every run
    (profiling, coverage, timing, session epoch) creates its own
    per-run {!Vp_obs.Timeline} from it, so timelines stay deterministic
    under any [Vacuum.Engine] schedule.  Its {e stable} snapshot is
    byte-identical across [--jobs], shards and backends. *)

val fault : t -> Vp_fault.Plan.t option
(** The fault plan injected at the hardware→software boundary; [None]
    (the default) leaves the pipeline untouched. *)

val degrade : t -> bool
(** Graceful degradation (default [true]): stage failures and verifier
    rejections demote — drop the package, then the region, then fall
    back to the unmodified image — instead of raising. *)

val session : t -> session
(** The online re-optimization loop's knobs ({!default_session} by
    default); only [Vacuum.Session] reads them. *)

(** {1 Functional setters} *)

val with_detector : Vp_hsd.Config.t -> t -> t
(** Replace the detector model (tests use the tiny configuration). *)

val with_history_size : int -> t -> t
val with_similarity : Vp_phase.Similarity.config -> t -> t
val with_identify : Vp_region.Identify.config -> t -> t
val with_linking : bool -> t -> t
val with_opt : Vp_opt.Opt.config -> t -> t
val with_cpu : Vp_cpu.Config.t -> t -> t
val with_backend : Vp_exec.Emulator.backend -> t -> t
val with_mem_words : int -> t -> t
val with_fuel : int -> t -> t
val with_obs : Vp_obs.t -> t -> t
val with_fault : Vp_fault.Plan.t -> t -> t
val without_fault : t -> t
val with_degrade : bool -> t -> t

val with_session : session -> t -> t
val map_session : (session -> session) -> t -> t

val map_identify : (Vp_region.Identify.config -> Vp_region.Identify.config) -> t -> t
(** Rewrite the identify sub-configuration in place — the common case
    for experiment variants that tweak one nested knob. *)

(** {1 Rendering} *)

val pp : Format.formatter -> t -> unit
(** Indented JSON rendering of every effective field, including the
    [session.*] knobs — what `vpack stats` prints. *)

val to_json : t -> string
(** The same tree as {!pp} on a single line: a valid JSON object for
    machine consumers (epoch reports, trace tooling). *)
