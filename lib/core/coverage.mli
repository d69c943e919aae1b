(** Figure 8 metric: the percentage of dynamic instructions retired
    from package code when the rewritten binary runs, plus the
    rewrite-correctness check (the packaged binary must compute
    exactly what the original computed). *)

type t = {
  coverage_pct : float;
  outcome : Vp_exec.Emulator.outcome;  (** the rewritten run *)
  equivalent : bool;  (** checksum and result match the original *)
  residency : Vp_obs.Timeline.t;
      (** per-run address-range attribution of the rewritten run:
          series [run.instructions], [run.orig.instructions], and one
          [run.<package-symbol>.instructions] per emitted package,
          plus [launch] (original to package), [side_exit] (package to
          original) and [migrate] (package to package) events stamped
          with the retired-instruction index.  Summing a package lane
          over all intervals reproduces that package's share of
          [outcome.package_instructions] — the Figure 8 numerator.
          {!Vp_obs.Timeline.disabled} unless the configuration's
          recorder has a sampling interval. *)
}

val measure : ?config:Config.t -> Driver.rewrite -> t

val lanes_of_image : Vp_prog.Image.t -> int array * string array
(** pc -> residency lane, plus lane names.  Lane 0 is the original
    program ("orig"); lane k > 0 is the k-th symbol appended at or
    above [orig_limit] (one lane per emitted package), named by its
    symbol.  Shared with [Vacuum.Session], whose cache-eviction signal
    integrates these lanes per epoch. *)
