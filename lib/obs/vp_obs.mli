(** The observability recorder: one plane for pipeline spans, named
    counters, gauges and histograms, the flight recorder, and per-run
    interval timelines.

    A {!t} is threaded through the pipeline by [Vacuum.Config].  The
    {!disabled} recorder turns every entry point into one match on an
    immutable value, so instrumented paths cost nothing — and allocate
    nothing — when observability is off.  The execution cores are never
    instrumented directly: spans wrap them from outside, and timeline
    samplers are only installed when the recorder carries a sampling
    interval.

    {b Determinism contract.}  Metrics come in two volatility classes.
    {e Stable} metrics (the default for counters and histograms) carry
    schedule-independent values — instruction counts, cache events,
    demotion outcomes — so their {!Snapshot} is byte-identical for any
    [--jobs]/[--shards] and across execution backends.  {e Volatile}
    metrics (wall-clock readings, scheduler occupancy, every gauge)
    render only on request, after a [# volatile] marker.  Spans carry
    wall-clock readings and are never part of a stable artifact.
    Timelines are per-run and single-writer, so their traces are
    schedule-independent by ownership.

    {b Domains.}  One mutex guards the recorder (metric registry, span
    ring, flight marks); every update is a cold once-per-stage or
    once-per-epoch event.  The open-span stack is domain-local, so
    concurrent engine tasks nest their spans independently. *)

type t
(** A recorder; either {!disabled} or created by {!create}. *)

val disabled : t
(** The shared no-op recorder: the default everywhere. *)

val create : ?interval:int -> ?flight_dir:string -> unit -> t
(** A fresh enabled recorder.  [interval], when given, is the
    {!Timeline} sampling interval in retired instructions (must be
    positive); without it {!Timeline.create} returns
    {!Timeline.disabled}.  [flight_dir] enables {!Flight.dump}. *)

val enabled : t -> bool

val interval : t -> int option
(** The timeline sampling interval, if any. *)

val default_interval : int
(** 10_000 retired instructions. *)

val span_capacity : int
(** Size of the completed-span ring (4096); older spans are dropped
    and counted once it wraps. *)

val flight_capacity : int
(** Size of the flight-recorder mark ring (64). *)

(** Fixed-bucket log-scale histogram with exact count and sum.

    64 buckets: bucket 0 holds values [<= 0], bucket [i >= 1] holds
    values in [(2^(i-2), 2^(i-1)]] (upper bound [2^(i-1)]), with the
    last bucket absorbing everything larger.  Quantiles are read as
    the upper bound of the bucket where the cumulative count first
    reaches [ceil (q * count)] — an upper bound with at most 2x
    relative error.  [merge_into] is associative and commutative. *)
module Hist : sig
  type h

  val buckets : int
  val create : unit -> h
  val observe : h -> int -> unit
  val count : h -> int
  val sum : h -> int

  val bound : int -> int
  (** Upper bound of bucket [i]: [bound 0 = 0], [bound i = 2^(i-1)]. *)

  val index : int -> int
  val bucket_count : h -> int -> int

  val quantile : h -> float -> int
  (** [quantile h q] for [q] in [0, 1]; [0] on an empty histogram. *)

  val merge_into : dst:h -> h -> unit
  val copy : h -> h
end

(** Named monotone counters.  The first use of a name fixes its kind
    and volatility; a later use under another kind is dropped. *)
module Counter : sig
  val bump : ?volatile:bool -> t -> string -> int -> unit
  (** Add to the named counter, registering it (even for [0]). *)

  val value : t -> string -> int
end

(** Named last-writer-wins cells; always volatile. *)
module Gauge : sig
  val set : t -> string -> int -> unit
  val value : t -> string -> int
end

(** Named {!Hist}ograms; [~volatile:true] for wall-clock series. *)
module Histogram : sig
  val observe : ?volatile:bool -> t -> string -> int -> unit

  val get : t -> string -> Hist.h option
  (** A copy of the named histogram's current state. *)
end

(** Nestable stage spans, kept in a bounded ring. *)
module Span : sig
  type token

  val null : token
  (** What {!enter} returns on a disabled recorder. *)

  val enter : t -> string -> token
  (** Open a span, one level deeper than the innermost span open on
      this domain. *)

  val exit : ?work:int -> t -> token -> unit
  (** Close the span and record its wall-clock seconds, minor/major
      allocation words and [work] (default [0]). *)

  val record : ?work:('a -> int) -> t -> string -> (unit -> 'a) -> 'a
  (** [enter] / [f ()] / [exit], exception-safe; a span whose [f]
      raises is recorded with work [-1]. *)

  val note : t -> string -> wall_s:float -> work:int -> unit
  (** Append an already-measured depth-0 span. *)
end

(** One completed span. *)
type span = {
  name : string;
  depth : int;  (** nesting level at entry, 0 = top *)
  lane : int;
      (** the recording domain, numbered from 0 in order of its first
          span on this recorder *)
  seq : int;  (** global completion index *)
  start_s : float;  (** [Unix.gettimeofday] at entry *)
  wall_s : float;
  work : int;  (** caller-defined; retired instructions for run spans *)
  minor_words : float;
  major_words : float;
}

(** Human-facing views of the recorder. *)
module Sink : sig
  val spans : t -> span list
  (** Surviving spans in completion order, oldest first. *)

  val counters : t -> (string * int) list
  (** Every counter, sorted by name. *)

  val dropped_spans : t -> int
  val span_table : t -> Vp_util.Tabular.t
  val counter_table : t -> Vp_util.Tabular.t
end

(** OpenMetrics-style text exposition, schema [vp-metrics-snapshot/1]
    (DESIGN.md §7c): [# vp-metrics-snapshot/1] first, [# EOF] last;
    names have [.]/[-] mapped to [_]; counters render as
    [n_total V], gauges as [n V], histograms as cumulative
    [n_bucket{le="B"} C] lines plus [_sum]/[_count]/[_p50]/[_p90]/[_p99].
    Stable metrics sorted by name come first; with [~volatile:true] a
    [# volatile] marker and the volatile metrics follow. *)
module Snapshot : sig
  type sample = Counter of int | Gauge of int | Hist of Hist.h

  val samples : ?volatile:bool -> t -> (string * sample) list
  val render : ?volatile:bool -> t -> string

  val write : ?volatile:bool -> t -> path:string -> unit
  (** Atomic rewrite through [path ^ ".tmp"]. *)

  val validate_file : path:string -> (int, string) result
  (** [Ok n] is the number of lines; errors name the line. *)

  val read : path:string -> ((string * sample) list, string) result
  (** Parse a snapshot back (names in rendered form). *)
end

(** Chrome trace-event / Perfetto JSON, schema [vp-perfetto-trace/1]:
    one complete event per line, pid = component, tid = lane,
    timestamps in microseconds from the earliest event. *)
module Perfetto : sig
  type event = {
    name : string;
    cat : string;
    pid : int;
    tid : int;
    ts_us : float;  (** absolute; normalized on write *)
    dur_us : float;
  }

  val of_spans : pid:int -> cat:string -> span list -> event list
  (** Spans as events with one lane ([tid]) per recording domain;
      nesting within a lane follows from the events' extents. *)

  val write : ?processes:(int * string) list -> path:string -> event list -> unit
  (** [processes] adds [process_name] metadata records (pid, label). *)

  val write_spans : t -> path:string -> unit
  (** The recorder's span ring as a one-process ([driver]) trace — the
      [--trace] export of [vpack report]/[stats] and the bench. *)

  val validate_file : path:string -> (int, string) result
end

(** Flight recorder: a bounded ring of recent marks (demotions,
    rejections, oracle failures), dumped with the full recorder state
    for post-hoc diagnosis. *)
module Flight : sig
  val note : t -> kind:string -> label:string -> unit

  val dump : t -> reason:string -> label:string -> unit -> unit
  (** Write [<flight_dir>/flight-<label>-<n>.metrics] (the snapshot,
      volatile section included, with [# reason]/[# mark] comment
      lines) and, when spans were recorded,
      [flight-<label>-<n>-spans.json] ({!Perfetto.write_spans}).  [n]
      counts dumps per label.  No-op without a [flight_dir]. *)

  val dumps : t -> int
end

(** {!Vp_util.Pool.hooks} over the recorder: per-domain task counts
    ([pool.tasks.dK]), queue depth at submit ([pool.queue_depth]) and
    per-domain busy time ([pool.busy_us.dK]), all volatile. *)
module Sched : sig
  val hooks : t -> Vp_util.Pool.hooks option
  (** [None] when disabled, so the pool's no-hook path is taken. *)
end

(** Per-run interval timelines of the simulated machine.

    A timeline samples one run every [interval] retired instructions:
    named integer series (HDC value, BBB occupancy, package residency,
    cache misses, …) plus rare discrete events stamped with their
    position in the run.  It belongs to exactly one run — the driver
    creates one per profiling run, coverage one per rewritten run, the
    timing model one per simulation — so it needs no lock and its
    trace is byte-identical under any engine schedule. *)
module Timeline : sig
  type recorder := t
  type t

  val disabled : t

  val create : ?name:string -> recorder -> t
  (** A fresh timeline when the recorder has a sampling interval,
      {!disabled} otherwise.  [name] labels the run (session epochs
      use ["epoch-K"]) and is written as a ["run"] key on each of its
      trace records. *)

  val enabled : t -> bool
  val interval_length : t -> int
  val name : t -> string option

  val intervals : t -> int
  (** Length of the longest series. *)

  (** Named per-interval series, dense from interval 0. *)
  module Series : sig
    type id

    val register : t -> string -> id
    val push : t -> id -> int -> unit
    val length : t -> id -> int
    val values : t -> id -> int array
    val names : t -> string list
    val find : t -> string -> int array option
  end

  (** Discrete run events; [at] is in the recording pass's unit
      (retired branches for detector events, retired instructions for
      residency events). *)
  module Event : sig
    val emit : t -> kind:string -> at:int -> value:int -> unit
    val all : t -> (string * int * int) list
    val count : t -> kind:string -> int
  end

  val summary : t -> (string * int * int * int * int) list
  (** Per series, sorted: (name, samples, min, max, total). *)

  val event_counts : t -> (string * int) list

  val write_trace : path:string -> t list -> unit
  (** JSON-lines trace, schema [vp-timeline-trace/1]: one meta line,
      one [series] record per series of each timeline in order, then
      one [event] record per event.  Disabled timelines contribute
      nothing; no wall-clock readings. *)

  val validate_file : path:string -> (int, string) result
end

(** ASCII rendering primitives for timelines and histograms. *)
module Render : sig
  val sparkline : ?width:int -> int array -> string
  (** Eight-level density sparkline (glyphs [" .:-=+*#"]), max-pooled
      to [width] (default 72) columns. *)

  val lane : ?width:int -> total:int array -> int array -> string
  (** Per column, [part/total] as a glyph of [" .:oO#"] (at 0, >0,
      >=5%, >=25%, >=50%, >=90%). *)

  val extent_rows :
    ?width:int -> cum:int array -> (int * int * int) list -> (int * string) list
  (** Phase extent bars: [cum.(i)] is the cumulative branch count at
      the end of interval [i]; the [(start, stop, phase)] extents are
      in branch indices.  One [(phase, row)] per phase, sorted, with
      ['='] where the column's branch span meets an extent. *)
end
