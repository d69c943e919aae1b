module Snapshot = Vp_hsd.Snapshot
module Profile = Vp_aggregate.Profile
module Wire = Vp_aggregate.Wire
module Shard = Vp_aggregate.Shard
module Phase_log = Vp_phase.Phase_log
module Rng = Vp_util.Rng

let src = Logs.Src.create "vacuum.fleet" ~doc:"Fleet profile aggregation"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  runs : int;
  classes : (int * Profile.t) list;
  stats : Shard.stats;
  digest : int;
}

(* Mild per-machine perturbation: each emulated user machine sees the
   workload's snapshot stream through its own lossy hardware — a few
   snapshots dropped or delivered twice, a few counters saturated or
   zeroed.  Strong enough that no two machines ship identical streams,
   weak enough that the fleet consensus still recovers the phases. *)
let default_noise =
  Vp_fault.Plan.v ~drop:0.05 ~duplicate:0.03 ~reorder:0.02 ~saturate:0.03
    ~zero_counters:0.01 "fleet-noise"

let emulate_runs ?(config = Config.default) ?(noise = default_noise)
    ?(seed = 42) ~runs (base : Driver.profile) =
  if runs <= 0 then
    Error.failf ~stage:"fleet" "fleet size must be positive (got %d)" runs;
  let counter_max = Config.counter_max config in
  let root = Rng.create ~seed in
  (* Each machine's faults draw from its own splittable stream keyed by
     the run index, so the fleet is identical whatever order (or
     schedule) the runs are materialised in. *)
  List.init runs (fun i ->
      let plan = Vp_fault.Plan.with_seed noise (Rng.stream_seed root i) in
      let snapshots =
        if Vp_fault.Plan.is_clean plan then base.Driver.snapshots
        else
          Vp_fault.Inject.snapshots ~plan ~counter_max base.Driver.snapshots
      in
      { Wire.run_id = i; weight = 1; counter_max; snapshots })

let classifier ?(config = Config.default) (base : Driver.profile) =
  let same = Vp_phase.Similarity.same ~config:(Config.similarity config) in
  let reps =
    List.map
      (fun (ph : Phase_log.phase) ->
        (ph.Phase_log.id, ph.Phase_log.representative))
      (Phase_log.phases base.Driver.log)
  in
  fun snap ->
    List.find_map
      (fun (id, rep) -> if same rep snap then Some id else None)
      reps

(* Order-fixed FNV mix over the per-class digests: one integer that
   pins down the whole aggregate, printed by [vpack aggregate] so CI
   can assert shard/job invariance by diffing stdout. *)
let digest_classes classes =
  List.fold_left
    (fun h (id, p) ->
      let h = (h lxor id) * 0x100000001b3 land max_int in
      (h lxor Profile.digest p) * 0x100000001b3 land max_int)
    0xbf29ce484222325 classes

let aggregate ?(config = Config.default) ?shards ?jobs ~base wire_runs =
  let counter_max = Config.counter_max config in
  let classify = classifier ~config base in
  let obs = Config.obs config in
  let wall0 = if Vp_obs.enabled obs then Unix.gettimeofday () else 0.0 in
  let classes, stats =
    Shard.aggregate_classes ?shards ?jobs ~counter_max ~classify wire_runs
  in
  (* Stable merge totals are shard/job-invariant; throughput is wall
     clock, hence a (volatile) gauge. *)
  Vp_obs.Counter.bump obs "aggregate.runs" stats.Shard.runs;
  Vp_obs.Counter.bump obs "aggregate.snapshots" stats.Shard.snapshots;
  Vp_obs.Counter.bump obs "aggregate.classified" stats.Shard.classified;
  if Vp_obs.enabled obs then begin
    let dt = Unix.gettimeofday () -. wall0 in
    Vp_obs.Gauge.set obs "aggregate.snapshots_per_sec"
      (int_of_float (float_of_int stats.Shard.snapshots /. Float.max dt 1e-9))
  end;
  Log.debug (fun m ->
      m "aggregated %d runs (%d snapshots, %d dropped) into %d classes"
        stats.Shard.runs stats.Shard.snapshots stats.Shard.dropped
        (List.length classes));
  {
    runs = stats.Shard.runs;
    classes;
    stats;
    digest = digest_classes classes;
  }

let consensus_snapshots ?(config = Config.default) t =
  let counter_max = Config.counter_max config in
  List.filter_map
    (fun (id, p) ->
      let s = Profile.to_snapshot ~id ~scale_to:counter_max p in
      if s.Snapshot.branches = [] then None else Some s)
    t.classes

let profile_of_fleet ?(config = Config.default) ~base t =
  Driver.with_snapshots
    ~similarity:(Config.similarity config)
    base
    (consensus_snapshots ~config t)

let rewrite ?(config = Config.default) ?noise ?seed ?shards ?jobs ~runs image
    =
  let base = Driver.profile ~config image in
  let wire = emulate_runs ~config ?noise ?seed ~runs base in
  let t = aggregate ~config ?shards ?jobs ~base wire in
  (Driver.rewrite_of_profile ~config (profile_of_fleet ~config ~base t), t)
