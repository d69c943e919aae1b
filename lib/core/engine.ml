module Pool = Vp_util.Pool
module Tabular = Vp_util.Tabular
module Emulator = Vp_exec.Emulator
module Pipeline = Vp_cpu.Pipeline

type spec = { name : string; load : unit -> Vp_prog.Image.t }
type cell = { key : string; config : Config.t }

type metric = {
  kind : string;
  label : string;
  wall_s : float;
  instructions : int;
  start_s : float;
  domain : int;
}

type t = {
  jobs : int;
  profile_config : Config.t;
  lock : Mutex.t;
  images : (string, Vp_prog.Image.t) Hashtbl.t;
  profiles : (string, Driver.profile) Hashtbl.t;
  rewrites : (string * string, Driver.rewrite) Hashtbl.t;
  coverages : (string * string, Coverage.t) Hashtbl.t;
  fleets : (string * string, Fleet.t) Hashtbl.t;
  sessions : (string * string, Session.report) Hashtbl.t;
  baselines : (string, Pipeline.stats) Hashtbl.t;
  optimizeds : (string * string, Pipeline.stats) Hashtbl.t;
  mutable metrics : metric list;
  mutable hits : int;
  mutable misses : int;
  mutable truncated_rev : string list;
  mutable dag_wall_s : float;
}

let create ?(jobs = Pool.default_jobs ()) ?(profile_config = Config.default) ()
    =
  {
    jobs = Stdlib.max 1 jobs;
    profile_config;
    lock = Mutex.create ();
    images = Hashtbl.create 32;
    profiles = Hashtbl.create 32;
    rewrites = Hashtbl.create 64;
    coverages = Hashtbl.create 64;
    fleets = Hashtbl.create 16;
    sessions = Hashtbl.create 16;
    baselines = Hashtbl.create 32;
    optimizeds = Hashtbl.create 64;
    metrics = [];
    hits = 0;
    misses = 0;
    truncated_rev = [];
    dag_wall_s = 0.0;
  }

let jobs t = t.jobs

let now () = Unix.gettimeofday ()

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* The memo layer: every cache goes through here so hits and misses
   are counted, and every miss is timed and recorded as a task metric.
   During {!run} the DAG assigns each key to exactly one task, so the
   unlocked compute never races with itself on a key; outside the DAG
   this is ordinary sequential memoisation. *)
let memo t table ~kind ~label ~instructions key compute =
  match
    locked t (fun () ->
        match Hashtbl.find_opt table key with
        | Some v ->
          t.hits <- t.hits + 1;
          Some v
        | None ->
          t.misses <- t.misses + 1;
          None)
  with
  | Some v -> v
  | None ->
    let t0 = now () in
    let v = compute () in
    let wall_s = now () -. t0 in
    let work = instructions v in
    let obs = Config.obs t.profile_config in
    Vp_obs.Span.note obs (kind ^ ":" ^ label) ~wall_s ~work;
    Vp_obs.Histogram.observe ~volatile:true obs "engine.task.wall_us"
      (int_of_float (wall_s *. 1e6));
    locked t (fun () ->
        Hashtbl.replace table key v;
        t.metrics <-
          {
            kind;
            label;
            wall_s;
            instructions = work;
            start_s = t0;
            domain = (Domain.self () :> int);
          }
          :: t.metrics);
    v

let image t spec =
  memo t t.images ~kind:"image" ~label:spec.name
    ~instructions:(fun _ -> 0)
    spec.name spec.load

let profile t spec =
  let p =
    memo t t.profiles ~kind:"profile" ~label:spec.name
      ~instructions:(fun (p : Driver.profile) ->
        p.Driver.outcome.Emulator.instructions)
      spec.name
      (fun () -> Driver.profile ~config:t.profile_config (image t spec))
  in
  if p.Driver.truncated then
    locked t (fun () ->
        if not (List.mem spec.name t.truncated_rev) then
          t.truncated_rev <- spec.name :: t.truncated_rev);
  p

let cell_label spec cell = spec.name ^ " [" ^ cell.key ^ "]"

let rewrite t spec cell =
  memo t t.rewrites ~kind:"rewrite" ~label:(cell_label spec cell)
    ~instructions:(fun _ -> 0)
    (spec.name, cell.key)
    (fun () -> Driver.rewrite_of_profile ~config:cell.config (profile t spec))

let coverage t spec cell =
  memo t t.coverages ~kind:"coverage" ~label:(cell_label spec cell)
    ~instructions:(fun (c : Coverage.t) ->
      c.Coverage.outcome.Emulator.instructions)
    (spec.name, cell.key)
    (fun () -> Coverage.measure ~config:cell.config (rewrite t spec cell))

let fleet ?(runs = 64) ?(seed = 42) t spec =
  let key = Printf.sprintf "fleet:r%d:s%d" runs seed in
  memo t t.fleets ~kind:"fleet"
    ~label:(spec.name ^ " [" ^ key ^ "]")
    ~instructions:(fun (f : Fleet.t) -> f.Fleet.stats.Vp_aggregate.Shard.snapshots)
    (spec.name, key)
    (fun () ->
      let base = profile t spec in
      Fleet.aggregate ~config:t.profile_config ~base
        (Fleet.emulate_runs ~config:t.profile_config ~seed ~runs base))

let session ?epochs t spec cell =
  let key =
    match epochs with
    | None -> cell.key
    | Some n -> Printf.sprintf "%s:e%d" cell.key n
  in
  memo t t.sessions ~kind:"session"
    ~label:(spec.name ^ " [" ^ key ^ "]")
    ~instructions:(fun (r : Session.report) -> r.Session.instructions)
    (spec.name, key)
    (fun () ->
      Session.run ?epochs (Session.create ~config:cell.config (image t spec)))

let baseline t spec ~cpu =
  memo t t.baselines ~kind:"timing" ~label:(spec.name ^ " [baseline]")
    ~instructions:(fun (s : Pipeline.stats) -> s.Pipeline.instructions)
    spec.name
    (fun () ->
      Pipeline.simulate ~config:cpu
        ~backend:(Config.backend t.profile_config)
        (image t spec))

let optimized t spec cell =
  memo t t.optimizeds ~kind:"timing" ~label:(cell_label spec cell)
    ~instructions:(fun (s : Pipeline.stats) -> s.Pipeline.instructions)
    (spec.name, cell.key)
    (fun () ->
      Pipeline.simulate
        ~config:(Config.cpu cell.config)
        ~backend:(Config.backend cell.config)
        (Driver.rewritten_image (rewrite t spec cell)))

let truncated_profiles t =
  locked t (fun () -> List.sort compare t.truncated_rev)

(* ------------------------------------------------------------------ *)
(* The bench matrix as a task DAG: one profile task per workload; off
   each completed profile, one rewrite task per cell, which in turn
   spawns the coverage run and (optionally) the timing simulation of
   its rewritten image; the original-image timing baseline also keys
   off nothing but the image and runs beside the rewrites. *)

let run ?(rewrites = true) ?(timing = false) t ~specs ~cells () =
  let t0 = now () in
  let hits0, misses0 = locked t (fun () -> (t.hits, t.misses)) in
  let errors = ref [] in
  let guard label f () =
    try f ()
    with e -> locked t (fun () -> errors := (label, e) :: !errors)
  in
  let obs = Config.obs t.profile_config in
  let pool = Pool.create ~jobs:t.jobs ?hooks:(Vp_obs.Sched.hooks obs) () in
  List.iter
    (fun spec ->
      Pool.submit pool
        (guard ("profile " ^ spec.name) (fun () ->
             ignore (profile t spec);
             (if timing then
                match cells with
                | cell :: _ ->
                  (* The machine model is uniform across cells. *)
                  Pool.submit pool
                    (guard (spec.name ^ " [baseline]") (fun () ->
                         ignore (baseline t spec ~cpu:(Config.cpu cell.config))))
                | [] -> ());
             if rewrites then
               List.iter
                 (fun cell ->
                   Pool.submit pool
                     (guard
                        ("rewrite " ^ cell_label spec cell)
                        (fun () ->
                          ignore (rewrite t spec cell);
                          Pool.submit pool
                            (guard
                               ("coverage " ^ cell_label spec cell)
                               (fun () -> ignore (coverage t spec cell)));
                          if timing then
                            Pool.submit pool
                              (guard
                                 ("timing " ^ cell_label spec cell)
                                 (fun () -> ignore (optimized t spec cell))))))
                 cells)))
    specs;
  Pool.wait pool;
  Pool.shutdown pool;
  t.dag_wall_s <- t.dag_wall_s +. (now () -. t0);
  let hits1, misses1 = locked t (fun () -> (t.hits, t.misses)) in
  Vp_obs.Counter.bump obs "engine.memo_hits" (hits1 - hits0);
  Vp_obs.Counter.bump obs "engine.memo_misses" (misses1 - misses0);
  (* Deterministic error surfacing: re-raise the failure with the
     lexicographically first task label, whatever the schedule was. *)
  match List.sort compare !errors with
  | [] -> ()
  | (_, e) :: _ -> raise e

(* ------------------------------------------------------------------ *)

let metrics t = locked t (fun () -> t.metrics)

let kind_order = function
  | "image" -> 0
  | "profile" -> 1
  | "rewrite" -> 2
  | "coverage" -> 3
  | "fleet" -> 4
  | "session" -> 5
  | "timing" -> 6
  | _ -> 7

let summary_table t =
  let ms =
    List.sort
      (fun a b ->
        compare (kind_order a.kind, a.kind, a.label) (kind_order b.kind, b.kind, b.label))
      (metrics t)
  in
  let tab =
    Tabular.create
      ~header:
        [
          ("task", Tabular.Left);
          ("target", Tabular.Left);
          ("wall", Tabular.Right);
          ("instrs simulated", Tabular.Right);
        ]
  in
  List.iter
    (fun m ->
      Tabular.add_row tab
        [
          m.kind;
          m.label;
          Printf.sprintf "%.3f s" m.wall_s;
          (if m.instructions = 0 then "-"
           else Printf.sprintf "%.1fM" (float_of_int m.instructions /. 1e6));
        ])
    ms;
  Tabular.add_separator tab;
  let task_wall = List.fold_left (fun acc m -> acc +. m.wall_s) 0.0 ms in
  let instrs = List.fold_left (fun acc m -> acc + m.instructions) 0 ms in
  Tabular.add_row tab
    [
      "total";
      Printf.sprintf "%d tasks" (List.length ms);
      Printf.sprintf "%.3f s" task_wall;
      Printf.sprintf "%.1fM" (float_of_int instrs /. 1e6);
    ];
  tab

let pp_summary fmt t =
  Format.fprintf fmt "per-task metrics (jobs=%d):@." t.jobs;
  Format.fprintf fmt "%s@." (String.trim (Tabular.render (summary_table t)));
  let task_wall =
    List.fold_left (fun acc m -> acc +. m.wall_s) 0.0 (metrics t)
  in
  let hits, misses = locked t (fun () -> (t.hits, t.misses)) in
  Format.fprintf fmt "memo layer: %d hits, %d misses@." hits misses;
  if t.dag_wall_s > 0.0 then
    (* The wall figure is the one to compare across --jobs runs; the
       concurrency ratio over-reads on an oversubscribed machine
       because descheduled time still counts against each task. *)
    Format.fprintf fmt
      "engine: %.3f s wall for the task DAG (%.3f s aggregate task time, \
       avg concurrency %.2f)@."
      t.dag_wall_s task_wall
      (task_wall /. t.dag_wall_s)
