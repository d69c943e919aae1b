(* The observability recorder: counter/span semantics and the span
   ring, log-scale histograms and the metric registry with its
   volatility classes, snapshot exposition and round-trip, Perfetto
   export, the flight recorder, pool scheduler hooks, per-run
   timelines (storage, trace schema, rendering, pipeline wiring) — and
   the contracts everything hangs on: stable snapshots and timeline
   traces are byte-identical across schedules and backends, and the
   disabled recorder allocates nothing. *)

module Obs = Vp_obs
module Hist = Vp_obs.Hist
module T = Vp_obs.Timeline
module Pool = Vp_util.Pool
module Program = Vp_prog.Program
module Emulator = Vp_exec.Emulator
module Config = Vacuum.Config
module Session = Vacuum.Session
module Engine = Vacuum.Engine
module Gen = Vp_test_support.Gen
module Progs = Vp_test_support.Progs

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let in_temp suffix f =
  let path = Filename.temp_file "vp-obs" suffix in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let span_names obs = List.map (fun s -> s.Obs.name) (Obs.Sink.spans obs)

(* A recorder sampling timelines every [interval] instructions. *)
let sampling ?(interval = Obs.default_interval) () = Obs.create ~interval ()

(* ---- counters ---- *)

let test_counter_basics () =
  let t = Obs.create () in
  Obs.Counter.bump t "a" 5;
  Obs.Counter.bump t "a" 10;
  Obs.Counter.bump t "b" 2;
  Obs.Counter.bump t "zero" 0;
  Alcotest.(check int) "value by name" 15 (Obs.Counter.value t "a");
  Alcotest.(check int) "unknown name" 0 (Obs.Counter.value t "nope");
  Alcotest.(check (list (pair string int)))
    "sorted counters; a zero bump still registers"
    [ ("a", 15); ("b", 2); ("zero", 0) ]
    (Obs.Sink.counters t)

let test_counter_disabled () =
  let t = Obs.disabled in
  Obs.Counter.bump t "ghost" 7;
  Alcotest.(check int) "disabled value is 0" 0 (Obs.Counter.value t "ghost");
  Alcotest.(check (list (pair string int)))
    "disabled records nothing" [] (Obs.Sink.counters t)

let test_counter_bump_is_parallel_safe () =
  (* concurrent bumps of the same name from several domains must not
     lose updates *)
  let t = Obs.create () in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              Obs.Counter.bump t "shared" 1
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check (list (pair string int)))
    "no lost updates"
    [ ("shared", 4000) ]
    (Obs.Sink.counters t)

(* ---- spans ---- *)

let test_span_nesting () =
  let t = Obs.create () in
  let outer = Obs.Span.enter t "outer" in
  let inner = Obs.Span.enter t "inner" in
  Obs.Span.exit ~work:3 t inner;
  Obs.Span.exit ~work:7 t outer;
  match Obs.Sink.spans t with
  | [ a; b ] ->
    Alcotest.(check string) "inner completes first" "inner" a.Obs.name;
    Alcotest.(check int) "inner depth" 1 a.Obs.depth;
    Alcotest.(check int) "inner work" 3 a.Obs.work;
    Alcotest.(check string) "outer second" "outer" b.Obs.name;
    Alcotest.(check int) "outer depth" 0 b.Obs.depth;
    Alcotest.(check int) "outer work" 7 b.Obs.work;
    Alcotest.(check int) "seq dense" 1 b.Obs.seq
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_span_record () =
  let t = Obs.create () in
  let v = Obs.Span.record t "stage" ~work:(fun n -> n * 2) (fun () -> 21) in
  Alcotest.(check int) "result threads through unchanged" 21 v;
  match Obs.Sink.spans t with
  | [ s ] ->
    Alcotest.(check string) "name" "stage" s.Obs.name;
    Alcotest.(check int) "work from result" 42 s.Obs.work
  | _ -> Alcotest.fail "expected one span"

let test_span_record_exception_safe () =
  let t = Obs.create () in
  (try ignore (Obs.Span.record t "boom" (fun () -> raise Exit) : unit)
   with Exit -> ());
  (match Obs.Sink.spans t with
  | [ s ] ->
    Alcotest.(check string) "span still recorded" "boom" s.Obs.name;
    Alcotest.(check int) "failure work marker" (-1) s.Obs.work
  | _ -> Alcotest.fail "expected one span");
  (* The stack unwound: the next span is back at depth 0. *)
  let tok = Obs.Span.enter t "after" in
  Obs.Span.exit t tok;
  match Obs.Sink.spans t with
  | [ _; s ] -> Alcotest.(check int) "depth reset" 0 s.Obs.depth
  | _ -> Alcotest.fail "expected two spans"

let test_span_note () =
  let t = Obs.create () in
  Obs.Span.note t "ext" ~wall_s:1.5 ~work:99;
  match Obs.Sink.spans t with
  | [ s ] ->
    Alcotest.(check string) "name" "ext" s.Obs.name;
    Alcotest.(check (float 1e-9)) "wall" 1.5 s.Obs.wall_s;
    Alcotest.(check int) "work" 99 s.Obs.work;
    Alcotest.(check int) "depth 0" 0 s.Obs.depth
  | _ -> Alcotest.fail "expected one span"

(* Each recording domain gets its own lane, which becomes the Perfetto
   tid: spans of concurrent tasks never share a thread stack. *)
let test_span_lanes () =
  let t = Obs.create () in
  Obs.Span.note t "main" ~wall_s:0.1 ~work:0;
  Domain.join
    (Domain.spawn (fun () -> Obs.Span.record t "worker" (fun () -> ())));
  Obs.Span.record t "main-again" (fun () -> ());
  let lanes = List.map (fun s -> (s.Obs.name, s.Obs.lane)) (Obs.Sink.spans t) in
  Alcotest.(check (list (pair string int)))
    "lane per domain"
    [ ("main", 0); ("worker", 1); ("main-again", 0) ]
    lanes;
  Alcotest.(check (list int))
    "perfetto tid is the lane" [ 0; 1; 0 ]
    (List.map
       (fun e -> e.Obs.Perfetto.tid)
       (Obs.Perfetto.of_spans ~pid:1 ~cat:"driver" (Obs.Sink.spans t)))

let test_ring_wraparound () =
  let t = Obs.create () in
  let n = Obs.span_capacity + 6 in
  for i = 0 to n - 1 do
    Obs.Span.note t (Printf.sprintf "s%d" i) ~wall_s:0.0 ~work:i
  done;
  Alcotest.(check int) "dropped count" 6 (Obs.Sink.dropped_spans t);
  let spans = Obs.Sink.spans t in
  Alcotest.(check int) "ring full" Obs.span_capacity (List.length spans);
  let first = List.hd spans and last = List.nth spans (Obs.span_capacity - 1) in
  Alcotest.(check string) "oldest survivor first" "s6" first.Obs.name;
  Alcotest.(check string) "newest last" (Printf.sprintf "s%d" (n - 1))
    last.Obs.name;
  Alcotest.(check int) "seq keeps the global completion index" 6 first.Obs.seq

let test_disabled_spans_are_free () =
  let t = Obs.disabled in
  let tok = Obs.Span.enter t "never" in
  Alcotest.(check bool) "null token" true (tok == Obs.Span.null);
  Obs.Span.exit t tok;
  Obs.Span.note t "never" ~wall_s:1.0 ~work:1;
  Alcotest.(check (list string)) "nothing recorded" [] (span_names t)

(* ---- sink: the span ring exported as vp-perfetto-trace/1 ---- *)

let test_trace_roundtrip () =
  let t = Obs.create () in
  Obs.Span.record t "stage \"one\"" (fun () -> ());
  Obs.Span.note t "stage2" ~wall_s:0.5 ~work:123;
  in_temp ".json" @@ fun path ->
  Obs.Perfetto.write_spans t ~path;
  (match Obs.Perfetto.validate_file ~path with
  | Ok n -> Alcotest.(check int) "process record + 2 spans" 3 n
  | Error e -> Alcotest.failf "trace did not validate: %s" e);
  let s = read_file path in
  Alcotest.(check bool) "quote escaped" true (contains s {|stage \"one\"|});
  Alcotest.(check bool) "driver lane" true (contains s "\"cat\":\"driver\"")

let perfetto_lines body =
  Printf.sprintf
    "{\"schema\":\"vp-perfetto-trace/1\",\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n%s]}\n"
    body

let test_validate_rejects_garbage () =
  in_temp ".json" @@ fun path ->
  List.iter
    (fun (body, why) ->
      write_file path (perfetto_lines body);
      match Obs.Perfetto.validate_file ~path with
      | Ok _ -> Alcotest.failf "accepted %s" why
      | Error e ->
        Alcotest.(check bool) (why ^ " names line 2: " ^ e) true
          (contains e "line 2"))
    [
      ("not json\n", "plain text");
      ("{\"name\":\"x\"}\n", "an event without a phase");
      ("{\"ph\":\"Q\",\"name\":\"x\"}\n", "an unknown phase");
      ("{\"ph\":\"X\",\"name\":\"x\",\"pid\":1}\n", "a complete event without tid/ts/dur");
    ];
  write_file path
    (perfetto_lines
       "{\"ph\":\"X\",\"name\":\"x\",\"cat\":\"c\",\"pid\":1,\"tid\":0,\"ts\":0.000,\"dur\":1.000}\n");
  match Obs.Perfetto.validate_file ~path with
  | Ok n -> Alcotest.(check int) "one valid event" 1 n
  | Error e -> Alcotest.failf "rejected a valid trace: %s" e

let test_validate_file_requires_meta () =
  in_temp ".json" @@ fun path ->
  write_file path
    "{\"ph\":\"X\",\"name\":\"x\",\"pid\":1,\"tid\":0,\"ts\":0,\"dur\":1}\n]}\n";
  (match Obs.Perfetto.validate_file ~path with
  | Ok _ -> Alcotest.fail "accepted a trace without the schema header"
  | Error e -> Alcotest.(check bool) ("names line 1: " ^ e) true (contains e "line 1"));
  write_file path (perfetto_lines "" |> fun s -> String.sub s 0 (String.length s - 3));
  match Obs.Perfetto.validate_file ~path with
  | Ok _ -> Alcotest.fail "accepted a trace without the array closer"
  | Error _ -> ()

(* ---- hist ---- *)

let test_hist_bounds () =
  Alcotest.(check int) "bound 0" 0 (Hist.bound 0);
  Alcotest.(check int) "bound 1" 1 (Hist.bound 1);
  Alcotest.(check int) "bound 2" 2 (Hist.bound 2);
  Alcotest.(check int) "bound 3" 4 (Hist.bound 3);
  (* index/bound identity: reading a bucket's upper bound back lands in
     the same bucket, the property Snapshot.read's reconstruction
     relies on *)
  for i = 0 to Hist.buckets - 1 do
    Alcotest.(check int)
      (Printf.sprintf "index (bound %d)" i)
      i
      (Hist.index (Hist.bound i))
  done;
  Alcotest.(check int) "<= 0 in bucket 0" 0 (Hist.index (-5));
  Alcotest.(check int) "max_int clamps to last bucket" (Hist.buckets - 1)
    (Hist.index max_int)

let test_hist_exact_count_sum () =
  let h = Hist.create () in
  let values = [ 0; 1; 1; 3; 100; 1024; 1025; 999_999 ] in
  List.iter (Hist.observe h) values;
  Alcotest.(check int) "count" (List.length values) (Hist.count h);
  Alcotest.(check int) "sum" (List.fold_left ( + ) 0 values) (Hist.sum h);
  let by_buckets = ref 0 in
  for i = 0 to Hist.buckets - 1 do
    by_buckets := !by_buckets + Hist.bucket_count h i
  done;
  Alcotest.(check int) "buckets partition the observations"
    (Hist.count h) !by_buckets;
  List.iter
    (fun v ->
      let i = Hist.index v in
      Alcotest.(check bool)
        (Printf.sprintf "%d <= bound %d" v i)
        true
        (v <= Hist.bound i || i = Hist.buckets - 1))
    values

let test_hist_quantiles () =
  let h = Hist.create () in
  Alcotest.(check int) "empty p50" 0 (Hist.quantile h 0.5);
  for v = 1 to 100 do
    Hist.observe h v
  done;
  (* an upper bound on the true quantile with at most 2x relative
     error *)
  List.iter
    (fun (q, exact) ->
      let got = Hist.quantile h q in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f=%d is an upper bound on %d" (100. *. q) got exact)
        true (got >= exact);
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f=%d within 2x of %d" (100. *. q) got exact)
        true
        (got <= 2 * exact))
    [ (0.5, 50); (0.9, 90); (0.99, 99) ];
  Alcotest.(check int) "p100 = last bucket bound" (Hist.bound (Hist.index 100))
    (Hist.quantile h 1.0)

let test_hist_merge () =
  let observe_all h vs = List.iter (Hist.observe h) vs in
  let a = [ 1; 5; 5; 700 ] and b = [ 0; 2; 900_000; 3 ] in
  let whole = Hist.create () in
  observe_all whole (a @ b);
  let ha = Hist.create () and hb = Hist.create () in
  observe_all ha a;
  observe_all hb b;
  let ab = Hist.copy ha and ba = Hist.copy hb in
  Hist.merge_into ~dst:ab hb;
  Hist.merge_into ~dst:ba ha;
  List.iter
    (fun (name, m) ->
      Alcotest.(check int) (name ^ " count") (Hist.count whole) (Hist.count m);
      Alcotest.(check int) (name ^ " sum") (Hist.sum whole) (Hist.sum m);
      for i = 0 to Hist.buckets - 1 do
        Alcotest.(check int)
          (Printf.sprintf "%s bucket %d" name i)
          (Hist.bucket_count whole i) (Hist.bucket_count m i)
      done)
    [ ("a+b", ab); ("b+a", ba) ]

(* ---- registry ---- *)

let test_registry_ops () =
  let t = Obs.create () in
  Obs.Counter.bump t "c" 2;
  Obs.Counter.bump t "c" 3;
  Alcotest.(check int) "counter" 5 (Obs.Counter.value t "c");
  Obs.Gauge.set t "g" 7;
  Obs.Gauge.set t "g" 9;
  Alcotest.(check int) "gauge last-writer-wins" 9 (Obs.Gauge.value t "g");
  Obs.Histogram.observe t "h" 10;
  Obs.Histogram.observe t "h" 20;
  match Obs.Histogram.get t "h" with
  | None -> Alcotest.fail "histogram registered"
  | Some h ->
    Alcotest.(check int) "hist count" 2 (Hist.count h);
    Alcotest.(check int) "hist sum" 30 (Hist.sum h)

let test_disabled_registry_inert () =
  let t = Obs.disabled in
  Alcotest.(check bool) "disabled" false (Obs.enabled t);
  Obs.Counter.bump t "c" 5;
  Obs.Gauge.set t "g" 5;
  Obs.Histogram.observe t "h" 5;
  Obs.Flight.note t ~kind:"k" ~label:"l";
  Obs.Flight.dump t ~reason:"r" ~label:"l" ();
  Alcotest.(check int) "counter silent" 0 (Obs.Counter.value t "c");
  Alcotest.(check int) "gauge silent" 0 (Obs.Gauge.value t "g");
  Alcotest.(check bool) "hist silent" true (Obs.Histogram.get t "h" = None);
  Alcotest.(check bool) "no sched hooks" true (Obs.Sched.hooks t = None);
  Alcotest.(check int) "no dumps" 0 (Obs.Flight.dumps t);
  Alcotest.(check bool) "no timelines" false (T.enabled (T.create t));
  Alcotest.(check string) "empty render" "# vp-metrics-snapshot/1\n# EOF\n"
    (Obs.Snapshot.render t)

let test_first_registration_wins () =
  let t = Obs.create () in
  Obs.Counter.bump t "x" 4;
  (* a later op of a different kind under the same name is dropped, not
     a crash and not a silent re-type *)
  Obs.Gauge.set t "x" 99;
  Obs.Histogram.observe t "x" 99;
  Alcotest.(check int) "still the counter" 4 (Obs.Counter.value t "x");
  Alcotest.(check int) "no gauge grafted" 0 (Obs.Gauge.value t "x")

(* ---- alloc: the CI gate group.  Every entry point of the disabled
   recorder and the disabled timeline, 100k calls each, allocates
   nothing on the minor heap. ---- *)

(* [op] run [calls] times against a disabled recorder must not allocate
   a single minor-heap word. *)
let check_flat name op =
  let calls = 100_000 in
  op 0;
  let before = Gc.minor_words () in
  for i = 1 to calls do
    op i
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.0f minor words over %dk disabled calls" name words
       (calls / 1000))
    true (words = 0.)

let test_disabled_zero_alloc () =
  let t = Obs.disabled in
  check_flat "counter bump" (fun _ -> Obs.Counter.bump t "hot" 1);
  check_flat "histogram observe" (fun i -> Obs.Histogram.observe t "hot" i);
  check_flat "gauge set" (fun i -> Obs.Gauge.set t "hot" i);
  check_flat "flight note" (fun _ -> Obs.Flight.note t ~kind:"hot" ~label:"hot")

let test_disabled_spans_zero_alloc () =
  let t = Obs.disabled in
  let unit_f () = () in
  check_flat "span record" (fun _ -> Obs.Span.record t "hot" unit_f);
  check_flat "span enter/exit" (fun _ ->
      Obs.Span.exit ~work:3 t (Obs.Span.enter t "hot"))

let test_disabled_storage_zero_alloc () =
  let tl = T.create Obs.disabled in
  let id = T.Series.register tl "x" in
  check_flat "timeline series push" (fun i -> T.Series.push tl id i);
  check_flat "timeline event emit" (fun i ->
      T.Event.emit tl ~kind:"hot" ~at:i ~value:i)

(* ---- snapshot ---- *)

let populated () =
  let t = Obs.create () in
  Obs.Counter.bump t "session.cache.hits" 12;
  Obs.Counter.bump t "demote.drop-package" 2;
  Obs.Histogram.observe t "session.epoch.instructions" 50_000;
  Obs.Histogram.observe t "session.epoch.instructions" 51_000;
  Obs.Histogram.observe t "session.epoch.instructions" 1;
  (* volatile metrics must stay out of the stable exposition *)
  Obs.Gauge.set t "aggregate.snapshots_per_sec" 123_456;
  Obs.Counter.bump ~volatile:true t "pool.tasks" 9;
  Obs.Histogram.observe ~volatile:true t "session.epoch.wall_us" 777;
  t

let test_render_volatility_classes () =
  let t = populated () in
  let stable = Obs.Snapshot.render t in
  let full = Obs.Snapshot.render ~volatile:true t in
  Alcotest.(check bool) "counter rendered" true
    (contains stable "session_cache_hits_total 12");
  Alcotest.(check bool) "hist count rendered" true
    (contains stable "session_epoch_instructions_count 3");
  Alcotest.(check bool) "no volatile marker in stable" false
    (contains stable "# volatile");
  Alcotest.(check bool) "no gauge in stable" false
    (contains stable "aggregate_snapshots_per_sec");
  Alcotest.(check bool) "no wall hist in stable" false
    (contains stable "wall_us");
  Alcotest.(check bool) "volatile marker in full" true
    (contains full "# volatile");
  Alcotest.(check bool) "gauge in full" true
    (contains full "aggregate_snapshots_per_sec 123456");
  Alcotest.(check bool) "volatile counter in full" true
    (contains full "pool_tasks_total 9");
  Alcotest.(check bool) "full render begins with the stable section" true
    (String.sub full 0 (String.length stable - 6)
    = String.sub stable 0 (String.length stable - 6))

let test_snapshot_write_validate_roundtrip () =
  let t = populated () in
  in_temp ".metrics" @@ fun path ->
  Obs.Snapshot.write t ~path;
  (match Obs.Snapshot.validate_file ~path with
  | Ok n -> Alcotest.(check bool) "some lines" true (n > 4)
  | Error e -> Alcotest.fail ("valid snapshot rejected: " ^ e));
  match Obs.Snapshot.read ~path with
  | Error e -> Alcotest.fail ("roundtrip failed: " ^ e)
  | Ok samples ->
    (match List.assoc_opt "session_cache_hits" samples with
    | Some (Obs.Snapshot.Counter v) -> Alcotest.(check int) "counter back" 12 v
    | _ -> Alcotest.fail "counter lost");
    (match List.assoc_opt "session_epoch_instructions" samples with
    | Some (Obs.Snapshot.Hist h) ->
      Alcotest.(check int) "hist count back" 3 (Hist.count h);
      Alcotest.(check int) "hist sum back" 101_001 (Hist.sum h)
    | _ -> Alcotest.fail "histogram lost");
    Alcotest.(check bool) "volatile excluded from default write" true
      (List.assoc_opt "aggregate_snapshots_per_sec" samples = None)

let test_validator_rejections () =
  let check_error name content expect =
    in_temp ".metrics" @@ fun path ->
    write_file path content;
    match Obs.Snapshot.validate_file ~path with
    | Ok _ -> Alcotest.fail (name ^ ": accepted")
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S mentions %S" name e expect)
        true (contains e expect)
  in
  check_error "wrong meta" "# nope/1\n# EOF\n" "line 1";
  check_error "missing EOF" "# vp-metrics-snapshot/1\nfoo_total 1\n" "EOF";
  check_error "garbage line"
    "# vp-metrics-snapshot/1\nnot a metric line at all!\n# EOF\n" "line 2";
  check_error "non-numeric value"
    "# vp-metrics-snapshot/1\nfoo_total bar\n# EOF\n" "line 2"

(* ---- determinism: stable snapshots and timeline traces across
   schedules and backends ---- *)

let test_stable_snapshot_jobs_invariant () =
  let render_under jobs =
    let t = Obs.create () in
    ignore
      (Pool.map ~jobs
         ?hooks:(Obs.Sched.hooks t)
         (fun i ->
           Obs.Counter.bump t "work.items" 1;
           Obs.Histogram.observe t "work.size" (100 * (i + 1)))
         [ 0; 1; 2; 3; 4; 5; 6; 7 ]);
    Obs.Snapshot.render t
  in
  let seq = render_under 1 in
  Alcotest.(check string) "jobs 4 = jobs 1" seq (render_under 4);
  Alcotest.(check bool) "work counted" true (contains seq "work_items_total 8")

let test_stable_snapshot_backend_invariant () =
  (* The serve-shaped path: a session instruments the recorder while it
     runs; the stable exposition must not depend on the backend. *)
  let img = Program.layout (Progs.two_phase ~iters_per_phase:3000 ~repeats:2) in
  let render_under backend =
    let t = Obs.create () in
    let config =
      Config.default
      |> Config.with_detector Vp_hsd.Config.tiny
      |> Config.with_backend backend
      |> Config.with_obs t
      |> Config.map_session (fun s -> { s with Config.cache_pct = 300.0 })
    in
    ignore (Session.run ~epochs:4 (Session.create ~config img));
    Obs.Snapshot.render t
  in
  let d = render_under Emulator.Decoded in
  Alcotest.(check bool) "epochs observed" true
    (contains d "session_epoch_instructions_count 4");
  Alcotest.(check string) "reference = decoded" d
    (render_under Emulator.Reference);
  Alcotest.(check string) "compiled = decoded" d (render_under Emulator.Compiled)

let timeline_config =
  Config.with_obs
    (sampling ~interval:1_000 ())
    (Config.with_detector Vp_hsd.Config.tiny Config.default)

let gen_specs seeds =
  List.map
    (fun seed ->
      {
        Engine.name = Printf.sprintf "gen%d" seed;
        load = (fun () -> Program.layout (Gen.random_phased ~seed));
      })
    seeds

let test_traces_identical_across_jobs () =
  let specs = gen_specs [ 1; 2; 3; 4 ] in
  let cells = [ { Engine.key = "full"; config = timeline_config } ] in
  let trace_of jobs path =
    let engine = Engine.create ~jobs ~profile_config:timeline_config () in
    Engine.run engine ~specs ~cells ();
    T.write_trace ~path
      (List.concat_map
         (fun spec ->
           [
             (Engine.profile engine spec).Vacuum.Driver.timeline;
             (Engine.coverage engine spec (List.hd cells)).Vacuum.Coverage.residency;
           ])
         specs);
    read_file path
  in
  let a = in_temp "seq.jsonl" (trace_of 1) in
  let b = in_temp "par.jsonl" (trace_of 4) in
  Alcotest.(check bool) "traces non-trivial" true (String.length a > 100);
  Alcotest.(check bool) "byte-identical across --jobs 1 and 4" true (a = b)

(* ---- pool hooks ---- *)

let test_pool_hooks_totals () =
  let t = Obs.create () in
  let n = 32 in
  ignore (Pool.map ~jobs:3 ?hooks:(Obs.Sched.hooks t) (fun i -> i * i) (List.init n Fun.id));
  Alcotest.(check int) "every task counted" n (Obs.Counter.value t "pool.tasks");
  let per_domain = ref 0 in
  for d = 0 to 7 do
    per_domain :=
      !per_domain + Obs.Counter.value t (Printf.sprintf "pool.tasks.d%d" d)
  done;
  Alcotest.(check int) "per-domain counts partition the total" n !per_domain;
  match Obs.Histogram.get t "pool.queue_depth" with
  | None -> Alcotest.fail "queue depth recorded"
  | Some h -> Alcotest.(check int) "one depth sample per submit" n (Hist.count h)

(* ---- perfetto ---- *)

let test_perfetto_export () =
  let obs = Obs.create () in
  Obs.Span.note obs "profile:w" ~wall_s:0.25 ~work:1000;
  Obs.Span.note obs "rewrite:w" ~wall_s:0.5 ~work:0;
  let events =
    Obs.Perfetto.of_spans ~pid:1 ~cat:"driver" (Obs.Sink.spans obs)
    @ [
        {
          Obs.Perfetto.name = "epoch-0";
          cat = "session";
          pid = 3;
          tid = 0;
          ts_us = 10.0;
          dur_us = 5.0;
        };
      ]
  in
  in_temp ".json" @@ fun path ->
  Obs.Perfetto.write ~processes:[ (1, "driver"); (3, "session") ] ~path events;
  (match Obs.Perfetto.validate_file ~path with
  | Ok n ->
    (* 3 complete events + 2 process_name metadata records *)
    Alcotest.(check int) "event count" 5 n
  | Error e -> Alcotest.fail ("perfetto export rejected: " ^ e));
  let s = read_file path in
  Alcotest.(check bool) "schema line" true (contains s "vp-perfetto-trace/1");
  Alcotest.(check bool) "process metadata" true (contains s "process_name");
  Alcotest.(check bool) "span event" true (contains s "profile:w")

(* ---- flight recorder ---- *)

let test_flight_dump () =
  let dir = Filename.temp_file "vp-flight" "" in
  Sys.remove dir;
  let t = Obs.create ~flight_dir:dir () in
  Obs.Counter.bump t "session.drifts" 3;
  Obs.Gauge.set t "aggregate.snapshots_per_sec" 42;
  Obs.Span.note t "profile:w" ~wall_s:0.1 ~work:10;
  (* overflow the mark ring: only the most recent marks survive *)
  let marks = Obs.flight_capacity + 6 in
  for i = 1 to marks do
    Obs.Flight.note t ~kind:"drift" ~label:(string_of_int i)
  done;
  Obs.Flight.dump t ~reason:"oracle-failure" ~label:"epoch-2" ();
  Alcotest.(check int) "one dump" 1 (Obs.Flight.dumps t);
  let metrics_file = Filename.concat dir "flight-epoch-2-0.metrics" in
  let spans_file = Filename.concat dir "flight-epoch-2-0-spans.json" in
  (* the dump is itself a valid snapshot, and the spans a valid trace *)
  (match Obs.Snapshot.validate_file ~path:metrics_file with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("flight dump not a valid snapshot: " ^ e));
  (match Obs.Perfetto.validate_file ~path:spans_file with
  | Ok n -> Alcotest.(check int) "process record + 1 span" 2 n
  | Error e -> Alcotest.fail ("flight spans not a valid trace: " ^ e));
  let s = read_file metrics_file in
  Alcotest.(check bool) "reason recorded" true
    (contains s "# reason oracle-failure");
  Alcotest.(check bool) "ring bounded: oldest marks evicted" false
    (contains s "# mark 5 drift 6\n");
  Alcotest.(check bool) "oldest survivor kept" true
    (contains s "# mark 6 drift 7\n");
  Alcotest.(check bool) "newest mark kept" true
    (contains s (Printf.sprintf "drift %d\n" marks));
  Alcotest.(check bool) "volatile section included" true (contains s "# volatile");
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let test_flight_noop_without_dir () =
  let t = Obs.create () in
  Obs.Flight.note t ~kind:"demote" ~label:"x";
  Obs.Flight.dump t ~reason:"verifier-rejection" ~label:"driver" ();
  Alcotest.(check int) "no dump without flight_dir" 0 (Obs.Flight.dumps t)

(* ---- timeline storage ---- *)

let test_series_basics () =
  let t = T.create (sampling ~interval:100 ()) in
  Alcotest.(check bool) "enabled" true (T.enabled t);
  Alcotest.(check int) "interval" 100 (T.interval_length t);
  let a = T.Series.register t "a" in
  let a' = T.Series.register t "a" in
  let b = T.Series.register t "b" in
  Alcotest.(check bool) "register idempotent" true (a = a');
  for i = 1 to 600 do
    T.Series.push t a i
  done;
  T.Series.push t b 7;
  Alcotest.(check int) "growth past preallocation" 600 (T.Series.length t a);
  Alcotest.(check int) "independent series" 1 (T.Series.length t b);
  Alcotest.(check int) "intervals = longest series" 600 (T.intervals t);
  let v = T.Series.values t a in
  Alcotest.(check int) "first value" 1 v.(0);
  Alcotest.(check int) "last value" 600 v.(599);
  Alcotest.(check (list string)) "names sorted" [ "a"; "b" ] (T.Series.names t);
  Alcotest.(check bool) "find" true (T.Series.find t "b" = Some [| 7 |]);
  Alcotest.(check bool) "find missing" true (T.Series.find t "c" = None)

let test_event_basics () =
  let t = T.create (sampling ()) in
  T.Event.emit t ~kind:"detect" ~at:10 ~value:1;
  T.Event.emit t ~kind:"record" ~at:10 ~value:0;
  T.Event.emit t ~kind:"detect" ~at:25 ~value:2;
  Alcotest.(check int) "count by kind" 2 (T.Event.count t ~kind:"detect");
  Alcotest.(check bool)
    "emission order" true
    (T.Event.all t = [ ("detect", 10, 1); ("record", 10, 0); ("detect", 25, 2) ]);
  Alcotest.(check bool)
    "event_counts sorted" true
    (T.event_counts t = [ ("detect", 2); ("record", 1) ])

let test_timeline_disabled_noop () =
  (* an enabled recorder without a sampling interval has no timelines *)
  let t = T.create (Obs.create ()) in
  Alcotest.(check bool) "no interval = disabled" true (t == T.disabled);
  let id = T.Series.register t "ghost" in
  T.Series.push t id 1;
  T.Event.emit t ~kind:"ghost" ~at:0 ~value:0;
  Alcotest.(check int) "no length" 0 (T.Series.length t id);
  Alcotest.(check (list string)) "no names" [] (T.Series.names t);
  Alcotest.(check bool) "no events" true (T.Event.all t = []);
  Alcotest.(check bool) "no summary" true (T.summary t = []);
  Alcotest.(check int) "no intervals" 0 (T.intervals t)

let test_bad_interval_rejected () =
  match Obs.create ~interval:0 () with
  | exception Vp_util.Error.Error _ -> ()
  | _ -> Alcotest.fail "interval 0 accepted"

let test_summary () =
  let t = T.create (sampling ()) in
  let a = T.Series.register t "a" in
  List.iter (T.Series.push t a) [ 3; 1; 2 ];
  Alcotest.(check bool)
    "name, samples, min, max, total" true
    (T.summary t = [ ("a", 3, 1, 3, 6) ])

(* ---- timeline trace schema ---- *)

let test_timeline_trace_roundtrip () =
  in_temp "trace.jsonl" @@ fun path ->
  let t1 = T.create (sampling ~interval:50 ()) in
  let a = T.Series.register t1 "profile.hdc" in
  List.iter (T.Series.push t1 a) [ 4; 0; 9 ];
  T.Event.emit t1 ~kind:"detect" ~at:120 ~value:1;
  let t2 = T.create (sampling ~interval:50 ()) in
  let b = T.Series.register t2 "run.orig.instructions" in
  List.iter (T.Series.push t2 b) [ 50; 50 ];
  (* Disabled timelines merge away silently. *)
  T.write_trace ~path [ t1; T.disabled; t2 ];
  (match T.validate_file ~path with
  | Ok n -> Alcotest.(check int) "meta + 2 series + 1 event" 4 n
  | Error e -> Alcotest.failf "trace invalid: %s" e);
  let first = List.hd (String.split_on_char '\n' (read_file path)) in
  Alcotest.(check string) "meta first, carrying the shared interval"
    {|{"type": "meta", "schema": "vp-timeline-trace/1", "interval": 50, "intervals": 3}|}
    first

let meta_line =
  {|{"type": "meta", "schema": "vp-timeline-trace/1", "interval": 1, "intervals": 0}|}

let test_timeline_rejects_garbage () =
  in_temp "garbage.jsonl" @@ fun path ->
  List.iter
    (fun (line, why) ->
      write_file path (meta_line ^ "\n" ^ line ^ "\n");
      match T.validate_file ~path with
      | Ok _ -> Alcotest.failf "accepted %s" why
      | Error e ->
        Alcotest.(check bool) (why ^ " names line 2: " ^ e) true
          (contains e "line 2"))
    [
      ("not json", "plain text");
      ("{\"no\": \"type\"}", "an object without a type tag");
      ("{\"type\": \"mystery\"}", "an unknown record type");
      ("{\"type\": \"series\", \"name\": \"x\"}", "a series without values");
      ("{\"type\": \"event\", \"kind\": \"k\", \"at\": 1}", "an event without value");
    ]

let test_timeline_rejects_foreign_schema () =
  in_temp "foreign.jsonl" @@ fun path ->
  write_file path
    "{\"type\": \"meta\", \"schema\": \"vp-obs-trace/1\", \"interval\": 1, \
     \"intervals\": 0}\n";
  (match T.validate_file ~path with
  | Ok _ -> Alcotest.fail "accepted a vp-obs-trace file"
  | Error _ -> ());
  write_file path "";
  match T.validate_file ~path with
  | Ok _ -> Alcotest.fail "accepted an empty file"
  | Error _ -> ()

(* ---- rendering ---- *)

let test_sparkline () =
  Alcotest.(check string) "empty" "" (Obs.Render.sparkline [||]);
  let s = Obs.Render.sparkline ~width:4 [| 0; 1; 4; 8 |] in
  Alcotest.(check int) "width respected" 4 (String.length s);
  Alcotest.(check char) "zero is blank" ' ' s.[0];
  Alcotest.(check char) "max is densest" '#' s.[3];
  Alcotest.(check bool) "nonzero is visible" true (s.[1] <> ' ');
  (* Narrower than the data: max-pooling keeps the peak visible. *)
  let pooled = Obs.Render.sparkline ~width:2 [| 0; 0; 0; 9 |] in
  Alcotest.(check char) "pooled peak survives" '#' pooled.[1]

let test_lane () =
  let total = [| 100; 100; 100; 100 |] in
  let s = Obs.Render.lane ~width:4 ~total [| 0; 3; 60; 95 |] in
  Alcotest.(check string) "thresholded glyphs" " .O#" s

let test_extent_rows () =
  (* Two intervals of 10 branches each; phase 1 spans the first,
     phase 2 the second. *)
  let cum = [| 10; 20 |] in
  let rows = Obs.Render.extent_rows ~width:2 ~cum [ (0, 10, 1); (10, 20, 2) ] in
  Alcotest.(check bool)
    "one row per phase, marking its own columns" true
    (rows = [ (1, "= "); (2, " =") ])

(* ---- pipeline wiring ---- *)

let tiny_config obs =
  Config.with_obs obs (Config.with_detector Vp_hsd.Config.tiny Config.default)

let test_driver_span_coverage () =
  let obs = Obs.create () in
  let config = tiny_config obs in
  let img = Program.layout (Gen.random_phased ~seed:3) in
  let p = Vacuum.Driver.profile ~config img in
  let r = Vacuum.Driver.rewrite_of_profile ~config p in
  ignore (Vacuum.Coverage.measure ~config r);
  let names = span_names obs in
  List.iter
    (fun stage ->
      Alcotest.(check bool) (stage ^ " span present") true (List.mem stage names))
    [ "profile"; "regions"; "packages"; "link"; "emit"; "coverage" ];
  let profile_span =
    List.find (fun s -> s.Obs.name = "profile") (Obs.Sink.spans obs)
  in
  Alcotest.(check int)
    "profile span work is retired instructions"
    p.Vacuum.Driver.outcome.Emulator.instructions profile_span.Obs.work;
  Alcotest.(check bool) "counters flushed" true (Obs.Sink.counters obs <> [])

(* An enabled recorder — sampling timelines or not — must not change
   what the pipeline computes. *)
let behaviour_preserved obs () =
  let img = Program.layout (Gen.random_phased ~seed:11) in
  let run obs =
    let config = tiny_config obs in
    let p = Vacuum.Driver.profile ~config img in
    let r = Vacuum.Driver.rewrite_of_profile ~config p in
    let c = Vacuum.Coverage.measure ~config r in
    ( p.Vacuum.Driver.outcome,
      List.length r.Vacuum.Driver.packages,
      c.Vacuum.Coverage.coverage_pct,
      c.Vacuum.Coverage.equivalent )
  in
  Alcotest.(check bool) "identical results" true (run Obs.disabled = run (obs ()))

(* The determinism contract: one enabled recorder shared by engine
   schedules at --jobs 1 and --jobs 4 yields the same per-name span
   count and total work, and the same stable snapshot. *)
let test_engine_determinism_across_jobs () =
  let specs = gen_specs [ 1; 2; 3 ] in
  let cells =
    [
      { Engine.key = "full"; config = tiny_config Obs.disabled };
      {
        Engine.key = "nolink";
        config =
          Config.with_detector Vp_hsd.Config.tiny
            (Config.experiment ~inference:true ~linking:false);
      };
    ]
  in
  let observe jobs =
    let obs = Obs.create () in
    let engine = Engine.create ~jobs ~profile_config:(tiny_config obs) () in
    Engine.run engine ~specs ~cells ();
    let per_name =
      List.fold_left
        (fun acc (s : Obs.span) ->
          let n, work =
            Option.value ~default:(0, 0) (List.assoc_opt s.name acc)
          in
          (s.name, (n + 1, work + s.work)) :: List.remove_assoc s.name acc)
        [] (Obs.Sink.spans obs)
      |> List.sort compare
    in
    (per_name, Obs.Snapshot.render obs)
  in
  let seq_spans, seq_snapshot = observe 1 in
  let par_spans, par_snapshot = observe 4 in
  Alcotest.(check (list (pair string (pair int int))))
    "span counts and work identical across schedules" seq_spans par_spans;
  Alcotest.(check string)
    "stable snapshot identical across schedules" seq_snapshot par_snapshot;
  Alcotest.(check bool) "spans cover every task" true
    (List.mem_assoc "profile:gen1" seq_spans)

let test_detector_hooks_match_counters () =
  let img = Program.layout (Gen.random_phased ~seed:5) in
  let d =
    Vp_hsd.Detector.create ~config:Vp_hsd.Config.tiny
      ~same:Vp_phase.Similarity.same ()
  in
  let detects = ref 0 and records = ref [] and rearms = ref 0 in
  Vp_hsd.Detector.set_hooks d
    ~on_detect:(fun ~branches:_ ~detections:_ -> incr detects)
    ~on_record:(fun ~branches ~id -> records := (branches, id) :: !records)
    ~on_rearm:(fun ~branches:_ ~rearms:_ -> incr rearms);
  let (_ : Emulator.outcome) =
    Emulator.run_backend
      ~on_branch:(fun ~pc ~taken -> Vp_hsd.Detector.on_branch d ~pc ~taken)
      img
  in
  Alcotest.(check int) "detect hook = detections" (Vp_hsd.Detector.detections d)
    !detects;
  Alcotest.(check int) "rearm hook = rearms" (Vp_hsd.Detector.rearms d) !rearms;
  let records = List.rev !records in
  Alcotest.(check int)
    "record hook = recordings"
    (Vp_hsd.Detector.recordings d)
    (List.length records);
  Alcotest.(check bool) "something detected" true (!detects > 0);
  (* Each record stamp equals the snapshot's detected_at, in order. *)
  List.iter2
    (fun (branches, id) (snap : Vp_hsd.Snapshot.t) ->
      Alcotest.(check int) "stamp = detected_at" snap.Vp_hsd.Snapshot.detected_at
        branches;
      Alcotest.(check int) "id in recording order" snap.Vp_hsd.Snapshot.id id)
    records
    (Vp_hsd.Detector.snapshots d)

let test_profile_timeline () =
  let img = Program.layout (Gen.random_phased ~seed:7) in
  let p = Vacuum.Driver.profile ~config:timeline_config img in
  let tl = p.Vacuum.Driver.timeline in
  Alcotest.(check bool) "timeline enabled" true (T.enabled tl);
  let instrs = Option.get (T.Series.find tl "profile.instructions") in
  Alcotest.(check int)
    "interval series integrate to the run length"
    p.Vacuum.Driver.outcome.Emulator.instructions
    (Array.fold_left ( + ) 0 instrs);
  let branches = Option.get (T.Series.find tl "profile.branches") in
  Alcotest.(check int)
    "branch series integrates to retired branches"
    p.Vacuum.Driver.outcome.Emulator.cond_branches
    (Array.fold_left ( + ) 0 branches);
  List.iter
    (fun name ->
      Alcotest.(check int)
        (name ^ " sampled every interval")
        (Array.length instrs)
        (Array.length (Option.get (T.Series.find tl name))))
    [ "profile.hdc"; "profile.bbb_occupancy"; "profile.bbb_candidates" ];
  Alcotest.(check int)
    "record events = recordings"
    (List.length p.Vacuum.Driver.snapshots)
    (T.Event.count tl ~kind:"record")

let test_profile_disabled_by_default () =
  let img = Program.layout (Gen.random_phased ~seed:7) in
  let p = Vacuum.Driver.profile ~config:(tiny_config Obs.disabled) img in
  Alcotest.(check bool)
    "default profile carries the disabled timeline" false
    (T.enabled p.Vacuum.Driver.timeline)

let test_residency_integrates_to_coverage () =
  let img = Program.layout (Gen.random_phased ~seed:3) in
  let config = timeline_config in
  let r = Vacuum.Driver.rewrite ~config img in
  let c = Vacuum.Coverage.measure ~config r in
  let res = c.Vacuum.Coverage.residency in
  let total series_name =
    match T.Series.find res series_name with
    | Some v -> Array.fold_left ( + ) 0 v
    | None -> Alcotest.failf "missing series %s" series_name
  in
  Alcotest.(check int)
    "run.instructions integrates to the rewritten run"
    c.Vacuum.Coverage.outcome.Emulator.instructions (total "run.instructions");
  let pkg_sum =
    List.fold_left
      (fun acc name ->
        if name = "run.instructions" || name = "run.orig.instructions" then acc
        else acc + total name)
      0 (T.Series.names res)
  in
  Alcotest.(check int)
    "package lanes integrate to the Figure 8 numerator"
    c.Vacuum.Coverage.outcome.Emulator.package_instructions pkg_sum;
  Alcotest.(check int)
    "lanes partition the run"
    c.Vacuum.Coverage.outcome.Emulator.instructions
    (pkg_sum + total "run.orig.instructions")

let test_timing_series () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:500 ~repeats:2) in
  let tl = T.create (sampling ~interval:1_000 ()) in
  let stats = Vp_cpu.Pipeline.simulate ~timeline:tl img in
  let sum name = Array.fold_left ( + ) 0 (Option.get (T.Series.find tl name)) in
  Alcotest.(check int) "instruction deltas integrate"
    stats.Vp_cpu.Pipeline.instructions (sum "timing.instructions");
  Alcotest.(check int) "cycle deltas integrate" stats.Vp_cpu.Pipeline.cycles
    (sum "timing.cycles");
  Alcotest.(check int) "icache deltas integrate"
    stats.Vp_cpu.Pipeline.icache_misses
    (sum "timing.icache_misses");
  Alcotest.(check int) "mispredict deltas integrate"
    stats.Vp_cpu.Pipeline.branch_mispredicts
    (sum "timing.mispredicts")

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "vp_obs"
    [
      ( "counters",
        [
          quick "basics" test_counter_basics;
          quick "disabled" test_counter_disabled;
          quick "bump parallel safety" test_counter_bump_is_parallel_safe;
        ] );
      ( "spans",
        [
          quick "nesting" test_span_nesting;
          quick "record" test_span_record;
          quick "record exception safety" test_span_record_exception_safe;
          quick "note" test_span_note;
          quick "lane per domain" test_span_lanes;
          quick "ring wraparound" test_ring_wraparound;
          quick "disabled no-op" test_disabled_spans_are_free;
          quick "disabled zero allocation" test_disabled_spans_zero_alloc;
        ] );
      ( "sink",
        [
          quick "trace roundtrip" test_trace_roundtrip;
          quick "validate rejects garbage" test_validate_rejects_garbage;
          quick "validate requires meta" test_validate_file_requires_meta;
        ] );
      ( "hist",
        [
          quick "bounds and index" test_hist_bounds;
          quick "exact count and sum" test_hist_exact_count_sum;
          quick "quantiles" test_hist_quantiles;
          quick "merge additive" test_hist_merge;
        ] );
      ( "registry",
        [
          quick "counter gauge histogram" test_registry_ops;
          quick "disabled registry inert" test_disabled_registry_inert;
          quick "first registration wins" test_first_registration_wins;
        ] );
      ("alloc", [ quick "disabled path allocation-free" test_disabled_zero_alloc ]);
      ( "snapshot",
        [
          quick "volatility classes" test_render_volatility_classes;
          quick "write validate read roundtrip" test_snapshot_write_validate_roundtrip;
          quick "validator names the line" test_validator_rejections;
        ] );
      ( "determinism",
        [
          quick "stable snapshot jobs-invariant" test_stable_snapshot_jobs_invariant;
          slow "stable snapshot backend-invariant"
            test_stable_snapshot_backend_invariant;
          slow "traces identical across --jobs" test_traces_identical_across_jobs;
        ] );
      ("sched", [ quick "pool hook totals" test_pool_hooks_totals ]);
      ("perfetto", [ quick "export and validate" test_perfetto_export ]);
      ( "flight",
        [
          quick "dump on failure" test_flight_dump;
          quick "no-op without dir" test_flight_noop_without_dir;
        ] );
      ( "storage",
        [
          quick "series basics" test_series_basics;
          quick "event basics" test_event_basics;
          quick "disabled no-op" test_timeline_disabled_noop;
          quick "disabled zero allocation" test_disabled_storage_zero_alloc;
          quick "bad interval rejected" test_bad_interval_rejected;
          quick "summary" test_summary;
        ] );
      ( "trace",
        [
          quick "roundtrip" test_timeline_trace_roundtrip;
          quick "rejects garbage" test_timeline_rejects_garbage;
          quick "rejects foreign schema" test_timeline_rejects_foreign_schema;
        ] );
      ( "render",
        [
          quick "sparkline" test_sparkline;
          quick "lane" test_lane;
          quick "extent rows" test_extent_rows;
        ] );
      ( "pipeline",
        [
          quick "driver span coverage" test_driver_span_coverage;
          quick "observation preserves behaviour"
            (behaviour_preserved (fun () -> Obs.create ()));
          slow "engine determinism across --jobs" test_engine_determinism_across_jobs;
        ] );
      ( "wiring",
        [
          quick "detector hooks" test_detector_hooks_match_counters;
          quick "profile timeline" test_profile_timeline;
          quick "disabled by default" test_profile_disabled_by_default;
          quick "behaviour preserving"
            (behaviour_preserved (sampling ~interval:1_000));
          quick "residency integrates to coverage"
            test_residency_integrates_to_coverage;
          quick "timing series" test_timing_series;
        ] );
    ]
