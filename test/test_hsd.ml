(* Tests for vp_hsd: BBB mechanics (hits, candidacy, contention,
   refresh/clear), HDC detection math, and end-to-end detection on
   emulated phased programs. *)

module Config = Vp_hsd.Config
module Bbb = Vp_hsd.Bbb
module Snapshot = Vp_hsd.Snapshot
module Detector = Vp_hsd.Detector
module Progs = Vp_test_support.Progs
module Program = Vp_prog.Program
module Emulator = Vp_exec.Emulator

let tiny = Config.tiny

let test_config_validation () =
  (match Config.validate Config.default with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Config.validate { Config.default with Config.sets = 0 } with
  | Ok () -> Alcotest.fail "zero sets accepted"
  | Error _ -> ());
  match Config.validate { Config.default with Config.candidate_threshold = 1 lsl 9 } with
  | Ok () -> Alcotest.fail "threshold beyond counter accepted"
  | Error _ -> ()

let test_bbb_candidacy () =
  let bbb = Bbb.create tiny in
  (* Below threshold: non-candidate. *)
  for _ = 1 to tiny.Config.candidate_threshold - 1 do
    match Bbb.record bbb ~pc:100 ~taken:true with
    | Bbb.Non_candidate -> ()
    | _ -> Alcotest.fail "expected non-candidate below threshold"
  done;
  (match Bbb.record bbb ~pc:100 ~taken:true with
  | Bbb.Candidate -> ()
  | _ -> Alcotest.fail "expected candidate at threshold");
  Alcotest.(check int) "one candidate" 1 (Bbb.candidates bbb)

let test_bbb_contention_drops () =
  (* tiny has 1 set x 4 ways; five hot branches contend. *)
  let bbb = Bbb.create tiny in
  let make_candidate pc =
    for _ = 1 to tiny.Config.candidate_threshold do
      ignore (Bbb.record bbb ~pc ~taken:true)
    done
  in
  List.iter make_candidate [ 10; 11; 12; 13 ];
  Alcotest.(check int) "four candidates" 4 (Bbb.candidates bbb);
  (match Bbb.record bbb ~pc:14 ~taken:true with
  | Bbb.Dropped -> ()
  | _ -> Alcotest.fail "fifth branch should be dropped");
  Alcotest.(check bool) "not tracked" false (Bbb.tracked bbb ~pc:14)

let test_bbb_noncandidate_eviction () =
  let bbb = Bbb.create tiny in
  (* Three candidates and one non-candidate. *)
  List.iter
    (fun pc ->
      for _ = 1 to tiny.Config.candidate_threshold do
        ignore (Bbb.record bbb ~pc ~taken:true)
      done)
    [ 10; 11; 12 ];
  ignore (Bbb.record bbb ~pc:13 ~taken:true);
  (* A new branch evicts the non-candidate, not a candidate. *)
  (match Bbb.record bbb ~pc:14 ~taken:true with
  | Bbb.Non_candidate -> ()
  | _ -> Alcotest.fail "expected installation as non-candidate");
  Alcotest.(check bool) "13 evicted" false (Bbb.tracked bbb ~pc:13);
  Alcotest.(check bool) "candidates kept" true (Bbb.tracked bbb ~pc:10)

let test_bbb_refresh_clears_noncandidates_only () =
  let bbb = Bbb.create tiny in
  for _ = 1 to tiny.Config.candidate_threshold do
    ignore (Bbb.record bbb ~pc:10 ~taken:true)
  done;
  ignore (Bbb.record bbb ~pc:11 ~taken:true);
  Bbb.refresh bbb;
  (* The candidate keeps its counts. *)
  let entries = Bbb.snapshot_entries bbb in
  Alcotest.(check int) "one snapshot entry" 1 (List.length entries);
  let e = List.hd entries in
  Alcotest.(check int) "counts kept" tiny.Config.candidate_threshold e.Snapshot.executed;
  (* The non-candidate was zeroed: threshold more hits needed again. *)
  let v = Bbb.record bbb ~pc:11 ~taken:true in
  Alcotest.(check bool) "still non-candidate" true (v = Bbb.Non_candidate)

let test_bbb_clear () =
  let bbb = Bbb.create tiny in
  for _ = 1 to 100 do
    ignore (Bbb.record bbb ~pc:10 ~taken:true)
  done;
  Bbb.clear bbb;
  Alcotest.(check int) "empty" 0 (Bbb.occupancy bbb);
  Alcotest.(check (list int)) "no entries" []
    (List.map (fun e -> e.Snapshot.pc) (Bbb.snapshot_entries bbb))

let test_bbb_snapshot_sorted () =
  let bbb = Bbb.create tiny in
  List.iter
    (fun pc ->
      for _ = 1 to tiny.Config.candidate_threshold do
        ignore (Bbb.record bbb ~pc ~taken:(pc mod 2 = 0))
      done)
    [ 13; 10; 12 ];
  let pcs = List.map (fun e -> e.Snapshot.pc) (Bbb.snapshot_entries bbb) in
  Alcotest.(check (list int)) "ascending" [ 10; 12; 13 ] pcs

let test_snapshot_bias () =
  let e pc executed taken = { Snapshot.pc; executed; taken } in
  Alcotest.(check bool) "taken biased" true (Snapshot.bias (e 0 100 95) = Snapshot.Taken);
  Alcotest.(check bool) "not-taken biased" true
    (Snapshot.bias (e 0 100 5) = Snapshot.Not_taken);
  Alcotest.(check bool) "unbiased" true (Snapshot.bias (e 0 100 50) = Snapshot.Unbiased)

(* Feed a synthetic branch stream: [spec] is a list of (pc, taken)
   thunks cycled [n] times. *)
let feed detector n cycle =
  for i = 0 to n - 1 do
    let pc, taken = List.nth cycle (i mod List.length cycle) in
    Detector.on_branch detector ~pc ~taken
  done

let test_detector_detects_stable_loop () =
  let d = Detector.create ~config:tiny () in
  feed d 4000 [ (100, true); (101, false); (102, true) ];
  Alcotest.(check bool) "detected" true (Detector.detections d > 0);
  let snaps = Detector.snapshots d in
  Alcotest.(check bool) "recorded" true (snaps <> []);
  let first = List.hd snaps in
  List.iter
    (fun pc ->
      Alcotest.(check bool)
        (Printf.sprintf "pc %d captured" pc)
        true
        (List.mem pc (Snapshot.branch_pcs first)))
    [ 100; 101; 102 ]

let test_detector_hooks () =
  (* The telemetry callbacks fire once per counter bump, stamped with
     the retired-branch index the snapshot itself records. *)
  let d = Detector.create ~config:tiny () in
  let detects = ref 0 and rearm_count = ref 0 and stamps = ref [] in
  Detector.set_hooks d
    ~on_detect:(fun ~branches:_ ~detections -> detects := detections)
    ~on_record:(fun ~branches ~id -> stamps := (branches, id) :: !stamps)
    ~on_rearm:(fun ~branches:_ ~rearms -> rearm_count := rearms);
  feed d 8000 [ (100, true); (101, false) ];
  Alcotest.(check int) "detect hook saw every detection"
    (Detector.detections d) !detects;
  Alcotest.(check int) "rearm hook saw every rearm" (Detector.rearms d)
    !rearm_count;
  let stamps = List.rev !stamps in
  Alcotest.(check int) "record hook saw every recording"
    (Detector.recordings d) (List.length stamps);
  List.iter2
    (fun (branches, id) (snap : Snapshot.t) ->
      Alcotest.(check int) "stamp = detected_at" snap.Snapshot.detected_at branches;
      Alcotest.(check int) "id = snapshot id" snap.Snapshot.id id)
    stamps (Detector.snapshots d);
  (* Partial re-installation keeps the other hooks in place. *)
  let before = !detects in
  Detector.set_hooks d ~on_rearm:(fun ~branches:_ ~rearms:_ -> ());
  feed d 8000 [ (100, true); (101, false) ];
  Alcotest.(check bool) "detect hook survives partial set_hooks" true
    (!detects > before)

let test_detector_redetects_same_phase () =
  let d = Detector.create ~config:tiny () in
  feed d 8000 [ (100, true); (101, false) ];
  (* Raw behaviour records the same hot spot repeatedly. *)
  Alcotest.(check bool) "multiple recordings" true (Detector.recordings d > 1)

let test_detector_history_suppresses () =
  let same a b =
    List.sort compare (Snapshot.branch_pcs a) = List.sort compare (Snapshot.branch_pcs b)
  in
  let d = Detector.create ~config:tiny ~history_size:1 ~same () in
  feed d 8000 [ (100, true); (101, false) ];
  Alcotest.(check bool) "many detections" true (Detector.detections d > 1);
  Alcotest.(check int) "single recording" 1 (Detector.recordings d)

let test_detector_phase_transition () =
  let d = Detector.create ~config:tiny () in
  feed d 4000 [ (100, true); (101, false) ];
  feed d 4000 [ (200, false); (201, true) ];
  let snaps = Detector.snapshots d in
  let has pcs snap = List.exists (fun pc -> List.mem pc pcs) (Snapshot.branch_pcs snap) in
  Alcotest.(check bool) "phase A seen" true (List.exists (has [ 100; 101 ]) snaps);
  Alcotest.(check bool) "phase B seen" true (List.exists (has [ 200; 201 ]) snaps);
  (* Extents are monotone and non-overlapping. *)
  let rec check_monotone = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "ordered" true
        (a.Snapshot.ended_at <= b.Snapshot.detected_at + 1);
      check_monotone rest
    | _ -> ()
  in
  check_monotone snaps;
  List.iter
    (fun s ->
      Alcotest.(check bool) "extent positive" true (Snapshot.extent s >= 0))
    snaps

let test_detector_cold_noise_no_detection () =
  let d = Detector.create ~config:tiny () in
  (* Every branch unique: nothing ever becomes a candidate. *)
  for i = 0 to 20_000 do
    Detector.on_branch d ~pc:(1000 + i) ~taken:(i mod 2 = 0)
  done;
  Alcotest.(check int) "no detection" 0 (Detector.detections d)

let test_detector_on_emulated_two_phase () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:3000 ~repeats:3) in
  let d = Detector.create ~config:tiny () in
  let o = Emulator.run_backend ~on_branch:(fun ~pc ~taken -> Detector.on_branch d ~pc ~taken) img in
  Alcotest.(check bool) "halted" true o.Emulator.halted;
  Alcotest.(check int) "branches counted" o.Emulator.cond_branches
    (Detector.branches_seen d);
  Alcotest.(check bool) "hot spots found" true (Detector.recordings d >= 2);
  (* Snapshot branch pcs must be real conditional branches of the image. *)
  List.iter
    (fun snap ->
      List.iter
        (fun pc ->
          match Vp_prog.Image.fetch img pc with
          | Vp_isa.Instr.Br _ -> ()
          | i ->
            Alcotest.failf "snapshot pc 0x%x is %s, not a branch" pc
              (Vp_isa.Instr.to_string i))
        (Snapshot.branch_pcs snap))
    (Detector.snapshots d)

let prop_detector_extents_well_formed =
  QCheck.Test.make ~name:"snapshot extents well-formed under random streams" ~count:30
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Vp_util.Rng.create ~seed in
      let d = Detector.create ~config:tiny () in
      (* A few random phases of random loops. *)
      for _ = 0 to 3 do
        let base = 100 * (1 + Vp_util.Rng.int rng 50) in
        let width = 1 + Vp_util.Rng.int rng 4 in
        let len = 1000 + Vp_util.Rng.int rng 3000 in
        for i = 0 to len - 1 do
          Detector.on_branch d
            ~pc:(base + (i mod width))
            ~taken:(Vp_util.Rng.bool rng 0.8)
        done
      done;
      List.for_all
        (fun s ->
          s.Snapshot.detected_at <= s.Snapshot.ended_at
          && s.Snapshot.branches <> []
          && List.for_all (fun e -> e.Snapshot.taken <= e.Snapshot.executed)
               s.Snapshot.branches)
        (Detector.snapshots d))

let () =
  Alcotest.run "vp_hsd"
    [
      ( "bbb",
        [
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "candidacy" `Quick test_bbb_candidacy;
          Alcotest.test_case "contention drops" `Quick test_bbb_contention_drops;
          Alcotest.test_case "non-candidate eviction" `Quick test_bbb_noncandidate_eviction;
          Alcotest.test_case "refresh" `Quick test_bbb_refresh_clears_noncandidates_only;
          Alcotest.test_case "clear" `Quick test_bbb_clear;
          Alcotest.test_case "snapshot sorted" `Quick test_bbb_snapshot_sorted;
          Alcotest.test_case "snapshot bias" `Quick test_snapshot_bias;
        ] );
      ( "detector",
        [
          Alcotest.test_case "stable loop" `Quick test_detector_detects_stable_loop;
          Alcotest.test_case "telemetry hooks" `Quick test_detector_hooks;
          Alcotest.test_case "re-detection" `Quick test_detector_redetects_same_phase;
          Alcotest.test_case "history suppression" `Quick test_detector_history_suppresses;
          Alcotest.test_case "phase transition" `Quick test_detector_phase_transition;
          Alcotest.test_case "cold noise" `Quick test_detector_cold_noise_no_detection;
          Alcotest.test_case "emulated two-phase" `Quick test_detector_on_emulated_two_phase;
          QCheck_alcotest.to_alcotest prop_detector_extents_well_formed;
        ] );
    ]
