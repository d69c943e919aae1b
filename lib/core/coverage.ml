module Emulator = Vp_exec.Emulator
module Image = Vp_prog.Image
module Timeline = Vp_obs.Timeline

type t = {
  coverage_pct : float;
  outcome : Emulator.outcome;
  equivalent : bool;
  residency : Timeline.t;
}

(* pc -> residency lane.  Lane 0 is the original program; lane k > 0
   is the k-th symbol appended at or above [orig_limit] (one lane per
   emitted package group).  A flat array keeps the per-retirement
   attribution to one load. *)
let lanes_of_image image =
  let n = Image.size image in
  let lane_of = Array.make n 0 in
  let names = ref [ "orig" ] in
  let k = ref 0 in
  List.iter
    (fun (s : Image.sym) ->
      if s.Image.start >= image.Image.orig_limit then begin
        incr k;
        names := s.Image.name :: !names;
        for pc = s.Image.start to s.Image.start + s.Image.len - 1 do
          lane_of.(pc) <- !k
        done
      end)
    (Image.functions image);
  (lane_of, Array.of_list (List.rev !names))

let measure ?(config = Config.default) (r : Driver.rewrite) =
  let obs = Config.obs config in
  Vp_obs.Span.record obs "coverage"
    ~work:(fun c -> c.outcome.Emulator.instructions)
  @@ fun () ->
  let image = Driver.rewritten_image r in
  (* Per-run residency timeline: which address range (original code or
     which emitted package) retired each interval's instructions, plus
     the migration events between them. *)
  let tl = Timeline.create obs in
  let on_retire, tail_flush =
    if not (Timeline.enabled tl) then (None, fun () -> ())
    else begin
      let lane_of, lane_names = lanes_of_image image in
      let lanes = Array.length lane_names in
      let series =
        Array.init lanes (fun k ->
            Timeline.Series.register tl
              (Printf.sprintf "run.%s.instructions" lane_names.(k)))
      in
      let s_instr = Timeline.Series.register tl "run.instructions" in
      let counts = Array.make lanes 0 in
      let interval = Timeline.interval_length tl in
      let countdown = ref interval in
      let retired = ref 0 in
      let cur_lane = ref 0 in
      let flush n =
        Timeline.Series.push tl s_instr n;
        for k = 0 to lanes - 1 do
          Timeline.Series.push tl series.(k) counts.(k);
          counts.(k) <- 0
        done
      in
      ( Some
          (fun ~pc ~taken:_ ~next_pc:_ ~mem_addr:_ ->
            let lane = lane_of.(pc) in
            counts.(lane) <- counts.(lane) + 1;
            incr retired;
            if lane <> !cur_lane then begin
              let kind =
                if !cur_lane = 0 then "launch"
                else if lane = 0 then "side_exit"
                else "migrate"
              in
              let value = if lane = 0 then !cur_lane else lane in
              Timeline.Event.emit tl ~kind ~at:!retired ~value;
              cur_lane := lane
            end;
            decr countdown;
            if !countdown = 0 then begin
              countdown := interval;
              flush interval
            end),
        fun () ->
          let tail = interval - !countdown in
          if tail > 0 then flush tail )
    end
  in
  let outcome =
    Emulator.run_backend ~backend:(Config.backend config)
      ~fuel:(Config.fuel config) ~mem_words:(Config.mem_words config)
      ?on_retire image
  in
  tail_flush ();
  if not outcome.Emulator.halted then
    Logs.warn (fun m ->
        m
          "coverage run truncated: fuel (%d) exhausted after %d instructions \
           on the rewritten binary"
          (Config.fuel config) outcome.Emulator.instructions);
  let original = r.Driver.source.Driver.outcome in
  {
    coverage_pct =
      Vp_util.Stats.pct outcome.Emulator.package_instructions
        outcome.Emulator.instructions;
    outcome;
    equivalent =
      outcome.Emulator.halted
      && outcome.Emulator.checksum = original.Emulator.checksum
      && outcome.Emulator.result = original.Emulator.result;
    residency = tl;
  }
