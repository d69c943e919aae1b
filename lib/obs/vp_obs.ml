(* The observability recorder (see vp_obs.mli).

   One mutex guards the whole recorder: every update is a cold
   once-per-stage or once-per-epoch event (the hot execution loops are
   never instrumented directly), so contention is irrelevant and the
   single lock buys the deterministic-merge discipline for free —
   counters are plain additions and histograms merge additively, so
   any interleaving of writers yields the same stable readings. *)

let default_interval = 10_000
let span_capacity = 4096
let flight_capacity = 64

(* ------------------------------------------------------------------ *)
(* Shared format helpers: one JSON escape, one line validator.         *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let find_sub hay needle =
  let hn = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > hn then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

let contains hay needle = find_sub hay needle <> None

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* Validate a file line by line: [check ~last i line] sees 1-based line
   numbers; the first error is reported as "line I: ...", success as
   the number of lines. *)
let validate_lines ~path ~empty check =
  match read_lines path with
  | exception Sys_error e -> Error e
  | [] -> Error empty
  | lines ->
    let n = List.length lines in
    let rec walk i = function
      | [] -> Ok n
      | line :: rest -> (
        match check ~last:(i = n) i line with
        | Ok () -> walk (i + 1) rest
        | Error e -> Error (Printf.sprintf "line %d: %s" i e))
    in
    walk 1 lines

(* The string value of ["key": "v"] (or ["key":"v"]) in a one-line
   JSON object written by this module. *)
let string_field line key =
  match find_sub line (Printf.sprintf "\"%s\":" key) with
  | None -> None
  | Some i ->
    let j = ref (i + String.length key + 3) in
    while !j < String.length line && line.[!j] = ' ' do
      incr j
    done;
    if !j >= String.length line || line.[!j] <> '"' then None
    else
      Option.map
        (fun k -> String.sub line (!j + 1) (k - !j - 1))
        (String.index_from_opt line (!j + 1) '"')

(* A record line: a one-line JSON object whose [tag] field names a
   record type, with every key [required] demands for that type.  Not a
   general JSON parser — every format here is written by this module. *)
let check_record ~tag ~required line =
  let n = String.length line in
  if n < 2 || line.[0] <> '{' || line.[n - 1] <> '}' then
    Error "not a single-line JSON object"
  else
    match string_field line tag with
    | None -> Error (Printf.sprintf "missing %S tag" tag)
    | Some ty -> (
      match required ty with
      | None -> Error (Printf.sprintf "unknown record type %S" ty)
      | Some keys -> (
        match
          List.find_opt
            (fun k -> not (contains line (Printf.sprintf "\"%s\":" k)))
            keys
        with
        | Some k -> Error (Printf.sprintf "%s record lacks key %S" ty k)
        | None -> Ok ()))

let write_file ~path content =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc content;
  close_out oc;
  Sys.rename tmp path

(* ------------------------------------------------------------------ *)
(* Histogram: 64 log2 buckets, exact count and sum.                    *)

module Hist = struct
  type h = { counts : int array; mutable count : int; mutable sum : int }

  let buckets = 64
  let create () = { counts = Array.make buckets 0; count = 0; sum = 0 }

  let index v =
    if v <= 0 then 0
    else begin
      (* 1 + ceil (log2 v), by shifting *)
      let l = ref 0 and x = ref (v - 1) in
      while !x > 0 do
        incr l;
        x := !x lsr 1
      done;
      Stdlib.min (buckets - 1) (1 + !l)
    end

  (* [1 lsl 62] would wrap negative; the last bucket absorbs everything
     larger anyway, so its bound is max_int. *)
  let bound i =
    if i <= 0 then 0 else if i >= buckets - 1 then max_int else 1 lsl (i - 1)

  let observe h v =
    let i = index v in
    h.counts.(i) <- h.counts.(i) + 1;
    h.count <- h.count + 1;
    h.sum <- h.sum + v

  let count h = h.count
  let sum h = h.sum
  let bucket_count h i = h.counts.(i)

  let quantile h q =
    if h.count = 0 then 0
    else begin
      let rank = Stdlib.max 1 (int_of_float (ceil (q *. float_of_int h.count))) in
      let rec go i cum =
        let cum = cum + h.counts.(i) in
        if cum >= rank || i = buckets - 1 then bound i else go (i + 1) cum
      in
      go 0 0
    end

  let merge_into ~dst src =
    for i = 0 to buckets - 1 do
      dst.counts.(i) <- dst.counts.(i) + src.counts.(i)
    done;
    dst.count <- dst.count + src.count;
    dst.sum <- dst.sum + src.sum

  let copy h = { counts = Array.copy h.counts; count = h.count; sum = h.sum }
end

(* ------------------------------------------------------------------ *)
(* The recorder.                                                       *)

type metric = M_counter of int ref | M_gauge of int ref | M_hist of Hist.h
type entry = { volatile : bool; metric : metric }

type span = {
  name : string;
  depth : int;
  lane : int;
  seq : int;
  start_s : float;
  wall_s : float;
  work : int;
  minor_words : float;
  major_words : float;
}

(* Per-domain open-span stack: tasks on other domains get their own
   stack, so concurrent stages never see each other's nesting. *)
type frame = {
  mutable fname : string;
  mutable fstart : float;
  mutable fminor : float;
  mutable fmajor : float;
}

type dstack = { frames : frame array; mutable depth : int; lane : int }

let max_nesting = 64

type recorder = {
  lock : Mutex.t;
  interval : int option;
  table : (string, entry) Hashtbl.t;
  ring : span array;  (* slot = seq mod span_capacity *)
  mutable total : int;  (* spans ever recorded; the next seq *)
  stack : dstack Domain.DLS.key;
  flight_dir : string option;
  marks : (int * string * string) array;  (* (seq, kind, label) *)
  mutable marked : int;
  dump_seq : (string, int) Hashtbl.t;  (* per-label dump count *)
  mutable dumped : int;
}

type t = Disabled | Enabled of recorder

let disabled = Disabled

let no_span =
  {
    name = "";
    depth = 0;
    lane = 0;
    seq = 0;
    start_s = 0.0;
    wall_s = 0.0;
    work = 0;
    minor_words = 0.0;
    major_words = 0.0;
  }

let create ?interval ?flight_dir () =
  (match interval with
  | Some n when n <= 0 ->
    Vp_util.Error.failf ~stage:"obs"
      "Vp_obs.create: interval must be positive, got %d" n
  | _ -> ());
  (* Each domain that records a span takes the next lane on first use. *)
  let lanes = Atomic.make 0 in
  Enabled
    {
      lock = Mutex.create ();
      interval;
      table = Hashtbl.create 64;
      ring = Array.make span_capacity no_span;
      total = 0;
      stack =
        Domain.DLS.new_key (fun () ->
            {
              frames =
                Array.init max_nesting (fun _ ->
                    { fname = ""; fstart = 0.0; fminor = 0.0; fmajor = 0.0 });
              depth = 0;
              lane = Atomic.fetch_and_add lanes 1;
            });
      flight_dir;
      marks = Array.make flight_capacity (0, "", "");
      marked = 0;
      dump_seq = Hashtbl.create 8;
      dumped = 0;
    }

let enabled = function Disabled -> false | Enabled _ -> true
let interval = function Disabled -> None | Enabled r -> r.interval

let locked r f =
  Mutex.lock r.lock;
  match f () with
  | v ->
    Mutex.unlock r.lock;
    v
  | exception e ->
    Mutex.unlock r.lock;
    raise e

(* The cell of [name] if it has the wanted kind, creating it on first
   use.  A use under a different kind is dropped rather than raising —
   observability must never take the pipeline down. *)
let cell r ~volatile name ~make ~select =
  match Hashtbl.find_opt r.table name with
  | Some e -> select e.metric
  | None ->
    let metric = make () in
    Hashtbl.replace r.table name { volatile; metric };
    select metric

let counter_of = function M_counter c -> Some c | _ -> None
let gauge_of = function M_gauge c -> Some c | _ -> None
let hist_of = function M_hist h -> Some h | _ -> None

let read t name select ~default =
  match t with
  | Disabled -> default
  | Enabled r ->
    locked r (fun () ->
        match Hashtbl.find_opt r.table name with
        | Some e -> Option.value ~default (select e.metric)
        | None -> default)

module Counter = struct
  let bump ?(volatile = false) t name n =
    match t with
    | Disabled -> ()
    | Enabled r ->
      locked r (fun () ->
          match
            cell r ~volatile name
              ~make:(fun () -> M_counter (ref 0))
              ~select:counter_of
          with
          | Some c -> c := !c + n
          | None -> ())

  let value t name =
    read t name (fun m -> Option.map ( ! ) (counter_of m)) ~default:0
end

module Gauge = struct
  let set t name v =
    match t with
    | Disabled -> ()
    | Enabled r ->
      locked r (fun () ->
          match
            cell r ~volatile:true name
              ~make:(fun () -> M_gauge (ref 0))
              ~select:gauge_of
          with
          | Some c -> c := v
          | None -> ())

  let value t name =
    read t name (fun m -> Option.map ( ! ) (gauge_of m)) ~default:0
end

module Histogram = struct
  let observe ?(volatile = false) t name v =
    match t with
    | Disabled -> ()
    | Enabled r ->
      locked r (fun () ->
          match
            cell r ~volatile name
              ~make:(fun () -> M_hist (Hist.create ()))
              ~select:hist_of
          with
          | Some h -> Hist.observe h v
          | None -> ())

  let get t name =
    read t name (fun m -> Option.map (fun h -> Some (Hist.copy h)) (hist_of m))
      ~default:None
end

(* ------------------------------------------------------------------ *)
(* Spans.                                                              *)

let append r ~name ~depth ~lane ~start_s ~wall_s ~work ~minor_words
    ~major_words =
  locked r (fun () ->
      r.ring.(r.total mod span_capacity) <-
        {
          name;
          depth;
          lane;
          seq = r.total;
          start_s;
          wall_s;
          work;
          minor_words;
          major_words;
        };
      r.total <- r.total + 1)

module Span = struct
  (* 0 = null; otherwise the frame's stack position + 1 on the entering
     domain. *)
  type token = int

  let null = 0

  let enter t name =
    match t with
    | Disabled -> null
    | Enabled r ->
      let st = Domain.DLS.get r.stack in
      if st.depth >= max_nesting then null
      else begin
        let f = st.frames.(st.depth) in
        f.fname <- name;
        f.fminor <- Gc.minor_words ();
        f.fmajor <- (Gc.quick_stat ()).Gc.major_words;
        f.fstart <- Unix.gettimeofday ();
        st.depth <- st.depth + 1;
        st.depth
      end

  let exit ?(work = 0) t token =
    match t with
    | Enabled r when token > 0 ->
      let st = Domain.DLS.get r.stack in
      if token <= st.depth then begin
        let stop = Unix.gettimeofday () in
        let minor = Gc.minor_words () in
        let major = (Gc.quick_stat ()).Gc.major_words in
        (* Pop down to this frame; unclosed children (a raise skipped
           their exit) are discarded with their parent's extent. *)
        let f = st.frames.(token - 1) in
        st.depth <- token - 1;
        append r ~name:f.fname ~depth:(token - 1) ~lane:st.lane
          ~start_s:f.fstart
          ~wall_s:(stop -. f.fstart) ~work ~minor_words:(minor -. f.fminor)
          ~major_words:(major -. f.fmajor)
      end
    | _ -> ()

  let record ?work t name f =
    match t with
    | Disabled -> f ()
    | Enabled _ -> (
      let token = enter t name in
      match f () with
      | v ->
        exit ?work:(Option.map (fun w -> w v) work) t token;
        v
      | exception e ->
        exit ~work:(-1) t token;
        raise e)

  let note t name ~wall_s ~work =
    match t with
    | Disabled -> ()
    | Enabled r ->
      let lane = (Domain.DLS.get r.stack).lane in
      append r ~name ~depth:0 ~lane
        ~start_s:(Unix.gettimeofday () -. wall_s)
        ~wall_s ~work ~minor_words:0.0 ~major_words:0.0
end

module Sink = struct
  let spans = function
    | Disabled -> []
    | Enabled r ->
      locked r (fun () ->
          let kept = Stdlib.min r.total span_capacity in
          List.init kept (fun i ->
              r.ring.((r.total - kept + i) mod span_capacity)))

  let counters = function
    | Disabled -> []
    | Enabled r ->
      locked r (fun () ->
          Hashtbl.fold
            (fun name e acc ->
              match e.metric with M_counter c -> (name, !c) :: acc | _ -> acc)
            r.table [])
      |> List.sort compare

  let dropped_spans = function
    | Disabled -> 0
    | Enabled r -> locked r (fun () -> Stdlib.max 0 (r.total - span_capacity))

  (* Spans in chronological (start) order, indented by nesting depth. *)
  let span_table t =
    let open Vp_util.Tabular in
    let tab =
      create
        ~header:
          [
            ("span", Left); ("wall", Right); ("work", Right);
            ("minor words", Right); ("major words", Right);
          ]
    in
    List.iter
      (fun (s : span) ->
        add_row tab
          [
            String.make (2 * s.depth) ' ' ^ s.name;
            Printf.sprintf "%.3f ms" (1e3 *. s.wall_s);
            (if s.work = 0 then "-" else string_of_int s.work);
            Printf.sprintf "%.0f" s.minor_words;
            Printf.sprintf "%.0f" s.major_words;
          ])
      (List.sort
         (fun a b -> compare (a.start_s, a.seq) (b.start_s, b.seq))
         (spans t));
    tab

  let counter_table t =
    let open Vp_util.Tabular in
    let tab = create ~header:[ ("counter", Left); ("value", Right) ] in
    List.iter
      (fun (name, v) -> add_row tab [ name; string_of_int v ])
      (counters t);
    tab
end

(* ------------------------------------------------------------------ *)
(* OpenMetrics-style text exposition: vp-metrics-snapshot/1.           *)

module Snapshot = struct
  type sample = Counter of int | Gauge of int | Hist of Hist.h

  let schema = "# vp-metrics-snapshot/1"

  let sanitize name =
    String.map
      (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as c -> c | _ -> '_')
      name

  (* A frozen copy of the registry, split by volatility, each half
     sorted by name. *)
  let sections = function
    | Disabled -> ([], [])
    | Enabled r ->
      let stable, vol =
        locked r (fun () ->
            Hashtbl.fold
              (fun name e (s, v) ->
                let sample =
                  match e.metric with
                  | M_counter c -> Counter !c
                  | M_gauge g -> Gauge !g
                  | M_hist h -> Hist (Hist.copy h)
                in
                if e.volatile then (s, (name, sample) :: v)
                else ((name, sample) :: s, v))
              r.table ([], []))
      in
      let by_name (a, _) (b, _) = String.compare a b in
      (List.sort by_name stable, List.sort by_name vol)

  let samples ?(volatile = false) t =
    let stable, vol = sections t in
    if volatile then stable @ vol else stable

  let render_sample buf (name, sample) =
    let n = sanitize name in
    let line fmt = Printf.bprintf buf (fmt ^^ "\n") in
    match sample with
    | Counter v ->
      line "# TYPE %s counter" n;
      line "%s_total %d" n v
    | Gauge v ->
      line "# TYPE %s gauge" n;
      line "%s %d" n v
    | Hist h ->
      line "# TYPE %s histogram" n;
      let cum = ref 0 in
      for i = 0 to Hist.buckets - 1 do
        let c = Hist.bucket_count h i in
        if c > 0 then begin
          cum := !cum + c;
          line "%s_bucket{le=\"%d\"} %d" n (Hist.bound i) !cum
        end
      done;
      line "%s_bucket{le=\"+Inf\"} %d" n (Hist.count h);
      line "%s_sum %d" n (Hist.sum h);
      line "%s_count %d" n (Hist.count h);
      line "%s_p50 %d" n (Hist.quantile h 0.50);
      line "%s_p90 %d" n (Hist.quantile h 0.90);
      line "%s_p99 %d" n (Hist.quantile h 0.99)

  let render ?(volatile = false) t =
    let stable, vol = sections t in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (schema ^ "\n");
    List.iter (render_sample buf) stable;
    if volatile && vol <> [] then begin
      Buffer.add_string buf "# volatile\n";
      List.iter (render_sample buf) vol
    end;
    Buffer.add_string buf "# EOF\n";
    Buffer.contents buf

  let write ?volatile t ~path = write_file ~path (render ?volatile t)

  let check_line ~last i line =
    if i = 1 && line <> schema then
      Error (Printf.sprintf "expected %S meta line" schema)
    else if last then
      if i > 1 && line = "# EOF" then Ok ()
      else Error "missing \"# EOF\" trailer"
    else if i = 1 then Ok ()
    else if line = "" then Error "empty line"
    else if line = "# EOF" then Error "unexpected \"# EOF\""
    else if String.starts_with ~prefix:"# TYPE " line then
      match String.split_on_char ' ' line with
      | [ _; _; _; ("counter" | "gauge" | "histogram") ] -> Ok ()
      | _ ->
        Error
          "malformed TYPE line (want \"# TYPE name counter|gauge|histogram\")"
    else if line.[0] = '#' then Ok () (* # volatile, # reason, # mark *)
    else
      match String.rindex_opt line ' ' with
      | None -> Error "expected \"name value\""
      | Some sp -> (
        let name = String.sub line 0 sp in
        let v = String.sub line (sp + 1) (String.length line - sp - 1) in
        if name = "" then Error "empty metric name"
        else
          match name.[0] with
          | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
            if int_of_string_opt v = None then
              Error (Printf.sprintf "malformed value %S" v)
            else Ok ()
          | _ -> Error (Printf.sprintf "bad metric name %S" name))

  let validate_file ~path =
    validate_lines ~path ~empty:"empty snapshot" check_line

  (* Names come back in sanitized (rendered) form, in file order;
     histograms are rebuilt from their cumulative bucket lines. *)
  let read ~path =
    match validate_file ~path with
    | Error e -> Error e
    | Ok _ ->
      let lines = read_lines path in
      let order = ref [] in
      let vals = Hashtbl.create 64 in
      let bucks = Hashtbl.create 16 in
      let bucket = "_bucket{le=\"" in
      List.iter
        (fun line ->
          match String.split_on_char ' ' line with
          | [ "#"; "TYPE"; name; kind ] -> order := (name, kind) :: !order
          | _ when line.[0] = '#' -> ()
          | _ -> (
            let sp = String.rindex line ' ' in
            let name = String.sub line 0 sp in
            let v =
              int_of_string (String.sub line (sp + 1) (String.length line - sp - 1))
            in
            match find_sub name bucket with
            | None -> Hashtbl.replace vals name v
            | Some i -> (
              let j = i + String.length bucket in
              let le =
                Option.bind (String.index_from_opt name j '"') (fun k ->
                    int_of_string_opt (String.sub name j (k - j)))
              in
              match le with
              | Some b ->
                let base = String.sub name 0 i in
                Hashtbl.replace bucks base
                  ((b, v) :: Option.value ~default:[] (Hashtbl.find_opt bucks base))
              | None -> () (* +Inf *))))
        lines;
      let lookup name = Option.value ~default:0 (Hashtbl.find_opt vals name) in
      let sample_of (name, kind) =
        match kind with
        | "counter" -> Some (name, Counter (lookup (name ^ "_total")))
        | "gauge" -> Some (name, Gauge (lookup name))
        | "histogram" ->
          let h = Hist.create () in
          let prev = ref 0 in
          List.iter
            (fun (le, c) ->
              let i = Hist.index le in
              h.Hist.counts.(i) <- h.Hist.counts.(i) + c - !prev;
              prev := c)
            (List.sort compare
               (Option.value ~default:[] (Hashtbl.find_opt bucks name)));
          h.Hist.count <- lookup (name ^ "_count");
          h.Hist.sum <- lookup (name ^ "_sum");
          Some (name, Hist h)
        | _ -> None
      in
      Ok (List.filter_map sample_of (List.rev !order))
end

(* ------------------------------------------------------------------ *)
(* Chrome trace-event / Perfetto JSON export: vp-perfetto-trace/1.     *)

module Perfetto = struct
  type event = {
    name : string;
    cat : string;
    pid : int;
    tid : int;
    ts_us : float;
    dur_us : float;
  }

  let schema = "vp-perfetto-trace/1"

  let of_spans ~pid ~cat spans =
    List.map
      (fun (s : span) ->
        {
          name = s.name;
          cat;
          pid;
          tid = s.lane;
          ts_us = s.start_s *. 1e6;
          dur_us = s.wall_s *. 1e6;
        })
      spans

  let write ?(processes = []) ~path events =
    let t0 = List.fold_left (fun acc e -> Float.min acc e.ts_us) infinity events in
    let meta =
      List.map
        (fun (pid, label) ->
          Printf.sprintf
            "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"%s\"}}"
            pid (json_escape label))
        processes
    in
    let evs =
      List.map
        (fun e ->
          Printf.sprintf
            "{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"%s\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}"
            (json_escape e.name) (json_escape e.cat) e.pid e.tid
            (e.ts_us -. t0) e.dur_us)
        events
    in
    let body =
      match meta @ evs with [] -> "" | l -> String.concat ",\n" l ^ "\n"
    in
    write_file ~path
      (Printf.sprintf
         "{\"schema\":\"%s\",\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n%s]}\n"
         schema body)

  let write_spans t ~path =
    write ~processes:[ (1, "driver") ] ~path
      (of_spans ~pid:1 ~cat:"driver" (Sink.spans t))

  let required = function
    | "M" -> Some [ "name"; "pid" ]
    | "X" -> Some [ "name"; "pid"; "tid"; "ts"; "dur" ]
    | _ -> None

  let check_line ~last i line =
    if i = 1 then
      if not (contains line (Printf.sprintf "\"schema\":\"%s\"" schema)) then
        Error (Printf.sprintf "missing %S schema tag" schema)
      else if not (contains line "\"traceEvents\":[") then
        Error "missing \"traceEvents\" array opener"
      else Ok ()
    else if last then
      if line = "]}" then Ok () else Error "missing \"]}\" array closer"
    else
      let n = String.length line in
      check_record ~tag:"ph" ~required
        (if line.[n - 1] = ',' then String.sub line 0 (n - 1) else line)

  (* [Ok n]: the number of event records. *)
  let validate_file ~path =
    match validate_lines ~path ~empty:"empty trace" check_line with
    | Ok 1 -> Error "line 1: missing \"]}\" array closer"
    | r -> Result.map (fun n -> n - 2) r
end

(* ------------------------------------------------------------------ *)
(* Flight recorder.                                                    *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

module Flight = struct
  let note t ~kind ~label =
    match t with
    | Disabled -> ()
    | Enabled r ->
      locked r (fun () ->
          r.marks.(r.marked mod flight_capacity) <- (r.marked, kind, label);
          r.marked <- r.marked + 1)

  let dump t ~reason ~label () =
    match t with
    | Enabled ({ flight_dir = Some dir; _ } as r) ->
      let seq, marks =
        locked r (fun () ->
            let n = Option.value ~default:0 (Hashtbl.find_opt r.dump_seq label) in
            Hashtbl.replace r.dump_seq label (n + 1);
            r.dumped <- r.dumped + 1;
            let kept = Stdlib.min r.marked flight_capacity in
            ( n,
              List.init kept (fun j ->
                  r.marks.((r.marked - kept + j) mod flight_capacity)) ))
      in
      mkdir_p dir;
      let base =
        Filename.concat dir
          (Printf.sprintf "flight-%s-%d"
             (String.map
                (function
                  | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_') as c -> c
                  | _ -> '-')
                label)
             seq)
      in
      (* The reason and the mark ring go in as comment lines right after
         the schema line, so the dump stays a valid snapshot. *)
      let rendered = Snapshot.render ~volatile:true t in
      let cut = String.index rendered '\n' + 1 in
      let buf = Buffer.create (String.length rendered + 256) in
      Buffer.add_string buf (String.sub rendered 0 cut);
      Printf.bprintf buf "# reason %s\n" reason;
      List.iter
        (fun (seq, kind, lbl) ->
          Printf.bprintf buf "# mark %d %s %s\n" seq kind lbl)
        marks;
      Buffer.add_string buf
        (String.sub rendered cut (String.length rendered - cut));
      write_file ~path:(base ^ ".metrics") (Buffer.contents buf);
      if Sink.spans t <> [] then
        Perfetto.write_spans t ~path:(base ^ "-spans.json")
    | _ -> ()

  let dumps = function
    | Disabled -> 0
    | Enabled r -> locked r (fun () -> r.dumped)
end

(* ------------------------------------------------------------------ *)
(* Pool scheduler hooks.                                               *)

module Sched = struct
  (* Worker indices are dense (0 .. jobs-1); the mask keeps a stray
     index safe. *)
  let slots = 256

  let hooks t =
    match t with
    | Disabled -> None
    | Enabled _ ->
      let starts = Array.make slots 0.0 in
      let bump name n = Counter.bump ~volatile:true t name n in
      Some
        {
          Vp_util.Pool.on_submit =
            (fun ~depth ->
              Histogram.observe ~volatile:true t "pool.queue_depth" depth);
          on_start =
            (fun ~domain ~depth:_ ->
              starts.(domain land (slots - 1)) <- Unix.gettimeofday ();
              bump "pool.tasks" 1;
              bump (Printf.sprintf "pool.tasks.d%d" domain) 1);
          on_finish =
            (fun ~domain ->
              let start = starts.(domain land (slots - 1)) in
              let busy = Unix.gettimeofday () -. start in
              bump
                (Printf.sprintf "pool.busy_us.d%d" domain)
                (int_of_float (busy *. 1e6)));
        }
end

(* ------------------------------------------------------------------ *)
(* Per-run timelines.  Single-writer (one per run), so no locking:
   determinism across engine schedules follows from ownership. *)

module Timeline = struct
  type series = { sname : string; mutable data : int array; mutable len : int }

  type t = {
    on : bool;
    interval : int;
    name : string option;
    mutable series : series array;
    mutable scount : int;
    sindex : (string, int) Hashtbl.t;
    (* events in parallel growable arrays: (kind, at, value) *)
    mutable ekind : string array;
    mutable eat : int array;
    mutable evalue : int array;
    mutable ecount : int;
  }

  let make ?name ~on interval =
    {
      on;
      interval;
      name;
      series = [||];
      scount = 0;
      sindex = Hashtbl.create 16;
      ekind = [||];
      eat = [||];
      evalue = [||];
      ecount = 0;
    }

  let disabled = make ~on:false default_interval

  let create ?name = function
    | Enabled { interval = Some n; _ } -> make ?name ~on:true n
    | _ -> disabled

  let enabled t = t.on
  let interval_length t = t.interval
  let name t = t.name

  let intervals t =
    let n = ref 0 in
    for i = 0 to t.scount - 1 do
      n := Stdlib.max !n t.series.(i).len
    done;
    !n

  module Series = struct
    type id = int

    let register t name =
      if not t.on then 0
      else
        match Hashtbl.find_opt t.sindex name with
        | Some id -> id
        | None ->
          if t.scount = Array.length t.series then begin
            let blank = { sname = ""; data = [||]; len = 0 } in
            let grown = Array.make (Stdlib.max 8 (2 * t.scount)) blank in
            Array.blit t.series 0 grown 0 t.scount;
            t.series <- grown
          end;
          let id = t.scount in
          t.series.(id) <- { sname = name; data = Array.make 512 0; len = 0 };
          t.scount <- id + 1;
          Hashtbl.replace t.sindex name id;
          id

    let push t id v =
      if t.on then begin
        let s = t.series.(id) in
        if s.len = Array.length s.data then begin
          let data = Array.make (2 * s.len) 0 in
          Array.blit s.data 0 data 0 s.len;
          s.data <- data
        end;
        s.data.(s.len) <- v;
        s.len <- s.len + 1
      end

    let length t id = if t.on then t.series.(id).len else 0

    let values t id =
      if not t.on then [||]
      else
        let s = t.series.(id) in
        Array.sub s.data 0 s.len

    let names t =
      List.init t.scount (fun i -> t.series.(i).sname) |> List.sort String.compare

    let find t name = Option.map (values t) (Hashtbl.find_opt t.sindex name)
  end

  module Event = struct
    let emit t ~kind ~at ~value =
      if t.on then begin
        if t.ecount = Array.length t.ekind then begin
          let cap = Stdlib.max 64 (2 * t.ecount) in
          let grow a fill =
            let b = Array.make cap fill in
            Array.blit a 0 b 0 t.ecount;
            b
          in
          t.ekind <- grow t.ekind "";
          t.eat <- grow t.eat 0;
          t.evalue <- grow t.evalue 0
        end;
        t.ekind.(t.ecount) <- kind;
        t.eat.(t.ecount) <- at;
        t.evalue.(t.ecount) <- value;
        t.ecount <- t.ecount + 1
      end

    let all t = List.init t.ecount (fun i -> (t.ekind.(i), t.eat.(i), t.evalue.(i)))

    let count t ~kind =
      let n = ref 0 in
      for i = 0 to t.ecount - 1 do
        if String.equal t.ekind.(i) kind then incr n
      done;
      !n
  end

  let summary t =
    List.init t.scount (fun i ->
        let s = t.series.(i) in
        if s.len = 0 then (s.sname, 0, 0, 0, 0)
        else begin
          let mn = ref max_int and mx = ref min_int and total = ref 0 in
          for j = 0 to s.len - 1 do
            let v = s.data.(j) in
            mn := Stdlib.min !mn v;
            mx := Stdlib.max !mx v;
            total := !total + v
          done;
          (s.sname, s.len, !mn, !mx, !total)
        end)
    |> List.sort compare

  let event_counts t =
    let tbl = Hashtbl.create 8 in
    for i = 0 to t.ecount - 1 do
      let k = t.ekind.(i) in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
    done;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

  let schema = "vp-timeline-trace/1"

  let write_trace ~path ts =
    let live = List.filter (fun t -> t.on) ts in
    let interval = match live with t :: _ -> t.interval | [] -> default_interval in
    let total = List.fold_left (fun acc t -> Stdlib.max acc (intervals t)) 0 live in
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Printf.fprintf oc
          "{\"type\": \"meta\", \"schema\": \"%s\", \"interval\": %d, \
           \"intervals\": %d}\n"
          schema interval total;
        (* A named timeline (one session epoch, say) stamps each of its
           records with an extra "run" key; the validator only checks
           required keys, so both shapes share the schema. *)
        let run_field t =
          match t.name with
          | None -> ""
          | Some n -> Printf.sprintf "\"run\": \"%s\", " (json_escape n)
        in
        List.iter
          (fun t ->
            for i = 0 to t.scount - 1 do
              let s = t.series.(i) in
              Printf.fprintf oc "{\"type\": \"series\", %s\"name\": \"%s\", \"values\": ["
                (run_field t) (json_escape s.sname);
              for j = 0 to s.len - 1 do
                if j > 0 then output_string oc ", ";
                output_string oc (string_of_int s.data.(j))
              done;
              output_string oc "]}\n"
            done)
          live;
        List.iter
          (fun t ->
            for i = 0 to t.ecount - 1 do
              Printf.fprintf oc
                "{\"type\": \"event\", %s\"kind\": \"%s\", \"at\": %d, \"value\": %d}\n"
                (run_field t) (json_escape t.ekind.(i)) t.eat.(i) t.evalue.(i)
            done)
          live)

  let required = function
    | "meta" -> Some [ "schema"; "interval"; "intervals" ]
    | "series" -> Some [ "name"; "values" ]
    | "event" -> Some [ "kind"; "at"; "value" ]
    | _ -> None

  let validate_file ~path =
    validate_lines ~path ~empty:"empty trace" (fun ~last:_ i line ->
        let line = String.trim line in
        match check_record ~tag:"type" ~required line with
        | Ok () when i = 1 && string_field line "type" <> Some "meta" ->
          Error "expected the meta record first"
        | Ok () when i = 1 && string_field line "schema" <> Some schema ->
          Error (Printf.sprintf "not a %s meta record" schema)
        | r -> r)
end

(* ------------------------------------------------------------------ *)
(* ASCII rendering.                                                    *)

module Render = struct
  let glyphs = " .:-=+*#"

  (* Column c of [width] covers source intervals [lo c, lo (c+1)). *)
  let columns ~len ~width f =
    let width = Stdlib.min width len in
    String.init width (fun c ->
        let lo = c * len / width in
        let hi = Stdlib.max (lo + 1) ((c + 1) * len / width) in
        f lo (Stdlib.min hi len))

  let sparkline ?(width = 72) values =
    let len = Array.length values in
    if len = 0 then ""
    else begin
      let mx = Array.fold_left Stdlib.max 1 values in
      columns ~len ~width (fun lo hi ->
          let m = ref 0 in
          for i = lo to hi - 1 do
            m := Stdlib.max !m values.(i)
          done;
          (* 0 maps to ' '; any non-zero value renders at least '.'. *)
          if !m = 0 then glyphs.[0]
          else
            let level = 1 + (!m * (String.length glyphs - 2) / mx) in
            glyphs.[Stdlib.min level (String.length glyphs - 1)])
    end

  let lane ?(width = 72) ~total part =
    let len = Stdlib.min (Array.length total) (Array.length part) in
    if len = 0 then ""
    else
      columns ~len ~width (fun lo hi ->
          let p = ref 0 and t = ref 0 in
          for i = lo to hi - 1 do
            p := !p + part.(i);
            t := !t + total.(i)
          done;
          if !t = 0 || !p = 0 then ' '
          else
            let f = float_of_int !p /. float_of_int !t in
            if f >= 0.9 then '#'
            else if f >= 0.5 then 'O'
            else if f >= 0.25 then 'o'
            else if f >= 0.05 then ':'
            else '.')

  let extent_rows ?(width = 72) ~cum timeline =
    let len = Array.length cum in
    List.sort_uniq compare (List.map (fun (_, _, p) -> p) timeline)
    |> List.map (fun id ->
           let extents =
             List.filter_map
               (fun (s, e, p) -> if p = id then Some (s, e) else None)
               timeline
           in
           let row =
             if len = 0 then ""
             else
               columns ~len ~width (fun lo hi ->
                   (* branch span of the column: [lo_b, hi_b) *)
                   let lo_b = if lo = 0 then 0 else cum.(lo - 1) in
                   let hi_b = cum.(hi - 1) in
                   if List.exists (fun (s, e) -> s < hi_b && e > lo_b) extents
                   then '='
                   else ' ')
           in
           (id, row))
end
