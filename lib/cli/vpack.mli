(** The [vpack] command-line tool, as one declarative {!Spec.tool}
    table.  The binary under [bin/] is a one-line shim around
    {!main}; the table lives in a library so the test suite can parse
    arguments and render help without spawning a process. *)

val tool : Spec.tool
(** The full command table: list, run, phases, extract, aggregate,
    report, stats, timeline, serve, trace-check, verify, chaos, fuzz,
    diag, asm, disasm, machine. *)

val check_trace : string -> (string, string) result
(** The [trace-check] verdict on a file: [Ok] is the "valid" report
    line, [Error] the failure line — [FILE: cannot read: REASON] for a
    missing or unreadable path, [FILE: unknown schema] when the first
    line names no schema vpack writes, otherwise the schema's own
    validation error.  The command exits 1 on [Error]. *)

val main : unit -> unit
(** Parse [Sys.argv], dispatch, and exit: 0 success, 2 command-line
    error, 3 pipeline error, 4 verifier rejection (and [serve] epochs
    falling back or failing the oracle), 5 chaos-matrix failure, 6
    fuzz-campaign failure (a generated case crashed or failed an
    oracle). *)
