(** A fixed-size domain pool (hand-rolled on [Domain]/[Mutex]/
    [Condition]) with a deterministic gather.

    With [jobs <= 1] no domains are spawned and [submit] runs the task
    immediately on the calling domain — the reference sequential
    schedule.  With [jobs > 1], [jobs] worker domains drain a FIFO
    queue; tasks may submit continuation tasks, forming a DAG.

    Determinism contract: tasks must be pure up to their own isolated
    state and write results to disjoint slots, so gathered results are
    independent of the schedule.  {!run} and {!map} return results in
    submission order under any [jobs]. *)

type t

type hooks = {
  on_submit : depth:int -> unit;
      (** After a task is enqueued; [depth] is the queue length at
          that instant ([0] in sequential mode). *)
  on_start : domain:int -> depth:int -> unit;
      (** Before a task runs; [domain] is the dense worker index
          [0 .. jobs-1] ([0] in sequential mode). *)
  on_finish : domain:int -> unit;  (** After the task returned. *)
}
(** Scheduler observation points, called on the submitting/worker
    domain {e outside} the pool mutex.  Hooks must not raise and
    must not call back into the pool.  Readings are inherently
    schedule-dependent — consumers (e.g. [Vp_obs.Sched]) must
    tag them volatile.  [None] hooks cost nothing. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val create : ?jobs:int -> ?hooks:hooks -> unit -> t
(** Spawn a pool of [jobs] workers (default {!default_jobs}); values
    [<= 1] select the in-caller sequential mode. *)

val jobs : t -> int

val submit : t -> (unit -> unit) -> unit
(** Enqueue a task.  Tasks must capture their own errors — an escaping
    exception is swallowed, never propagated.  May be called from
    within a running task.  Raises [Invalid_argument] after
    {!shutdown}. *)

val wait : t -> unit
(** Block until every submitted task (including tasks submitted by
    tasks) has finished. *)

val shutdown : t -> unit
(** Stop accepting work, drain the queue, and join the workers.
    Idempotent; a no-op in sequential mode. *)

val run : jobs:int -> ?hooks:hooks -> (unit -> 'a) list -> 'a list
(** Run independent thunks on a fresh pool; results in input order.
    If any task raised, re-raises the exception of the earliest failed
    task (by input position) after all tasks finish. *)

val map : jobs:int -> ?hooks:hooks -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f l] is [run ~jobs (List.map (fun x () -> f x) l)]. *)
