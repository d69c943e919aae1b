(** Functional (architectural) emulation of a binary image.

    Three backends retire the same instruction stream: the boxed
    reference interpreter over [Instr.t] (the executable
    specification), the decoded flat-array interpreter ({!Decode}) and
    the block-compiled threaded code ({!Compile}).  Outcomes, checksums
    and observation streams are bit-identical across them, at any fuel
    boundary.  Every run exposes two observation channels:

    - [on_branch] fires at every conditional-branch retirement with
      the branch's static address and its outcome — exactly the event
      stream the Hot Spot Detector consumes;
    - [on_retire] fires at every retirement with plain int arguments:
      [taken] (true for jumps, calls and returns), [next_pc]
      ({!State.halt_address} when the machine stops) and [mem_addr],
      the effective address of a load/store and [-1] for every other
      instruction (no address in this machine is negative).

    Both are optional and allocation-free on the decoded and compiled
    backends.

    {b Faults.}  Every backend raises {!Vp_util.Error.Error} with
    [stage = "emulator"] when the machine leaves the image — a jump,
    call, return or taken branch to a pc outside it, or running off
    its end — with [pc] set to the offending pc; and when it executes
    an unresolved label (a taken branch, or a [La]/[Jmp]/[Call]), with
    [label] set.  Out-of-range memory accesses raise {!State.Fault}. *)

type outcome = {
  instructions : int;  (** dynamic instructions retired *)
  package_instructions : int;  (** retired from appended package code *)
  cond_branches : int;
  halted : bool;  (** false when fuel ran out *)
  checksum : int;
  result : int;  (** value of [Reg.ret_value] when the machine stopped *)
  final_pc : int;
}

type backend = Reference | Decoded | Compiled

val default_backend : backend
(** [Decoded]: the backend every run uses unless told otherwise. *)

val backend_name : backend -> string
(** ["reference"], ["decoded"] or ["compiled"]. *)

val backend_of_string : string -> backend option
(** Inverse of {!backend_name}; [None] on an unknown name. *)

val all_backends : backend list

val run_slice :
  ?backend:backend ->
  state:State.t ->
  fuel:int ->
  ?on_branch:(pc:int -> taken:bool -> unit) ->
  ?on_retire:(pc:int -> taken:bool -> next_pc:int -> mem_addr:int -> unit) ->
  Vp_prog.Image.t ->
  outcome
(** One bounded slice of execution over an external {!State.t} on the
    chosen backend (default {!default_backend}, through the
    decode/compile memos): resume from the state's current pc, retire
    at most [fuel] instructions, and stop early at [Halt] or a return
    to {!State.halt_address}.  The final pc stays in the state so the
    next slice continues exactly where this one stopped.  The
    outcome's counts cover only this slice; [checksum]/[result] read
    the (cumulative) state.  The caller owns the state — [run_slice]
    neither creates nor releases it, so a long-running session can
    thread one machine state through many slices, switching images
    between slices (hot patching) as long as every image shares the
    address space of the one the state was created for. *)

val run_backend :
  ?backend:backend ->
  ?fuel:int ->
  ?mem_words:int ->
  ?on_branch:(pc:int -> taken:bool -> unit) ->
  ?on_retire:(pc:int -> taken:bool -> next_pc:int -> mem_addr:int -> unit) ->
  Vp_prog.Image.t ->
  outcome
(** A whole run: a fresh {!State} over the image (default [mem_words]
    2{^20}), one {!run_slice} from the entry with [fuel] (default 200M),
    then the state's memory goes back to the arena.  With
    [~backend:Reference] this is the differential oracle. *)

val aggregate_branch_profile :
  ?fuel:int -> ?mem_words:int -> Vp_prog.Image.t -> Branch_profile.t
(** Whole-run (executed, taken) counts per static conditional branch —
    the traditional aggregate profile the paper contrasts against.
    Accumulated in pc-indexed arrays, not a per-branch hashtable. *)
