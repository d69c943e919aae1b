(** Functional (architectural) emulation of a binary image.

    The emulator retires one instruction at a time over the predecoded
    form ({!Decode}) and exposes three observation channels:

    - [on_branch] fires at every conditional-branch retirement with
      the branch's static address and its outcome — exactly the event
      stream the Hot Spot Detector consumes;
    - [on_retire] fires at every retirement with plain int arguments —
      the allocation-free channel the trace-driven timing model uses;
    - [on_event] fires at every retirement with a boxed {!event}
      record (legacy tracing interface; allocates one record per
      retired instruction).

    All are optional; with only [on_branch] and [on_retire] the retire
    loop performs no per-instruction heap allocation. *)

type event = {
  pc : int;
  instr : Vp_isa.Instr.t;
  taken : bool;  (** meaningful for conditional branches; true for jumps *)
  next_pc : int;  (** {!State.halt_address} when the machine stops *)
  mem_addr : int option;  (** effective address of a load/store *)
}

type outcome = {
  instructions : int;  (** dynamic instructions retired *)
  package_instructions : int;  (** retired from appended package code *)
  cond_branches : int;
  halted : bool;  (** false when fuel ran out *)
  checksum : int;
  result : int;  (** value of [Reg.ret_value] when the machine stopped *)
  final_pc : int;
}

val run :
  ?fuel:int ->
  ?mem_words:int ->
  ?on_branch:(pc:int -> taken:bool -> unit) ->
  ?on_event:(event -> unit) ->
  ?on_retire:(pc:int -> taken:bool -> next_pc:int -> mem_addr:int -> unit) ->
  Vp_prog.Image.t ->
  outcome
(** Execute from the image entry until [Halt], a return to
    {!State.halt_address}, or fuel exhaustion (default fuel 200M).
    Decodes the image first; callers that run the same image many
    times should decode once and use {!run_decoded}.  [on_retire] is
    forwarded to {!run_decoded} — the allocation-free per-retirement
    sink the recorder's timeline samplers piggyback on.  Raises
    {!State.Fault} on out-of-range memory access and
    [Invalid_argument] on a jump outside the image or an executed
    unresolved label. *)

val run_decoded :
  ?fuel:int ->
  ?mem_words:int ->
  ?on_branch:(pc:int -> taken:bool -> unit) ->
  ?on_event:(event -> unit) ->
  ?on_retire:(pc:int -> taken:bool -> next_pc:int -> mem_addr:int -> unit) ->
  Decode.t ->
  outcome
(** {!run} over a predecoded image.  [on_retire] is the
    allocation-free equivalent of [on_event]: [mem_addr] is the
    effective address of a load/store and [-1] for every other
    instruction (no address in this machine is negative). *)

val run_compiled :
  ?fuel:int ->
  ?mem_words:int ->
  ?on_branch:(pc:int -> taken:bool -> unit) ->
  ?on_event:(event -> unit) ->
  ?on_retire:(pc:int -> taken:bool -> next_pc:int -> mem_addr:int -> unit) ->
  Compile.t ->
  outcome
(** {!run_decoded} over block-compiled closures ({!Compile}): whole
    basic blocks execute straight-line with per-block fuel checks and
    direct block-to-block dispatch.  Outcomes, checksums and
    observation streams are bit-identical to {!run_decoded}, which
    stays the differential oracle; [on_event]/[on_retire] are fused
    into one compiled retirement sink, and a run with no observers at
    all executes the observer-free compiled variant. *)

type backend = Reference | Decoded | Compiled
(** Which execution core runs the workload: the boxed reference
    interpreter (the executable specification), the decoded flat-array
    interpreter (the default), or the block-compiled threaded code. *)

val backend_name : backend -> string
(** ["reference"], ["decoded"] or ["compiled"]. *)

val backend_of_string : string -> backend option
(** Inverse of {!backend_name}; [None] on an unknown name. *)

val all_backends : backend list

val run_backend :
  ?backend:backend ->
  ?fuel:int ->
  ?mem_words:int ->
  ?on_branch:(pc:int -> taken:bool -> unit) ->
  ?on_event:(event -> unit) ->
  ?on_retire:(pc:int -> taken:bool -> next_pc:int -> mem_addr:int -> unit) ->
  Vp_prog.Image.t ->
  outcome
(** {!run} through the chosen backend (default [Decoded]), going
    through the decode/compile memos.  The reference backend has no
    native [on_retire]; it is adapted onto the event stream, so every
    backend serves the same observation channels. *)

val run_slice :
  ?backend:backend ->
  state:State.t ->
  fuel:int ->
  ?on_branch:(pc:int -> taken:bool -> unit) ->
  ?on_event:(event -> unit) ->
  ?on_retire:(pc:int -> taken:bool -> next_pc:int -> mem_addr:int -> unit) ->
  Vp_prog.Image.t ->
  outcome
(** One bounded slice of execution over an external {!State.t}: resume
    from the state's current pc, retire at most [fuel] instructions,
    and leave the final pc in the state so the next slice continues
    exactly where this one stopped.  The outcome's counts cover only
    this slice; [checksum]/[result] read the (cumulative) state.  The
    caller owns the state — [run_slice] neither creates nor releases
    it, so a long-running session can thread one machine state through
    many slices, switching images between slices (hot patching) as
    long as every image shares the address space of the one the state
    was created for.  Bit-identical across backends at arbitrary fuel
    boundaries, like {!run_backend}. *)

val run_reference :
  ?fuel:int ->
  ?mem_words:int ->
  ?on_branch:(pc:int -> taken:bool -> unit) ->
  ?on_event:(event -> unit) ->
  Vp_prog.Image.t ->
  outcome
(** The original boxed interpreter over [Instr.t], kept as the
    executable specification of {!run}: it allocates per instruction
    and is only used by differential tests, which require outcomes,
    checksums and observation streams bit-identical to {!run}'s. *)

val aggregate_branch_profile :
  ?fuel:int -> ?mem_words:int -> Vp_prog.Image.t -> Branch_profile.t
(** Whole-run (executed, taken) counts per static conditional branch —
    the traditional aggregate profile the paper contrasts against.
    Accumulated in pc-indexed arrays, not a per-branch hashtable. *)
