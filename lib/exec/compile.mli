(** Block-threaded closure compilation of a decoded image.

    {!of_image} partitions the image into basic blocks and compiles
    each block into one OCaml closure that executes the whole block
    straight-line over the {!State} arena: operands, immediates, ALU
    ops and branch conditions are baked into the closure environments
    at compile time, and block terminators dispatch directly into the
    successor block's closure through a block-indexed array (threaded
    code — every transfer is a tail call, so the OCaml stack stays
    flat).  Fuel is checked once per block; a block that no longer
    fits in the remaining fuel falls back to a boundary interpreter
    with per-instruction accounting, so outcomes are exact.

    Two specialized variants of every block are compiled: a fast one
    with no observation code at all, and an observed one feeding the
    run's [on_branch]/[on_retire] closures.  {!exec} picks the variant
    from the observers it is given; outcomes, checksums and observation
    streams are bit-identical to the emulator's decoded and reference
    backends, which stay the differential oracles. *)

type t

type result = {
  instructions : int;
  package_instructions : int;
  cond_branches : int;
  halted : bool;
}
(** Raw run counters; the caller owns the {!State} and derives
    checksum/result/final pc from it. *)

val compile : Decode.t -> t
(** Compile every basic block of the decoded image.  O(size); all
    specialization happens here so execution never matches on tags. *)

val of_image : Vp_prog.Image.t -> t
(** {!compile} through a one-slot domain-local memo keyed by physical
    image identity, like [Decode.of_image]. *)

val decode : t -> Decode.t

val block_count : t -> int

val block_of_pc : t -> int -> int
(** Block id when [pc] is a block leader, -1 mid-block. *)

val block_bounds : t -> int -> int * int
(** [(start pc, length)] of one block. *)

val exec :
  t ->
  State.t ->
  fuel:int ->
  ?on_branch:(pc:int -> taken:bool -> unit) ->
  ?on_retire:(pc:int -> taken:bool -> next_pc:int -> mem_addr:int -> unit) ->
  unit ->
  result
(** Run compiled code from the state's current pc until halt, a return
    to {!State.halt_address}, or fuel exhaustion, leaving the final pc
    in the state exactly as the decoded backend would.  [on_retire] is
    the emulator's retirement channel ([mem_addr] is -1 for non-memory
    instructions); observer-present runs use the observed compiled
    variant, observer-free runs the fast one. *)
