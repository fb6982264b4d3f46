(** The coupled functional + timing simulator.

    Threads (one per core) execute the IR against the architectural
    {!Capri_arch.Memory} oracle while the {!Capri_arch.Hierarchy} accounts
    cache behaviour and the {!Capri_arch.Persist} engine runs the two-phase
    protocol. The scheduler always steps the thread with the smallest
    local cycle count, giving a deterministic sequentially-consistent
    interleaving that tracks simulated time.

    A crash can be injected after a given number of global dynamic
    instructions; the run then returns the battery-drained durable image
    for {!Recovery} to rebuild from. *)

open Capri_ir
module Arch = Capri_arch

type thread_spec = { func : string; args : (Reg.t * int) list }

val main_thread : Program.t -> thread_spec

(** Execution engine selection. [Compiled] (the default) pre-lowers every
    basic block to a flat closure array at session setup — operands,
    register indices and branch targets resolved once — and runs a burst
    scheduler whose fused fast path executes whole boundary-free blocks
    without per-instruction dispatch checks. [Interp] is the original
    AST-walking reference engine; the two are held to byte-identical
    results (final memory, journals, acks, metrics) by the differential
    tests, so [Interp] exists for cross-checking and bisection, not
    speed. *)
type engine = Interp | Compiled

val default_engine : engine ref
(** Engine used when {!start}/{!resume} get no [?engine] (initially
    [Compiled]). Callers that cannot pass [?engine] — the
    interp-vs-compiled service differential test flips it around
    the service layer's [Server.run] — set it here. *)

val engine_name : engine -> string

exception Livelock of { core : int; region : string; steps : int }
(** Raised by {!run} when one thread exceeds the per-thread step budget:
    the offending core, the dynamic region it was spinning in ("entry"
    before the first boundary) and the step count reached. *)

type region_stats = {
  regions_executed : int;  (** dynamic boundary count *)
  total_instrs : int;  (** dynamic instructions inside regions *)
  total_stores : int;  (** dynamic stores incl. checkpoints inside regions *)
  max_stores_in_region : int;
}

(** Per-static-region dynamic profile, keyed by boundary id. Drives
    profile-guided region formation (see {!Capri.compile_pgo}). *)
type boundary_profile = {
  mutable instances : int;
  mutable p_instrs : int;
  mutable p_stores : int;
  mutable p_max_stores : int;
}

type result = {
  cycles : int;  (** completion time: max over cores *)
  instrs : int;  (** dynamic instructions, boundaries/ckpts included *)
  payload_instrs : int;  (** dynamic instructions excl. boundary/ckpt *)
  stores : int;
  ckpt_stores : int;
  boundaries : int;
  region_stats : region_stats;
  profile : (int, boundary_profile) Hashtbl.t;
  outputs : int list array;  (** per core, in emission order *)
  acks : (int * int) list array;
      (** per core: [(output, cycle)] — when each output became
          client-visible. Under [journal_io] that is the back-end proxy
          commit of the carrying region (the serving layer's ack point);
          otherwise the [Out]'s execution cycle. *)
  memory : Arch.Memory.t;  (** final architectural memory *)
  final_regs : int array array;  (** per core *)
  persist_stats : Arch.Persist.stats;
  hier_stats : Arch.Hierarchy.stats;
  stale_reads : int;  (** NVM-level loads observing non-latest data *)
}

type crash = {
  image : Arch.Persist.image;
  at_instr : int;
  at_cycle : int;
  outputs_before : int list array;
      (** I/O emitted before the failure — it already left the machine
          and must be prepended to any resumed run's streams. *)
}

type outcome = Finished of result | Crashed of crash

type session
(** A run in progress or a resumable context. *)

val start :
  ?config:Arch.Config.t -> ?mode:Arch.Persist.mode -> ?journal_io:bool ->
  ?recovery_jobs:int -> ?obs:Capri_obs.Obs.t ->
  ?check_threshold:int -> ?engine:engine -> program:Program.t ->
  threads:thread_spec list -> unit -> session
(** Fresh machine: zeroed memory (plus the program's data image), cold
    caches, empty proxies. [check_threshold] makes the executor assert
    that no dynamic region exceeds the given store count (the compiler
    invariant the back-end proxy relies on). [journal_io] routes [Out]
    instructions through the durable output journal (Section 3.3's
    suggested I/O treatment): outputs become visible at region commit,
    giving exactly-once semantics across crashes.

    [obs] (default {!Capri_obs.Obs.null}) threads the observability
    bundle through the whole machine: Persist and Hierarchy counters
    register in its metrics registry, every dynamic region opens a span
    on its core's trace track (with nested boundary-stall spans in the
    synchronous modes), fences/atomics/halts/crashes emit instant
    events, and the region profiler logs one row per boundary crossing
    or halt, joined with Persist's commit reports by (core, seq). *)

val resume :
  ?config:Arch.Config.t -> ?mode:Arch.Persist.mode -> ?journal_io:bool ->
  ?recovery_jobs:int -> ?obs:Capri_obs.Obs.t ->
  ?check_threshold:int -> ?engine:engine ->
  compiled:Capri_compiler.Compiled.t -> image:Arch.Persist.image ->
  threads:thread_spec list -> unit -> session
(** Machine rebuilt from a recovered durable image: memory = NVM contents,
    registers reloaded from the slot arrays, threads positioned at their
    resume boundaries ({!Recovery} must have applied recovery blocks to the
    image's slots first). The journal (and its compaction cursor,
    [image.acked_base]) is carried into the fresh engine when
    [journal_io] is set. [recovery_jobs] (default 1) is the domain-pool
    width {!Arch.Persist.crash_recover} plans with on a later crash of
    this session. *)

val run : ?crash_at_instr:int -> ?max_steps:int -> session -> outcome
(** Executes until every thread halts, the optional crash point fires, or
    some thread exceeds [max_steps] step attempts (default 100M,
    counted per thread — conflict-fence retries included — identically
    in both engines), which raises {!Livelock}. *)

val positions : session -> (string * string * int * int) array
(** Per-core (function, block label, instruction index, cycle) — where
    each thread currently stands; for debugging and liveness tests. *)
