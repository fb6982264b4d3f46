(** Region profiler: the region log. One row per boundary crossing or
    halt, joined from the executor side (crossing, stores, stalls, close
    cycle) and the Persist/proxy side (commit cycle, NVM lines), keyed by
    (core, seq) where [seq] mirrors Persist's per-core [open_seq]. *)

type record = {
  core : int;
  seq : int;
  boundary : int;  (** the boundary id crossed; [-1] for a halt *)
  instr : int;
      (** the session's global dynamic instruction index of the crossing
          (the boundary or halt instruction itself) *)
  closes : bool;
      (** [false] on a thread's first crossing: no region was open, and
          the close-only folds ({!records}, {!aggregate}, {!publish},
          {!render_top}) skip the row *)
  region : string;  (** static identity of the region closed, e.g. ["b3"] *)
  instrs : int;  (** dynamic instructions of the region closed *)
  stores : int;
  ckpt_stores : int;
  mutable stall_cycles : int;
  close_cycle : int;
  mutable commit_cycle : int;  (** [-1] until the proxy reports *)
  mutable nvm_lines : int;
}

type t

val create : unit -> t
val null : t
val enabled : t -> bool

val on_region_close :
  t ->
  core:int ->
  seq:int ->
  boundary:int ->
  instr:int ->
  closes:bool ->
  region:string ->
  instrs:int ->
  stores:int ->
  ckpt_stores:int ->
  stall_cycles:int ->
  cycle:int ->
  unit
(** Executor side: [core] crossed [boundary] (or halted) at [cycle].
    Called once per crossing per core, in seq order, before the crossing
    reaches Persist. A resumed session counts seq from 0 again, so its
    rows replace the crashed session's rows with the same key. *)

val add_stall : t -> core:int -> seq:int -> int -> unit
(** Executor side: the crossing's own boundary stall, known once Persist
    has handled it; added to the row's [stall_cycles]. *)

val on_commit : t -> core:int -> seq:int -> cycle:int -> nvm_lines:int -> unit
(** Persist side: the proxy committed region [seq] of [core] at [cycle],
    writing [nvm_lines] NVM lines. A report with no row is dropped. *)

val records : t -> record list
(** The rows that close a region, sorted by (core, seq). *)

val crossings : t -> record list
(** Every row, in recording order (ascending [instr]; every crossing is
    a distinct counted instruction of one session). *)

val boundary_instrs : t -> int list
(** Ascending instruction indices of every boundary crossing (halts
    excluded), all cores. *)

val render_timeline : ?max_rows:int -> t -> string
(** A timeline table of {!crossings}: cycle, core, and the boundary id
    with the store count of the region it ended (or [halt]). When there
    are more than [max_rows] (default 64) rows, the middle is elided and
    a final ["… (+K more rows)"] line reports how many rows the table
    dropped. *)

(** Aggregate over all dynamic executions of one static region. *)
type agg = {
  name : string;
  executions : int;
  total_stores : int;
  total_ckpt_stores : int;
  total_stall_cycles : int;
  commits : int;
  total_commit_latency : int;
  total_nvm_lines : int;
}

val aggregate : t -> agg list
(** Sorted by region name. *)

val hottest : t -> n:int -> agg list
(** Top [n] by stall cycles, then NVM lines, then stores; deterministic. *)

val render_top : t -> n:int -> string
(** Fixed-width "hottest regions" table with a trailing
    [… (+K more regions)] line when truncated. *)

val publish : ?labels:Metrics.labels -> t -> Metrics.t -> unit
(** Fold the records into registry histograms (region_stores,
    region_stall_cycles, region_commit_latency, region_nvm_lines, ...)
    and counters (regions_closed, regions_committed), all carrying
    [labels] — the profile driver passes the persistence mode so
    per-mode registries merge into one mode-resolved document. *)
