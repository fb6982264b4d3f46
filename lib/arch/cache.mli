(** Set-associative write-back cache, tags only.

    Load values come from the functional {!Memory} oracle; the hierarchy
    maintains a single-dirty-copy invariant, under which a dirty line's
    contents always equal the architectural memory's current contents, so
    caches need no data arrays. What matters architecturally is {e which}
    lines are resident/dirty and {e when} dirty lines are written back. *)

type t

val create : sets:int -> ways:int -> t
(** [sets] must be a power of two. *)

val mem : t -> int -> bool
val is_dirty : t -> int -> bool

val touch : t -> int -> dirty:bool -> unit
(** Mark a resident line most-recently-used; optionally set its dirty bit.
    The line must be resident. *)

val touch_if_present : t -> int -> dirty:bool -> bool
(** [mem] and [touch] fused into a single set probe: returns [true] and
    touches if the line is resident, returns [false] (cache untouched)
    otherwise. The hierarchy's per-access fast path. *)

val insert : t -> int -> dirty:bool -> unit
(** Allocate a line (must not be resident). The replaced way is the first
    invalid one, else the first least-recently-used one; {!victim} and
    {!victim_dirty} report what it held. Allocation-free: the victim is
    read from fields of [t], not returned in a fresh value. *)

val victim : t -> int
(** The line the last {!insert} evicted, [-1] when it filled an invalid
    way. Overwritten by the next [insert]. *)

val victim_dirty : t -> bool
(** Whether {!victim} was dirty ([false] when there was no victim). *)

val invalidate : t -> int -> bool
(** Remove the line if resident; returns whether it was dirty. *)

val dirty_lines : t -> int list
val resident : t -> int
(** Number of resident lines. *)

type stats = { insertions : int; evictions : int; dirty_evictions : int }

val stats : t -> stats
(** Allocation/eviction counts since creation ([clear] does not reset
    them). The hierarchy publishes these per level into the metrics
    registry. *)

val clear : t -> unit
