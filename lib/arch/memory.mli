(** Architectural (functional) memory: the oracle for load values.

    Word-addressed; words are grouped into {!Config.line_words}-word cache
    lines. Each line carries a monotonically increasing version bumped on
    every store — proxy entries and writebacks are stamped with it so the
    stale-read machinery can compare data ages exactly (see
    {!Persist}). *)

type t

val create : unit -> t
val read : t -> int -> int
val write : t -> int -> int -> unit

val line_of_addr : int -> int
val addr_of_line : int -> int

val line_snapshot : t -> int -> int array
(** Fresh copy of the line's current contents. *)

val line_equal : t -> t -> int -> bool
(** [line_equal a b l]: line [l] holds the same words in [a] and [b]
    (absent lines read as zeros) — [line_snapshot a l = line_snapshot b l]
    without copying either line. *)

val line_version : t -> int -> int
val write_line : t -> int -> int array -> unit
(** Overwrite a whole line (used to rebuild memory from NVM at
    recovery). *)

val write_line_masked : t -> int -> int array -> int -> unit
(** Overwrite only the words whose bit is set in the mask (bit [o] =
    word offset [o]); used for word-granular redo/undo application. *)

val copy : t -> t
(** Copy-on-write copy: shares every page with [t] and costs only the
    two page tables. The first write to a shared page, through either
    memory, clones that one page for the writer; the other memory never
    sees it. Do not write a memory while another domain copies it. *)

val present_lines : t -> int
(** Number of present (ever-written) lines. *)

val iter_lines : t -> (int -> int array -> unit) -> unit
val equal : ?from:int -> t -> t -> bool
(** Line-wise equality, treating absent lines as zero. [from] restricts
    the comparison to word addresses at or above the given bound —
    used to ignore dead stack slots below the data segment, whose
    leftover return-address garbage legitimately differs between a
    source program and its compiled form. *)

val diff : ?from:int -> t -> t -> (int * int * int) list
(** [(word address, value in first, value in second)] for mismatching
    words, sorted; for test diagnostics. *)
