type way = { mutable line : int; mutable dirty : bool; mutable lru : int }
(* line = -1 for invalid *)

type t = {
  sets : int;
  ways : way array array;
  mutable tick : int;  (* LRU clock *)
  mutable insertions : int;
  mutable evictions : int;
  mutable dirty_evictions : int;
  mutable victim_line : int;  (* last [insert]'s victim; -1 = none *)
  mutable victim_dirty : bool;
}

type stats = { insertions : int; evictions : int; dirty_evictions : int }

let create ~sets ~ways =
  if sets <= 0 || sets land (sets - 1) <> 0 then
    invalid_arg "Cache.create: sets must be a positive power of two";
  {
    sets;
    ways =
      Array.init sets (fun _ ->
          Array.init ways (fun _ -> { line = -1; dirty = false; lru = 0 }));
    tick = 0;
    insertions = 0;
    evictions = 0;
    dirty_evictions = 0;
    victim_line = -1;
    victim_dirty = false;
  }

let[@inline] set_of t line = Array.unsafe_get t.ways (line land (t.sets - 1))

(* Associativity is small (<= 16 ways), so a linear probe of the set beats
   hashing the line number on every simulated access. Top-level recursion
   (a local [let rec] capturing [line] would be a closure allocated per
   probe); returns the way index, -1 when absent. *)
let rec way_index set line i =
  if i >= Array.length set then -1
  else if (Array.unsafe_get set i).line = line then i
  else way_index set line (i + 1)

let mem t line = way_index (set_of t line) line 0 >= 0

let is_dirty t line =
  let set = set_of t line in
  let i = way_index set line 0 in
  i >= 0 && (Array.unsafe_get set i).dirty

(* Fused residency test + touch: one set probe — the per-access fast path
   of {!Hierarchy.access} ([mem] followed by [touch] probes the set
   twice). Returns whether the line was resident; a miss leaves the cache
   untouched. *)
let touch_if_present t line ~dirty =
  let set = set_of t line in
  let i = way_index set line 0 in
  i >= 0
  && begin
    let w = Array.unsafe_get set i in
    t.tick <- t.tick + 1;
    w.lru <- t.tick;
    if dirty then w.dirty <- true;
    true
  end

let touch t line ~dirty =
  if not (touch_if_present t line ~dirty) then
    invalid_arg "Cache.touch: line not resident"

(* The replacement choice: the first invalid way, else the first way with
   the least LRU stamp. *)
let rec victim_index set i best =
  if i >= Array.length set then best
  else
    let w = Array.unsafe_get set i in
    if w.line = -1 then i
    else
      victim_index set (i + 1)
        (if w.lru < (Array.unsafe_get set best).lru then i else best)

let insert t line ~dirty =
  assert (not (mem t line));
  let set = set_of t line in
  t.tick <- t.tick + 1;
  let w = Array.unsafe_get set (victim_index set 0 0) in
  t.insertions <- t.insertions + 1;
  t.victim_line <- w.line;
  t.victim_dirty <- w.dirty;
  if w.line <> -1 then begin
    t.evictions <- t.evictions + 1;
    if w.dirty then t.dirty_evictions <- t.dirty_evictions + 1
  end;
  w.line <- line;
  w.dirty <- dirty;
  w.lru <- t.tick

let victim t = t.victim_line
let victim_dirty t = t.victim_dirty

let invalidate t line =
  let set = set_of t line in
  let i = way_index set line 0 in
  i >= 0
  && begin
    let w = Array.unsafe_get set i in
    let dirty = w.dirty in
    w.line <- -1;
    w.dirty <- false;
    dirty
  end

let dirty_lines t =
  let acc = ref [] in
  Array.iter
    (fun set ->
      Array.iter
        (fun (w : way) -> if w.line <> -1 && w.dirty then acc := w.line :: !acc)
        set)
    t.ways;
  !acc

let resident t =
  let n = ref 0 in
  Array.iter
    (fun set ->
      Array.iter (fun (w : way) -> if w.line <> -1 then incr n) set)
    t.ways;
  !n

let stats (t : t) =
  {
    insertions = t.insertions;
    evictions = t.evictions;
    dirty_evictions = t.dirty_evictions;
  }

let clear t =
  Array.iter
    (fun set ->
      Array.iter
        (fun (w : way) ->
          w.line <- -1;
          w.dirty <- false)
        set)
    t.ways
