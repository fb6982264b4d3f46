(* Chunked paged-array store.

   The old implementation kept one Hashtbl entry per touched cache line,
   which put a hash + probe on every simulated load and store — the
   simulator's hottest path. Lines are now grouped into fixed-size pages
   (a flat data array plus a per-line version array), reached by pure
   array indexing: page index = line asr page_bits, two growable page
   tables (one for negative line indices, one for non-negative — stacks
   grow downward from the data segment, so negative addresses are real).

   Sparse semantics are preserved exactly: a line is "present" iff it has
   been written, and every write path bumps the line version, so
   present <=> version > 0. [iter_lines] and [diff] enumerate only
   present lines, identical to the Hashtbl behaviour.

   Pages are copy-on-write. [copy] copies only the two page tables and
   marks every page [shared]; the first write to a shared page, through
   any holder, installs a private clone of that one page in the writer's
   table and leaves the shared page untouched. A shared page is never
   written again, so the flag never clears. Reads never clone. The flag
   is a plain field: copying a memory while another domain writes it is
   a race (the writer may have tested the flag just before the copy set
   it), so a memory must not be written while another domain copies it.
   Holders that only read may live on any domain. *)

let line_words = Config.line_words

let line_bits =
  (* line_words is a power of two; precompute its log for shift/mask
     addressing on the hot path. *)
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
  log2 line_words

let () = assert (1 lsl line_bits = line_words)
let line_mask = line_words - 1

(* 256 lines (16 KiB of simulated data) per page. *)
let page_bits = 8
let page_lines = 1 lsl page_bits
let page_off_mask = page_lines - 1

type page = {
  data : int array;  (* page_lines * line_words words, flat *)
  version : int array;  (* per line; 0 = never written (absent) *)
  mutable shared : bool;  (* reachable from more than one memory *)
}

type t = {
  mutable pos : page option array;  (* page index >= 0 *)
  mutable neg : page option array;  (* page index < 0, stored at -1 - idx *)
}

let create () = { pos = Array.make 8 None; neg = Array.make 1 None }

let line_of_addr addr = addr asr line_bits
let addr_of_line line = line * line_words

let fresh_page () =
  { data = Array.make (page_lines * line_words) 0;
    version = Array.make page_lines 0;
    shared = false }

let clone_page p =
  { data = Array.copy p.data; version = Array.copy p.version; shared = false }

(* Page lookup that never allocates: None when the page is absent. *)
let find_page t pidx =
  if pidx >= 0 then
    if pidx < Array.length t.pos then Array.unsafe_get t.pos pidx else None
  else
    let i = -1 - pidx in
    if i < Array.length t.neg then Array.unsafe_get t.neg i else None

let grow table i =
  let n = Array.length table in
  let bigger = Array.make (max (i + 1) (2 * n)) None in
  Array.blit table 0 bigger 0 n;
  bigger

(* The page a write lands in: created when absent, cloned when shared
   (see the ownership rule above). *)
let writable table i =
  match Array.unsafe_get table i with
  | Some p when not p.shared -> p
  | Some p ->
    let p = clone_page p in
    Array.unsafe_set table i (Some p);
    p
  | None ->
    let p = fresh_page () in
    Array.unsafe_set table i (Some p);
    p

let get_page t pidx =
  if pidx >= 0 then begin
    if pidx >= Array.length t.pos then t.pos <- grow t.pos pidx;
    writable t.pos pidx
  end
  else begin
    let i = -1 - pidx in
    if i >= Array.length t.neg then t.neg <- grow t.neg i;
    writable t.neg i
  end

let read t addr =
  let line = addr asr line_bits in
  match find_page t (line asr page_bits) with
  | None -> 0
  | Some p ->
    Array.unsafe_get p.data
      (((line land page_off_mask) lsl line_bits) lor (addr land line_mask))

let write t addr v =
  let line = addr asr line_bits in
  let p = get_page t (line asr page_bits) in
  let lo = line land page_off_mask in
  Array.unsafe_set p.data ((lo lsl line_bits) lor (addr land line_mask)) v;
  Array.unsafe_set p.version lo (Array.unsafe_get p.version lo + 1)

let line_snapshot t l =
  match find_page t (l asr page_bits) with
  | None -> Array.make line_words 0
  | Some p ->
    Array.sub p.data ((l land page_off_mask) lsl line_bits) line_words

let line_version t l =
  match find_page t (l asr page_bits) with
  | None -> 0
  | Some p -> p.version.(l land page_off_mask)

(* Stands in for an absent page: every word reads as zero. Never
   written. *)
let zero_page = Array.make (page_lines * line_words) 0

let[@inline] page_data t pidx =
  match find_page t pidx with None -> zero_page | Some p -> p.data

let rec words_equal da db base o =
  o >= line_words
  || Array.unsafe_get da (base + o) = Array.unsafe_get db (base + o)
     && words_equal da db base (o + 1)

let line_equal a b l =
  let pidx = l asr page_bits in
  words_equal (page_data a pidx) (page_data b pidx)
    ((l land page_off_mask) lsl line_bits)
    0

let write_line t l data =
  let p = get_page t (l asr page_bits) in
  let lo = l land page_off_mask in
  Array.blit data 0 p.data (lo lsl line_bits) line_words;
  p.version.(lo) <- p.version.(lo) + 1

let write_line_masked t l data mask =
  let p = get_page t (l asr page_bits) in
  let lo = l land page_off_mask in
  let base = lo lsl line_bits in
  for o = 0 to line_words - 1 do
    if mask land (1 lsl o) <> 0 then p.data.(base + o) <- data.(o)
  done;
  p.version.(lo) <- p.version.(lo) + 1

let share_table table =
  Array.iter (function Some p -> p.shared <- true | None -> ()) table;
  Array.copy table

let copy t = { pos = share_table t.pos; neg = share_table t.neg }

(* Present lines of one page table, in ascending page order. *)
let iter_table table ~pidx_of f =
  Array.iteri
    (fun i po ->
      match po with
      | None -> ()
      | Some p ->
        let page_base = pidx_of i lsl page_bits in
        for lo = 0 to page_lines - 1 do
          if p.version.(lo) > 0 then f (page_base lor lo) p lo
        done)
    table

let iter_present t f =
  (* Negative pages from most negative upward, then non-negative: line
     order is ascending, though callers must not rely on it (the Hashtbl
     implementation had no order either). *)
  let n = Array.length t.neg in
  for i = n - 1 downto 0 do
    match t.neg.(i) with
    | None -> ()
    | Some p ->
      let page_base = (-1 - i) lsl page_bits in
      for lo = 0 to page_lines - 1 do
        if p.version.(lo) > 0 then f (page_base lor lo) p lo
      done
  done;
  iter_table t.pos ~pidx_of:(fun i -> i) f

let present_lines t =
  let n = ref 0 in
  iter_present t (fun _ _ _ -> incr n);
  !n

let iter_lines t f =
  iter_present t (fun l p lo ->
      f l (Array.sub p.data (lo lsl line_bits) line_words))

let zero_line = Array.make line_words 0

let line_data_or_zero t l =
  match find_page t (l asr page_bits) with
  | None -> (zero_line, 0)
  | Some p ->
    let lo = l land page_off_mask in
    if p.version.(lo) > 0 then (p.data, lo lsl line_bits) else (zero_line, 0)

let diff ?(from = min_int) a b =
  let mismatches = ref [] in
  let seen = Hashtbl.create 64 in
  let check l =
    if not (Hashtbl.mem seen l) then begin
      Hashtbl.replace seen l ();
      let da, abase = line_data_or_zero a l in
      let db, bbase = line_data_or_zero b l in
      for o = 0 to line_words - 1 do
        let addr = addr_of_line l + o in
        if addr >= from && da.(abase + o) <> db.(bbase + o) then
          mismatches := (addr, da.(abase + o), db.(bbase + o)) :: !mismatches
      done
    end
  in
  iter_present a (fun l _ _ -> check l);
  iter_present b (fun l _ _ -> check l);
  List.sort compare !mismatches

let equal ?from a b = diff ?from a b = []
