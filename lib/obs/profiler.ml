(* Region profiler: the region log. One row per boundary crossing or
   halt, joined from two sources.

   The executor owns one side — at each crossing it knows the core, the
   crossed boundary, the global instruction index and the costs of the
   region the crossing ends (static identity, instructions, stores,
   checkpoint stores, stall cycles). Persist owns the other — the proxy
   commits the region asynchronously and only it knows the commit cycle
   and how many NVM lines the commit wrote. The two sides join on
   (core, seq), where seq mirrors Persist's per-core open_seq: both sides
   count every crossing on the core, including elided ones, so the keys
   stay aligned even when a region never reaches the proxy. The executor
   writes the row before it hands the crossing to Persist, so every
   commit report finds its row.

   A thread's first crossing closes nothing (no region was open); its
   row has [closes = false] and the close-only folds below skip it.

   Rows are only ever touched from the core's own domain (the simulator
   runs one session per domain), so plain Hashtbl mutation is fine, and
   aggregation sorts before rendering so output is deterministic. *)

type record = {
  core : int;
  seq : int;
  boundary : int;
  instr : int;
  closes : bool;
  region : string;
  instrs : int;
  stores : int;
  ckpt_stores : int;
  mutable stall_cycles : int;
  close_cycle : int;
  mutable commit_cycle : int; (* -1 until the proxy reports the commit *)
  mutable nvm_lines : int;
}

type t = { enabled : bool; rows : (int * int, record) Hashtbl.t }

let create () = { enabled = true; rows = Hashtbl.create 256 }
let null = { enabled = false; rows = Hashtbl.create 0 }
let enabled t = t.enabled

let on_region_close t ~core ~seq ~boundary ~instr ~closes ~region ~instrs
    ~stores ~ckpt_stores ~stall_cycles ~cycle =
  if t.enabled then
    Hashtbl.replace t.rows (core, seq)
      {
        core;
        seq;
        boundary;
        instr;
        closes;
        region;
        instrs;
        stores;
        ckpt_stores;
        stall_cycles;
        close_cycle = cycle;
        commit_cycle = -1;
        nvm_lines = 0;
      }

let add_stall t ~core ~seq stall =
  match Hashtbl.find_opt t.rows (core, seq) with
  | Some r -> r.stall_cycles <- r.stall_cycles + stall
  | None -> ()

let on_commit t ~core ~seq ~cycle ~nvm_lines =
  if t.enabled then
    match Hashtbl.find_opt t.rows (core, seq) with
    | Some r ->
      r.commit_cycle <- cycle;
      r.nvm_lines <- r.nvm_lines + nvm_lines
    | None -> ()

let sorted t cmp =
  List.sort cmp (Hashtbl.fold (fun _ r acc -> r :: acc) t.rows [])

let records t =
  sorted t (fun a b ->
      match Int.compare a.core b.core with
      | 0 -> Int.compare a.seq b.seq
      | c -> c)
  |> List.filter (fun r -> r.closes)

let crossings t = sorted t (fun a b -> Int.compare a.instr b.instr)

let boundary_instrs t =
  List.filter_map
    (fun r -> if r.boundary >= 0 then Some r.instr else None)
    (crossings t)

let render_timeline ?(max_rows = 64) t =
  let rows = crossings t in
  let total = List.length rows in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "cycle      core  event\n";
  List.iteri
    (fun i r ->
      if total > max_rows && i >= max_rows / 2 && i < total - (max_rows / 2)
      then begin
        if i = max_rows / 2 then
          Buffer.add_string buf
            (Printf.sprintf "  ... %d events elided ...\n" (total - max_rows))
      end
      else if r.boundary >= 0 then
        Buffer.add_string buf
          (Printf.sprintf
             "%-10d %-5d boundary #%d (region closed with %d stores, instr %d)\n"
             r.close_cycle r.core r.boundary r.stores r.instr)
      else
        Buffer.add_string buf
          (Printf.sprintf "%-10d %-5d halt\n" r.close_cycle r.core))
    rows;
  if total > max_rows then
    Buffer.add_string buf
      (Printf.sprintf "… (+%d more rows)\n" (total - max_rows));
  Buffer.contents buf

(* ---------------- aggregation ---------------- *)

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

let aggregate t =
  let by_region = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let a =
        match Hashtbl.find_opt by_region r.region with
        | Some a -> a
        | None ->
          {
            name = r.region;
            executions = 0;
            total_stores = 0;
            total_ckpt_stores = 0;
            total_stall_cycles = 0;
            commits = 0;
            total_commit_latency = 0;
            total_nvm_lines = 0;
          }
      in
      let committed = r.commit_cycle >= 0 in
      let latency =
        if committed then max 0 (r.commit_cycle - r.close_cycle) else 0
      in
      Hashtbl.replace by_region r.region
        {
          a with
          executions = a.executions + 1;
          total_stores = a.total_stores + r.stores;
          total_ckpt_stores = a.total_ckpt_stores + r.ckpt_stores;
          total_stall_cycles = a.total_stall_cycles + r.stall_cycles;
          commits = (a.commits + if committed then 1 else 0);
          total_commit_latency = a.total_commit_latency + latency;
          total_nvm_lines = a.total_nvm_lines + r.nvm_lines;
        })
    (records t);
  Hashtbl.fold (fun _ a acc -> a :: acc) by_region []
  |> List.sort (fun a b -> String.compare a.name b.name)

(* "Hot" orders by where the persistence cost lands: stall cycles first,
   then NVM traffic, then store volume; name breaks ties so the table is
   stable across runs. *)
let hottest_of aggs ~n =
  aggs
  |> List.sort (fun a b ->
         match Int.compare b.total_stall_cycles a.total_stall_cycles with
         | 0 -> (
           match Int.compare b.total_nvm_lines a.total_nvm_lines with
           | 0 -> (
             match Int.compare b.total_stores a.total_stores with
             | 0 -> String.compare a.name b.name
             | c -> c)
           | c -> c)
         | c -> c)
  |> List.filteri (fun i _ -> i < n)

let hottest t ~n = hottest_of (aggregate t) ~n

let render_top t ~n =
  let aggs = aggregate t in
  let rows = hottest_of aggs ~n in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-28s %6s %9s %7s %9s %9s %9s\n" "region" "execs"
       "stores" "ckpt" "stall" "commit" "nvm-lines");
  List.iter
    (fun a ->
      let avg_latency =
        if a.commits = 0 then 0 else a.total_commit_latency / a.commits
      in
      Buffer.add_string buf
        (Printf.sprintf "%-28s %6d %9d %7d %9d %9d %9d\n" a.name a.executions
           a.total_stores a.total_ckpt_stores a.total_stall_cycles avg_latency
           a.total_nvm_lines))
    rows;
  let total = List.length aggs in
  if total > List.length rows then
    Buffer.add_string buf
      (Printf.sprintf "… (+%d more regions)\n" (total - List.length rows));
  Buffer.contents buf

(* ---------------- registry publication ---------------- *)

let publish ?(labels = []) t m =
  let h_stores = Metrics.log2_histogram ~labels m "region_stores" ~buckets:14 in
  let h_ckpt =
    Metrics.log2_histogram ~labels m "region_ckpt_stores" ~buckets:14
  in
  let h_stall =
    Metrics.log2_histogram ~labels m "region_stall_cycles" ~buckets:18
  in
  let h_latency =
    Metrics.log2_histogram ~labels m "region_commit_latency" ~buckets:18
  in
  let h_nvm = Metrics.log2_histogram ~labels m "region_nvm_lines" ~buckets:14 in
  let closed = Metrics.counter ~labels m "regions_closed" in
  let committed = Metrics.counter ~labels m "regions_committed" in
  List.iter
    (fun r ->
      Metrics.Counter.inc closed;
      Metrics.Histogram.observe h_stores r.stores;
      Metrics.Histogram.observe h_ckpt r.ckpt_stores;
      Metrics.Histogram.observe h_stall r.stall_cycles;
      if r.commit_cycle >= 0 then begin
        Metrics.Counter.inc committed;
        Metrics.Histogram.observe h_latency (max 0 (r.commit_cycle - r.close_cycle));
        Metrics.Histogram.observe h_nvm r.nvm_lines
      end)
    (records t)
