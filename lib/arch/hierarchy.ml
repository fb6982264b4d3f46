module Metrics = Capri_obs.Metrics
module Obs = Capri_obs.Obs

type level = L1 | L2 | Dram | Nvm

(* Public snapshot; live cells are registry counters named cache_..,
   same scheme as Persist's. *)
type stats = {
  mutable l1_hits : int;
  mutable l2_hits : int;
  mutable dram_hits : int;
  mutable nvm_accesses : int;
  mutable writebacks : int;
  mutable invalidations : int;
}

type counters = {
  c_l1_hits : Metrics.Counter.t;
  c_l2_hits : Metrics.Counter.t;
  c_dram_hits : Metrics.Counter.t;
  c_nvm_accesses : Metrics.Counter.t;
  c_writebacks : Metrics.Counter.t;
  c_invalidations : Metrics.Counter.t;
}

type t = {
  config : Config.t;
  memory : Memory.t;
  l1 : Cache.t array;  (* per core *)
  l2 : Cache.t;
  dram : Cache.t;
  on_nvm_writeback :
    cycle:int -> line:int -> data:int array -> version:int -> unit;
  mutable fetched_dirty : bool;  (* [fetch_from_below]'s second result *)
  c : counters;
  metrics : Metrics.t;
  labels : Metrics.labels;
}

let pow2_ge n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ?(obs = Obs.null) ?(labels = []) config memory ~on_nvm_writeback =
  let mk lines ways =
    let sets = max 1 (pow2_ge (lines / ways)) in
    Cache.create ~sets ~ways
  in
  let metrics = obs.Obs.metrics in
  let c name = Metrics.counter ~labels metrics ("cache_" ^ name) in
  {
    config;
    memory;
    l1 =
      Array.init config.Config.cores (fun _ ->
          mk config.Config.l1_lines config.Config.l1_ways);
    l2 = mk config.Config.l2_lines config.Config.l2_ways;
    dram = Cache.create ~sets:(pow2_ge config.Config.dram_cache_lines) ~ways:1;
    on_nvm_writeback;
    fetched_dirty = false;
    c =
      {
        c_l1_hits = c "l1_hits";
        c_l2_hits = c "l2_hits";
        c_dram_hits = c "dram_hits";
        c_nvm_accesses = c "nvm_accesses";
        c_writebacks = c "writebacks";
        c_invalidations = c "invalidations";
      };
    metrics;
    labels;
  }

let latency (config : Config.t) = function
  | L1 -> config.l1_hit
  | L2 -> config.l2_hit
  | Dram -> config.dram_hit
  | Nvm -> config.nvm_read

(* Dirty eviction sinks one level down; clean evictions vanish. *)
let rec sink t ~cycle ~line ~dirty ~from =
  if dirty then begin
    Metrics.Counter.inc t.c.c_writebacks;
    match from with
    | L1 ->
      if not (Cache.touch_if_present t.l2 line ~dirty:true) then
        insert_into t ~cycle t.l2 ~line ~dirty:true ~level:L2
    | L2 ->
      if not (Cache.touch_if_present t.dram line ~dirty:true) then
        insert_into t ~cycle t.dram ~line ~dirty:true ~level:Dram
    | Dram ->
      t.on_nvm_writeback ~cycle ~line
        ~data:(Memory.line_snapshot t.memory line)
        ~version:(Memory.line_version t.memory line)
    | Nvm -> assert false
  end

and insert_into t ~cycle cache ~line ~dirty ~level =
  Cache.insert cache line ~dirty;
  let victim = Cache.victim cache in
  if victim >= 0 then
    sink t ~cycle ~line:victim ~dirty:(Cache.victim_dirty cache) ~from:level

(* Invalidate every L1 copy of [line] except core [keep]'s ([-1] keeps
   none). Returns whether one of them was dirty. *)
let invalidate_l1s t line ~keep =
  let stolen = ref false in
  for i = 0 to Array.length t.l1 - 1 do
    let l1 = t.l1.(i) in
    if i <> keep && Cache.mem l1 line then begin
      if Cache.invalidate l1 line then stolen := true;
      Metrics.Counter.inc t.c.c_invalidations
    end
  done;
  !stolen

(* Find the line below L1 and remove it from there (it moves up). Returns
   the level it was found at; whether the copy was dirty is left in
   [t.fetched_dirty] (an out-field, not a result tuple per miss). Every
   other L1 copy is invalidated first. A dirty one is another core's
   exclusive copy: its data migrates (it stays architecturally current,
   nothing to write back), at L2-ish cost. *)
let fetch_from_below t ~line =
  if invalidate_l1s t line ~keep:(-1) then begin
    t.fetched_dirty <- true;
    L2
  end
  else if Cache.mem t.l2 line then begin
    t.fetched_dirty <- Cache.invalidate t.l2 line;
    L2
  end
  else if Cache.mem t.dram line then begin
    t.fetched_dirty <- Cache.invalidate t.dram line;
    Dram
  end
  else begin
    t.fetched_dirty <- false;
    Nvm
  end

(* Coherence needs no owner table: a dirty L1 copy is exclusive (a write
   invalidates every other L1 copy; a miss steals or drops them), so the
   core owning a line is the one whose L1 holds it dirty. *)
let access t ~core ~cycle ~addr ~write =
  let line = Memory.line_of_addr addr in
  let l1 = t.l1.(core) in
  (* A write to an already-dirty copy is the steady state of a
     store-heavy loop: the core owns the line, nobody else has it. *)
  let owned = write && Cache.is_dirty l1 line in
  if Cache.touch_if_present l1 line ~dirty:write then begin
    (* Writing a shared clean copy takes ownership: drop the others. *)
    if write && not owned then ignore (invalidate_l1s t line ~keep:core);
    Metrics.Counter.inc t.c.c_l1_hits;
    L1
  end
  else begin
    let found_at = fetch_from_below t ~line in
    (match found_at with
     | L2 -> Metrics.Counter.inc t.c.c_l2_hits
     | Dram -> Metrics.Counter.inc t.c.c_dram_hits
     | Nvm -> Metrics.Counter.inc t.c.c_nvm_accesses
     | L1 -> assert false);
    insert_into t ~cycle l1 ~line ~dirty:(write || t.fetched_dirty) ~level:L1;
    found_at
  end

let load t ~core ~cycle ~addr = access t ~core ~cycle ~addr ~write:false
let store t ~core ~cycle ~addr = access t ~core ~cycle ~addr ~write:true

let flush_all t ~cycle =
  Array.iter
    (fun l1 ->
      List.iter
        (fun line ->
          ignore (Cache.invalidate l1 line);
          t.on_nvm_writeback ~cycle ~line
            ~data:(Memory.line_snapshot t.memory line)
            ~version:(Memory.line_version t.memory line))
        (Cache.dirty_lines l1))
    t.l1;
  List.iter
    (fun line ->
      ignore (Cache.invalidate t.l2 line);
      t.on_nvm_writeback ~cycle ~line
        ~data:(Memory.line_snapshot t.memory line)
        ~version:(Memory.line_version t.memory line))
    (Cache.dirty_lines t.l2);
  List.iter
    (fun line ->
      ignore (Cache.invalidate t.dram line);
      t.on_nvm_writeback ~cycle ~line
        ~data:(Memory.line_snapshot t.memory line)
        ~version:(Memory.line_version t.memory line))
    (Cache.dirty_lines t.dram)

let drop_all t =
  Array.iter Cache.clear t.l1;
  Cache.clear t.l2;
  Cache.clear t.dram

let stats t =
  let v = Metrics.Counter.value in
  {
    l1_hits = v t.c.c_l1_hits;
    l2_hits = v t.c.c_l2_hits;
    dram_hits = v t.c.c_dram_hits;
    nvm_accesses = v t.c.c_nvm_accesses;
    writebacks = v t.c.c_writebacks;
    invalidations = v t.c.c_invalidations;
  }

(* Publish per-cache allocation/eviction counts as registry series; [set]
   makes this idempotent, so callers may publish at any checkpoint. The
   per-core L1s fold into one series — their sum is the architectural
   figure and keeps the document independent of core count. *)
let publish t =
  let put name (s : Cache.stats list) =
    let tot f = List.fold_left (fun a x -> a + f x) 0 s in
    let set field v =
      Metrics.Counter.set
        (Metrics.counter ~labels:(("level", name) :: t.labels) t.metrics field)
        v
    in
    set "cache_insertions" (tot (fun (x : Cache.stats) -> x.Cache.insertions));
    set "cache_evictions" (tot (fun (x : Cache.stats) -> x.Cache.evictions));
    set "cache_dirty_evictions"
      (tot (fun (x : Cache.stats) -> x.Cache.dirty_evictions))
  in
  put "l1" (Array.to_list (Array.map Cache.stats t.l1));
  put "l2" [ Cache.stats t.l2 ];
  put "dram" [ Cache.stats t.dram ]
