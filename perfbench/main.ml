(* perfbench: one benchmark for both clocks.

     perfbench --workload fig8|serve-txn|recover-100k --seed N \
               --seconds S --trace 0|1

   Each workload is a fixed unit of work ("a pass") repeated for
   [--seconds] seconds. Host metrics are medians over passes; simulated
   metrics are exact and must be identical in every pass. The benchmark
   calls only public library functions (Pipeline.compile, Server.plan,
   Kvstore.build, Capri.run, Executor/Recovery/Verify, Server.run,
   Server.check) and reads the counters they return, so it needs no
   tracing inside the library. With [--trace 1], untraced and traced
   passes alternate; the traced ones wrap every layer call in a
   {!Span} and yield the per-layer metrics, and the span file is
   written to .perfbench/. The last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

module W = Capri_workloads
module Svc = Capri_service
module Server = Svc.Server
module Stat = Capri_util.Stat
module Executor = Capri.Executor

(* Layer names: the library's module names. *)
let l_bench = "bench"
let l_split = "bench.split"
let l_workloads = "workloads"
let l_compiler = "compiler"
let l_server = "service.server"
let l_kvstore = "service.kvstore"
let l_exec = "runtime.executor"
let l_recovery = "runtime.recovery"
let l_verify = "runtime.verify"
let l_sla = "service.sla"

let self_layers =
  [
    l_bench; l_split; l_compiler; l_server; l_kvstore; l_exec; l_recovery;
    l_verify; l_sla;
  ]

(* ------------------------------------------------------------------ *)
(* Failures are counted, never raised.                                 *)
(* ------------------------------------------------------------------ *)

type tally = { mutable attempted : int; failures : (string, int) Hashtbl.t }

let fail tally reason n =
  Hashtbl.replace tally.failures reason
    (n + Option.value ~default:0 (Hashtbl.find_opt tally.failures reason))

let failed tally = Hashtbl.fold (fun _ n acc -> acc + n) tally.failures 0

let reason_of_exn = function
  | Executor.Livelock { core; region; _ } ->
    Printf.sprintf "Livelock (core %d, region %s)" core region
  | Invalid_argument m -> "Invalid_argument: " ^ m
  | e -> "exception: " ^ Printexc.to_string e

(* ------------------------------------------------------------------ *)
(* Simulated counters.                                                 *)
(* ------------------------------------------------------------------ *)

(* Raw sums; the per-layer ratios are derived in [counters]. *)
type sums = (string, int) Hashtbl.t

let add (s : sums) k v =
  Hashtbl.replace s k (v + Option.value ~default:0 (Hashtbl.find_opt s k))

let get (s : sums) k = Option.value ~default:0 (Hashtbl.find_opt s k)

let add_compiled s (c : Capri.Compiled.t) =
  add s "regions" (Capri.Region_map.region_count c.regions);
  add s "ckpts_inserted" c.ckpt_report.ckpts_inserted;
  add s "ckpts_pruned" c.prune_report.ckpts_pruned;
  add s "ckpts_hoisted" c.licm_report.ckpts_hoisted;
  add s "loops_unrolled" c.unroll_report.loops_unrolled;
  add s "recovery_blocks_static" c.prune_report.recovery_blocks;
  add s "static_ckpts" (Capri.Compiled.static_ckpt_count c)

(* [ops] is the run's unit of useful work: payload instructions for a
   kernel, acked requests for a store. *)
let add_run s ~ops (r : Executor.result) =
  let p = r.persist_stats and h = r.hier_stats in
  add s "instrs" r.instrs;
  add s "ops" ops;
  add s "stores" r.stores;
  add s "ckpt_stores" r.ckpt_stores;
  add s "store_stall_cycles" p.store_stall_cycles;
  add s "boundary_stall_cycles" p.boundary_stall_cycles;
  add s "commits" p.commits;
  add s "nvm_line_writes" p.nvm_line_writes;
  add s "nvm_writes_wb" p.nvm_writes_wb;
  add s "nvm_writes_redo" p.nvm_writes_redo;
  add s "nvm_writes_slot" p.nvm_writes_slot;
  add s "l1_hits" h.l1_hits;
  add s "accesses" (h.l1_hits + h.l2_hits + h.dram_hits + h.nvm_accesses);
  add s "nvm_accesses" h.nvm_accesses;
  add s "writebacks" h.writebacks

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* The simulated per-layer metrics, in output order. *)
let counters (s : sums) =
  let i k = float_of_int (get s k) in
  [
    ("compiler.regions", i "regions");
    ("compiler.ckpts_inserted", i "ckpts_inserted");
    ("compiler.ckpts_pruned", i "ckpts_pruned");
    ("compiler.ckpts_hoisted", i "ckpts_hoisted");
    ("compiler.loops_unrolled", i "loops_unrolled");
    ("compiler.recovery_blocks", i "recovery_blocks_static");
    ("compiler.static_ckpts", i "static_ckpts");
    ("runtime.executor.sim_instrs", i "instrs");
    ( "runtime.executor.instrs_per_op",
      ratio (get s "instrs") (get s "ops") );
    ("arch.persist.store_stall_cycles", i "store_stall_cycles");
    ("arch.persist.boundary_stall_cycles", i "boundary_stall_cycles");
    ("arch.persist.commits", i "commits");
    ("arch.persist.nvm_line_writes", i "nvm_line_writes");
    ("arch.persist.nvm_writes_wb", i "nvm_writes_wb");
    ("arch.persist.nvm_writes_redo", i "nvm_writes_redo");
    ("arch.persist.nvm_writes_slot", i "nvm_writes_slot");
    ( "arch.persist.ckpt_store_frac",
      ratio (get s "ckpt_stores") (get s "stores" + get s "ckpt_stores") );
    ( "arch.hierarchy.l1_hit_frac",
      ratio (get s "l1_hits") (get s "accesses") );
    ("arch.hierarchy.nvm_accesses", i "nvm_accesses");
    ("arch.hierarchy.writebacks", i "writebacks");
    ("runtime.recovery.blocks", i "recovery_blocks");
    ("runtime.recovery.journal_tail", i "journal_tail");
    ("runtime.recovery.replayed", i "replayed");
    ( "service.txn.commit_frac",
      ratio (get s "txn_commits")
        (get s "txn_commits" + get s "txn_aborts") );
  ]

(* ------------------------------------------------------------------ *)
(* One pass of a workload.                                             *)
(* ------------------------------------------------------------------ *)

type pass = {
  sim : (string * float) list;  (* simulated end-to-end metrics *)
  counters : (string * float) list;  (* simulated per-layer metrics *)
  exec_instrs : int;  (* simulated instructions run inside executor spans *)
  notes : string list;  (* human-readable lines about the simulated side *)
}

let exec ~name f = Span.with_ ~layer:l_exec ~name f

let finished = function
  | Executor.Finished r -> r
  | Executor.Crashed _ -> failwith "crash-free run crashed"

(* The highest percentile (at most the 99th) with at least ten samples
   beyond it. *)
let tail_percentile n =
  Float.min 99.0 (100.0 *. (1.0 -. (10.0 /. float_of_int n)))

(* Mean and tail of a latency sample. The mean stands in for the median:
   on serve-txn the median sits on the step between in-batch ack gaps
   (about 14 cycles) and batch-boundary gaps (about 48), so it flips
   with the seed; the report still prints it. *)
let latency_metrics samples =
  match samples with
  | [] -> ((0.0, 0.0), "no latency samples")
  | _ ->
    let n = List.length samples in
    let p = tail_percentile n in
    ( (Stat.mean samples, Stat.percentile p samples),
      Printf.sprintf "latency samples %d, p50 %g; sim_p99_cycles is the p%g" n
        (Stat.percentile 50.0 samples) p )

(* ------------------------------------------------------------------ *)
(* fig8: the paper's Figure 8 matrix plus one crash per kernel.        *)
(* ------------------------------------------------------------------ *)

let fig8_thresholds = [ 32; 64; 128; 256; 512; 1024 ]

(* the four accumulative option sets of Figure 9 beyond "region" *)
let fig8_options = List.map snd (List.tl Capri.Options.fig9_configs)
let paper_overhead = 1.051

(* bench/main.exe fig8's overall gmean at threshold 256 when this
   benchmark was defined; printed beside the measured value *)
let defined_overhead = 1.088

(* Kernels at the harness scale; the seed only places each kernel's
   crash point, so the Figure 8 matrix is the same for every seed. *)
let fig8_setup seed =
  let rng = Random.State.make [| seed |] in
  let kernels = W.Suite.all ~scale:W.Suite.bench_scale () in
  List.map (fun k -> (k, 0.2 +. Random.State.float rng 0.6)) kernels

(* Task-queue kernels hand out work in arrival order, which depends on
   timing, so their per-thread outputs and registers differ between
   modes and across a crash; their memory must still agree. *)
let timing_dependent (k : W.Kernel.t) = k.name = "radiosity"

(* One cell of the matrix, as bench/main.exe fig8 measures it (conflict
   fence off: the paper's hardware has none). Memory and outputs are held
   to the volatile run's, as in test/test_workloads.ml. *)
let fig8_cell (k : W.Kernel.t) (base : Executor.result) threshold options =
  let options = Capri.Options.with_threshold threshold options in
  let compiled =
    Span.with_ ~layer:l_compiler ~name:"Pipeline.compile" (fun () ->
        Capri.Pipeline.compile options k.program)
  in
  let config =
    {
      (Capri.Config.with_threshold threshold Capri.Config.sim_default) with
      conflict_fence = false;
    }
  in
  let r =
    exec ~name:"Capri.run" (fun () ->
        Capri.run ~config ~mode:Capri.Persist.Capri ~threads:k.threads compiled)
  in
  if not (Capri.Memory.equal ~from:Capri.Builder.data_base base.memory r.memory)
  then Error ("memory mismatch: " ^ k.name)
  else if (not (timing_dependent k)) && r.outputs <> base.outputs then
    Error ("output mismatch: " ^ k.name)
  else Ok (compiled, r)

type crash_check = {
  commit_latencies : float list;
  penalty : int;  (* modeled restart cycles *)
  run_cycles : int;  (* crash run: before + restart + after *)
  blocks : int;
  replayed : int;
  ref_instrs : int;
}

(* One mid-run crash at threshold 256 with every optimization on, the
   conflict fence on (crash-correctness setting), checked with
   Verify.check_equivalence against the crash-free reference. The
   reference also feeds the region profiler: the close -> back-end
   commit gap of every region is fig8's latency sample, clamped at 0 as
   in Profiler.publish's region_commit_latency (the proxy can commit a
   region before its core's clock reaches the close). *)
let fig8_crash (k : W.Kernel.t) frac =
  let threads = k.threads in
  let config = Capri.Config.with_threshold 256 Capri.Config.sim_default in
  let compiled =
    Span.with_ ~layer:l_compiler ~name:"Pipeline.compile" (fun () ->
        Capri.Pipeline.compile Capri.Options.default k.program)
  in
  let start ?obs () =
    Executor.start ~config ~mode:Capri.Persist.Capri ?obs ~check_threshold:256
      ~program:compiled.program ~threads ()
  in
  let prof = Capri_obs.Profiler.create () in
  let reference =
    exec ~name:"Executor.run (reference)" (fun () ->
        let obs = { Capri_obs.Obs.null with regions = prof } in
        finished (Executor.run (start ~obs ())))
  in
  let at = max 1 (int_of_float (frac *. float_of_int reference.instrs)) in
  (* a recovery that derails must end in Livelock, not run for minutes *)
  let max_steps = (10 * reference.instrs) + 1_000_000 in
  let crash, blocks, resumed =
    Span.with_ ~layer:l_recovery ~name:"crash+Recovery+resume" (fun () ->
        match Executor.run ~max_steps ~crash_at_instr:at (start ()) with
        | Executor.Finished _ -> failwith "crash point past the end of the run"
        | Executor.Crashed crash ->
          let blocks =
            Capri.Recovery.apply_recovery_blocks_per_core compiled crash.image
          in
          let session =
            Executor.resume ~config ~mode:Capri.Persist.Capri
              ~check_threshold:256 ~compiled ~image:crash.image ~threads ()
          in
          (crash, blocks, finished (Executor.run ~max_steps session)))
  in
  let candidate =
    {
      resumed with
      outputs =
        Array.mapi (fun i o -> crash.outputs_before.(i) @ o) resumed.outputs;
    }
  in
  match
    Span.with_ ~layer:l_verify ~name:"Verify.check_equivalence" (fun () ->
        if timing_dependent k then
          if Capri.Memory.equal ~from:Capri.Builder.data_base reference.memory
               candidate.memory
          then Ok ()
          else Error "final memory differs"
        else Capri.Verify.check_equivalence ~reference ~candidate)
  with
  | Error m -> Error (Printf.sprintf "crash-equivalence: %s: %s" k.name m)
  | Ok () ->
    let replayed = crash.image.replayed in
    let penalty =
      Server.recovery_penalty config ~blocks
        ~tails:(Array.make (Array.length blocks) 0)
        ~replayed
    in
    let commit_latencies =
      List.filter_map
        (fun (r : Capri_obs.Profiler.record) ->
          if r.commit_cycle < 0 then None
          else Some (float_of_int (max 0 (r.commit_cycle - r.close_cycle))))
        (Capri_obs.Profiler.records prof)
    in
    Ok
      {
        commit_latencies;
        penalty;
        run_cycles = crash.at_cycle + penalty + resumed.cycles;
        blocks = Array.fold_left ( + ) 0 blocks;
        replayed = Array.fold_left ( + ) 0 replayed;
        ref_instrs = reference.instrs;
      }

(* The fastest of the four option sets at one threshold; the earliest
   wins ties, as in bench/main.exe. *)
let fig8_best tally exec_instrs k base threshold =
  List.fold_left
    (fun best options ->
      match fig8_cell k base threshold options with
      | Error reason -> fail tally reason 1; best
      | exception e -> fail tally (reason_of_exn e) 1; best
      | Ok ((_, (r : Executor.result)) as m) -> (
        exec_instrs := !exec_instrs + r.instrs;
        match best with
        | Some (_, (b : Executor.result)) when b.cycles <= r.cycles -> best
        | Some _ | None -> Some m))
    None fig8_options

let fig8_pass tally kernels =
  let s : sums = Hashtbl.create 32 in
  let normalized = Hashtbl.create 8 in
  let latencies = ref [] in
  let penalty = ref 0 and run_cycles = ref 0 and crashes = ref 0 in
  let cycles_256 = ref 0 and exec_instrs = ref 0 in
  (* the matrix cells plus the crash check *)
  let ops_per_kernel =
    (List.length fig8_thresholds * List.length fig8_options) + 1
  in
  let record threshold (base : Executor.result)
      (compiled, (r : Executor.result)) =
    let prev =
      Option.value ~default:[] (Hashtbl.find_opt normalized threshold)
    in
    Hashtbl.replace normalized threshold
      ((float_of_int r.cycles /. float_of_int base.cycles) :: prev);
    if threshold = 256 then begin
      add_compiled s compiled;
      add_run s ~ops:r.payload_instrs r;
      cycles_256 := !cycles_256 + r.cycles
    end
  in
  List.iteri
    (fun i ((k : W.Kernel.t), frac) ->
      Span.with_trial i @@ fun () ->
      tally.attempted <- tally.attempted + ops_per_kernel;
      match
        exec ~name:"Capri.run_volatile" (fun () ->
            Capri.run_volatile ~threads:k.threads k.program)
      with
      | exception e -> fail tally (reason_of_exn e) ops_per_kernel
      | base -> (
        exec_instrs := !exec_instrs + base.instrs;
        List.iter
          (fun threshold ->
            Option.iter (record threshold base)
              (fig8_best tally exec_instrs k base threshold))
          fig8_thresholds;
        match fig8_crash k frac with
        | Ok c ->
          exec_instrs := !exec_instrs + c.ref_instrs;
          latencies := List.rev_append c.commit_latencies !latencies;
          penalty := !penalty + c.penalty;
          run_cycles := !run_cycles + c.run_cycles;
          incr crashes;
          add s "recovery_blocks" c.blocks;
          add s "replayed" c.replayed
        | Error reason -> fail tally reason 1
        | exception e -> fail tally (reason_of_exn e) 1))
    kernels;
  let gmean th =
    Stat.geomean (Option.value ~default:[] (Hashtbl.find_opt normalized th))
  in
  let overhead = gmean 256 in
  let (mean, p99), lat_note = latency_metrics !latencies in
  let sim =
    [
      ("sim_overhead_x", overhead);
      ("sim_tput_ops_kcyc", 1000.0 *. ratio (get s "ops") !cycles_256);
      ("sim_mean_cycles", mean);
      ("sim_p99_cycles", p99);
      ("sim_recovery_cycles", ratio !penalty !crashes);
      ( "sim_availability_pct",
        100.0 *. (1.0 -. ratio !penalty !run_cycles) );
    ]
  in
  let notes =
    [
      "fig8 overall gmean by threshold: "
      ^ String.concat ", "
          (List.map
             (fun th -> Printf.sprintf "%d = %.3f" th (gmean th))
             fig8_thresholds);
      Printf.sprintf
        "sim_overhead_x %.4f vs the paper's %.3f: model - paper = %+.4f (the \
         cycle model is not validated against hardware)"
        overhead paper_overhead (overhead -. paper_overhead);
      Printf.sprintf
        "guard: sim_overhead_x rounds to %.3f; bench/main.exe fig8 printed \
         %.3f at threshold 256 when this benchmark was defined: %s"
        overhead defined_overhead
        (if Float.round (overhead *. 1000.0)
            = Float.round (defined_overhead *. 1000.0)
         then "same"
         else "DIFFERENT");
      "sim_tput_ops_kcyc: payload instructions per 1000 cycles at threshold \
       256";
      "sim_mean/p99_cycles: region close -> back-end proxy commit (persist \
       latency), crash-free threshold-256 references; " ^ lat_note;
      Printf.sprintf "crashes recovered and verified: %d" !crashes;
    ]
  in
  { sim; counters = counters s; exec_instrs = !exec_instrs; notes }

(* ------------------------------------------------------------------ *)
(* serve-txn and recover-100k: the serving path.                       *)
(* ------------------------------------------------------------------ *)

type service = {
  mix : Svc.Client.mix;
  key_space : int;
  txns : int;
  compact : int;  (* journal compact interval; 0 = off *)
  preload : bool;  (* bulk-load every key of every shard *)
  streams : int;  (* distinct seeded request streams per pass *)
  schedule : int -> int list;
      (* crash points (per segment) from the crash-free instruction count *)
}

let shards = 2
let ops_per_shard = 1000

(* Three evenly spaced crashes: each segment runs a quarter of the
   reference before the power fails. *)
let serve_txn =
  {
    mix = Svc.Client.A; key_space = 64; txns = 40; compact = 0;
    preload = false; streams = 6;
    schedule = (fun total -> List.init 3 (fun _ -> max 1 (total / 4)));
  }

(* Three crashes late in the run, at about 70%, 80% and 90% of it. *)
let recover_100k =
  {
    mix = Svc.Client.B; key_space = 100_000; txns = 0; compact = 32;
    preload = true; streams = 4;
    schedule =
      (fun total ->
        [ max 1 (total * 7 / 10); max 1 (total / 10); max 1 (total / 10) ]);
  }

(* Committed state for every key of every shard; values depend on the
   shard so a cross-shard mix-up shows in the oracle's table scan. *)
let preload_arrays ~seed ~keys =
  Array.init shards (fun sh ->
      Array.init keys (fun i ->
          let key = i + 1 in
          (key, (key + (sh * 17) + seed) mod 251)))

let stream_seed seed i = Random.State.bits (Random.State.make [| seed; i |])

(* The server configurations of one pass, with the inputs they carry
   generated. Server.plan derives the same request streams again from
   [cfg.client]; the copies made here are what setup_s times. *)
let service_setup w seed =
  let preload =
    if w.preload then preload_arrays ~seed ~keys:w.key_space else [||]
  in
  let config =
    { Capri.Config.sim_default with compact_interval = w.compact }
  in
  List.init w.streams (fun i ->
      let client =
        {
          Svc.Client.default with
          mix = w.mix;
          key_space = w.key_space;
          ops_per_shard;
          skew = 0.99;
          loop = Svc.Client.Closed;
          seed = stream_seed seed i;
          txns = w.txns;
        }
      in
      let workload = Svc.Client.generate client ~shards in
      ( { Server.default_cfg with shards; client; config; preload;
          mode = Capri.Persist.Capri; recovery_jobs = 1 },
        workload ))

type trial = {
  t_stats : Svc.Sla.stats;  (* of the crash run *)
  t_latencies : float list;
  t_overhead : float;  (* crash-free capri cycles / volatile cycles *)
  t_recovery_cycles : int;
  t_exec_instrs : int;  (* simulated by the crash-free and volatile runs *)
}

let service_trial w s (cfg : Server.cfg) =
  let t =
    Span.with_ ~layer:l_server ~name:"Server.plan" (fun () -> Server.plan cfg)
  in
  (* traced passes only: re-run the two halves of Server.plan on the
     plan's own inputs, so the span splits into store build and compile *)
  if !Span.on then
    Span.with_ ~layer:l_split ~name:"split Server.plan" (fun () ->
        let kv = t.kv in
        let kv' =
          Span.with_ ~layer:l_kvstore ~name:"Kvstore.build" (fun () ->
              Svc.Kvstore.build ~batch:kv.batch ~txns:kv.txns ?sched:kv.sched
                ~preload:kv.preload ~key_space:kv.key_space
                ~requests:kv.requests ())
        in
        ignore
          (Span.with_ ~layer:l_compiler ~name:"Pipeline.compile (split)"
             (fun () -> Capri.Pipeline.compile cfg.options kv'.program)));
  let reference =
    exec ~name:"Server.run (reference)" (fun () -> Server.run t)
  in
  let volatile =
    exec ~name:"Server.run volatile" (fun () ->
        let cfg = { t.cfg with mode = Capri.Persist.Volatile } in
        Server.run { t with cfg })
  in
  let crash_at = w.schedule reference.result.instrs in
  let outcome =
    Span.with_ ~layer:l_recovery ~name:"Server.run crash" (fun () ->
        Server.run ~crash_at t)
  in
  match
    Span.with_ ~layer:l_sla ~name:"Server.check" (fun () ->
        Server.check t outcome)
  with
  | Error v ->
    Error (Format.asprintf "Sla violation: %a" Svc.Sla.pp_violation v)
  | Ok () ->
    Span.with_ ~layer:l_sla ~name:"Server.stats" (fun () ->
        let stats = Server.stats t outcome in
        let views, _ = Server.views t outcome in
        let latencies =
          Array.fold_left
            (fun acc stream ->
              List.rev_append
                (List.map float_of_int
                   (Svc.Sla.request_latencies ~loop:cfg.client.loop stream))
                acc)
            [] views
        in
        add_compiled s t.compiled;
        add_run s ~ops:(Server.stats t reference).ops reference.result;
        add s "recovery_blocks" outcome.recovery_blocks;
        add s "journal_tail" outcome.recovery_tail;
        add s "replayed" outcome.recovery_replayed;
        add s "txn_commits" stats.txn_commits;
        add s "txn_aborts" stats.txn_aborts;
        Ok
          {
            t_stats = stats;
            t_latencies = latencies;
            t_overhead = ratio reference.cycles volatile.cycles;
            t_recovery_cycles = outcome.recovery_cycles;
            t_exec_instrs = reference.result.instrs + volatile.result.instrs;
          })

let service_pass w tally cfgs =
  let s : sums = Hashtbl.create 32 in
  let trials = ref [] in
  List.iteri
    (fun i ((cfg : Server.cfg), (workload : Svc.Client.workload)) ->
      Span.with_trial i @@ fun () ->
      let ops =
        Array.fold_left (fun a r -> a + Array.length r) 0 workload.requests
      in
      tally.attempted <- tally.attempted + ops;
      match service_trial w s cfg with
      | Ok tr -> trials := tr :: !trials
      | Error reason -> fail tally reason ops
      | exception e -> fail tally (reason_of_exn e) ops)
    cfgs;
  let trials = List.rev !trials in
  let sum f = List.fold_left (fun a tr -> a + f tr) 0 trials in
  let (mean, p99), lat_note =
    latency_metrics (List.concat_map (fun tr -> tr.t_latencies) trials)
  in
  let cycles = sum (fun tr -> tr.t_stats.cycles) in
  let recovery_cycles = sum (fun tr -> tr.t_recovery_cycles) in
  let recoveries = sum (fun tr -> tr.t_stats.recoveries) in
  let sim =
    [
      ( "sim_overhead_x",
        Stat.geomean (List.map (fun tr -> tr.t_overhead) trials) );
      ( "sim_tput_ops_kcyc",
        1000.0 *. ratio (sum (fun tr -> tr.t_stats.ops)) cycles );
      ("sim_mean_cycles", mean);
      ("sim_p99_cycles", p99);
      ("sim_recovery_cycles", ratio recovery_cycles recoveries);
      ( "sim_availability_pct",
        100.0 *. (1.0 -. ratio recovery_cycles cycles) );
    ]
  in
  let notes =
    [
      "sim_overhead_x: crash-free capri cycles / volatile cycles, gmean over \
       request streams";
      "sim_mean/p99_cycles: closed-loop request latency (inter-ack gap) in \
       the crash runs; " ^ lat_note;
      Printf.sprintf
        "streams %d, recoveries %d, txns committed %d / aborted %d"
        (List.length trials) recoveries (get s "txn_commits")
        (get s "txn_aborts");
    ]
  in
  {
    sim;
    counters = counters s;
    exec_instrs = sum (fun tr -> tr.t_exec_instrs);
    notes;
  }

(* ------------------------------------------------------------------ *)
(* Main loop.                                                          *)
(* ------------------------------------------------------------------ *)

(* Each workload's setup makes its inputs from the seed and returns the
   pass to repeat. *)
let workloads : (string * (int -> tally -> pass)) list =
  [
    ( "fig8",
      fun seed ->
        let kernels = fig8_setup seed in
        fun tally -> fig8_pass tally kernels );
    ( "serve-txn",
      fun seed ->
        let cfgs = service_setup serve_txn seed in
        fun tally -> service_pass serve_txn tally cfgs );
    ( "recover-100k",
      fun seed ->
        let cfgs = service_setup recover_100k seed in
        fun tally -> service_pass recover_100k tally cfgs );
  ]

let setup_reps = 9

let median = Stat.percentile 50.0

type measured = {
  traced : bool;
  wall : float;
  mwords : float;
  result : pass;
  spans : Span.t list;  (* this pass's spans, root included; [] untraced *)
}

let run_pass ~traced tally pass =
  Span.on := traced;
  let before = List.length !Span.finished in
  let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
  let result =
    if traced then
      Span.with_ ~layer:l_bench ~name:"pass" (fun () -> pass tally)
    else pass tally
  in
  let t1 = Unix.gettimeofday () and w1 = Gc.minor_words () in
  Span.on := false;
  let fresh = List.length !Span.finished - before in
  let spans = List.filteri (fun i _ -> i < fresh) !Span.finished in
  { traced; wall = t1 -. t0; mwords = (w1 -. w0) /. 1e6; result; spans }

(* Per-layer host metrics of one traced pass. *)
let host_layers (m : measured) =
  let sum pred f =
    List.fold_left (fun a s -> if pred s then a +. f s else a) 0.0 m.spans
  in
  let in_layer l (s : Span.t) = s.layer = l in
  let dur l = sum (in_layer l) Span.duration in
  let mwords l = sum (in_layer l) Span.words /. 1e6 in
  let count l = sum (in_layer l) (fun _ -> 1.0) in
  let selfs = Span.self m.spans in
  let self l =
    List.fold_left
      (fun a ((s : Span.t), t) -> if s.layer = l then a +. t else a)
      0.0 selfs
  in
  let named n = sum (fun s -> s.name = n) Span.duration in
  let reference_runs =
    sum
      (fun s ->
        s.layer = l_exec && String.ends_with ~suffix:"(reference)" s.name)
      Span.duration
  in
  let exec_s = dur l_exec in
  [
    ("compiler.compile_s", dur l_compiler);
    ("compiler.compile_mwords", mwords l_compiler);
    ("compiler.calls", count l_compiler);
    ("service.kvstore.build_s", dur l_kvstore);
    ("service.kvstore.build_mwords", mwords l_kvstore);
    ("service.server.plan_s", dur l_server);
    ( "service.server.plan_other_s",
      if dur l_server = 0.0 then 0.0
      else dur l_server -. dur l_kvstore -. named "Pipeline.compile (split)" );
    ("runtime.executor.run_s", exec_s);
    ("runtime.executor.run_mwords", mwords l_exec);
    ( "runtime.executor.host_ns_per_sim_instr",
      if m.result.exec_instrs = 0 then 0.0
      else exec_s *. 1e9 /. float_of_int m.result.exec_instrs );
    ("runtime.recovery.crash_extra_s", dur l_recovery -. reference_runs);
    ("service.sla.check_s", named "Server.check");
    ( "service.sla.check_mwords",
      sum (fun s -> s.name = "Server.check") Span.words /. 1e6 );
    ("runtime.verify.check_s", dur l_verify);
    ("bench.split_s", dur l_split);
  ]
  @ List.map (fun l -> (l ^ ".self_s", self l)) self_layers
  @ [
      ("trace.spans", float_of_int (List.length m.spans));
      (* share of the pass spent inside timed layer calls *)
      ("trace.layer_self_frac", 1.0 -. (self l_bench /. m.wall));
    ]

let units name =
  let ends s = String.ends_with ~suffix:s name in
  if ends "_mwords" then "Mwords"
  else if ends "_s" then "s"
  else if ends "_frac" then "frac"
  else if ends "_cycles" then "cycles"
  else if ends "_ns_per_sim_instr" then "ns"
  else if ends "instrs_per_op" then "instrs/op"
  else "count"

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let usage () =
  Printf.eprintf
    "usage: perfbench --workload %s --seed N --seconds S --trace 0|1\n"
    (String.concat "|" (List.map fst workloads));
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref 0 in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string_opt v;
      parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
      trace := int_of_string v;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let setup, seed, seconds =
    match (List.assoc_opt !workload workloads, !seed, !seconds) with
    | Some f, Some seed, Some s when s > 0.0 -> (f, seed, s)
    | _ -> usage ()
  in
  let trace = !trace = 1 in
  let tally = { attempted = 0; failures = Hashtbl.create 4 } in
  (* set up repeatedly (at least [setup_reps] times and a quarter of a
     second) and report the median; the last set-up's inputs are used *)
  Span.on := trace;
  let setup_times = ref [] and pass = ref None in
  while
    List.length !setup_times < setup_reps
    || List.fold_left ( +. ) 0.0 !setup_times < 0.25
  do
    let t0 = Unix.gettimeofday () in
    pass :=
      Some (Span.with_ ~layer:l_workloads ~name:"setup" (fun () -> setup seed));
    setup_times := (Unix.gettimeofday () -. t0) :: !setup_times
  done;
  Span.on := false;
  let setup_s = median !setup_times in
  let pass = Option.get !pass in
  let start = Unix.gettimeofday () in
  let runs = ref [] and peak_heap = ref 0 in
  let count traced =
    List.length (List.filter (fun m -> m.traced = traced) !runs)
  in
  let enough () =
    Unix.gettimeofday () -. start >= seconds
    && count false >= 3
    && ((not trace) || count true >= 3)
  in
  while not (enough ()) do
    let traced = trace && List.length !runs mod 2 = 1 in
    runs := run_pass ~traced tally pass :: !runs;
    if !peak_heap = 0 then peak_heap := (Gc.quick_stat ()).top_heap_words
  done;
  let runs = List.rev !runs in
  let untraced = List.filter (fun m -> not m.traced) runs in
  let first = (List.hd runs).result in
  (* the simulated side must be identical in every pass *)
  let digest_of (p : pass) =
    Digest.to_hex
      (Digest.string
         (String.concat ";"
            (List.map
               (fun (k, v) -> k ^ "=" ^ json_number v)
               (p.sim @ p.counters))))
  in
  let digest = digest_of first in
  let deterministic =
    List.for_all (fun m -> digest_of m.result = digest) runs
  in
  let walls = List.map (fun m -> m.wall) untraced in
  let host_wall_s = median walls in
  let end_to_end =
    [
      ("setup_s", setup_s, "s");
      ("host_wall_s", host_wall_s, "s");
      ( "host_alloc_mwords",
        median (List.map (fun m -> m.mwords) untraced),
        "Mwords" );
      ( "host_peak_heap_mb",
        float_of_int (!peak_heap * (Sys.word_size / 8)) /. 1e6,
        "MB" );
    ]
    @ List.map
        (fun (k, v) ->
          let unit =
            match k with
            | "sim_overhead_x" -> "x"
            | "sim_tput_ops_kcyc" -> "ops/kcycle"
            | "sim_availability_pct" -> "%"
            | _ -> "cycles"
          in
          (k, v, unit))
        first.sim
  in
  let per_layer =
    if not trace then []
    else begin
      let traced = List.filter (fun m -> m.traced) runs in
      let host = List.map host_layers traced in
      let med name = median (List.map (List.assoc name) host) in
      let traced_wall = median (List.map (fun m -> m.wall) traced) in
      let split = med "bench.split_s" in
      let names = List.map fst (List.hd host) in
      List.map (fun n -> (n, med n, units n)) names
      @ [
          ("workloads.setup_s", setup_s, "s");
          ("trace.traced_wall_s", traced_wall, "s");
          ("trace.untraced_wall_s", host_wall_s, "s");
          ("trace.overhead_s", traced_wall -. split -. host_wall_s, "s");
        ]
      @ List.map (fun (k, v) -> (k, v, units k)) first.counters
    end
  in
  let trace_file =
    if not trace then None
    else begin
      let dir = ".perfbench" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let file =
        Printf.sprintf "%s/trace-%s-seed%d.json" dir !workload seed
      in
      Out_channel.with_open_text file (fun oc ->
          output_string oc (Span.to_chrome_json (Span.all ())));
      Some file
    end
  in
  let failed = failed tally in
  (* human-readable report *)
  Printf.printf "perfbench %s seed %d: %d passes (%d traced) in %.1f s\n"
    !workload seed (List.length runs) (List.length runs - List.length untraced)
    (Unix.gettimeofday () -. start);
  List.iter
    (fun (k, v, u) -> Printf.printf "  %-24s %14.6g %s\n" k v u)
    end_to_end;
  Printf.printf "  host_wall_s over %d untraced passes: min %.4f max %.4f\n"
    (List.length walls) (List.fold_left Float.min infinity walls)
    (List.fold_left Float.max neg_infinity walls);
  List.iter (fun n -> Printf.printf "  %s\n" n) first.notes;
  Printf.printf "  failed %d of %d attempted (failed_frac %g)\n" failed
    tally.attempted
    (ratio failed tally.attempted);
  Hashtbl.iter
    (fun r n -> Printf.printf "    failure: %d x %s\n" n r)
    tally.failures;
  Printf.printf "  sim digest %s (%s across passes)\n" digest
    (if deterministic then "identical" else "DIFFERS");
  if per_layer <> [] then begin
    print_endline "  per layer (medians over traced passes):";
    List.iter
      (fun (k, v, u) -> Printf.printf "    %-40s %14.6g %s\n" k v u)
      per_layer
  end;
  Option.iter (Printf.printf "  span file %s\n") trace_file;
  let metrics = if trace then per_layer else end_to_end in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0 && deterministic) tally.attempted failed
    (String.concat ", "
       (List.map
          (fun (k, v, u) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" k
              (json_number v) u)
          metrics))
