(* Shared machinery for the experiment harness: compile/run kernels under
   a configuration, cache the volatile baselines, and fan measurements out
   over a domain pool. *)

open Capri
module W = Capri_workloads
module Pool = Capri_util.Pool

type measurement = {
  kernel : W.Kernel.t;
  baseline_cycles : int;
  cycles : int;
  result : Executor.result;
  compiled : Compiled.t;
}

let normalized m = float_of_int m.cycles /. float_of_int m.baseline_cycles

(* ------------------------------------------------------------------ *)
(* Parallel fan-out.                                                   *)
(* ------------------------------------------------------------------ *)

(* One process-wide pool, installed by the harness entry point. Every
   measurement below is an independent task: kernels are compiled from
   scratch per measurement (Pipeline.compile copies the program) and each
   run owns its session, so the only shared mutable state is the baseline
   cache, which is mutex-protected. [par_map] preserves input order, and
   with jobs = 1 the pool runs tasks eagerly in submission order, so the
   printed tables are byte-identical at any job count. *)
let pool : Pool.t option ref = ref None

let init ~jobs = pool := Some (Pool.create ~jobs ())

let shutdown () =
  (match !pool with Some p -> Pool.shutdown p | None -> ());
  pool := None

let jobs () = match !pool with Some p -> Pool.jobs p | None -> 1

let par_map f xs =
  match !pool with Some p -> Pool.map_list p f xs | None -> List.map f xs

(* ------------------------------------------------------------------ *)
(* Volatile baselines.                                                 *)
(* ------------------------------------------------------------------ *)

let baseline_cache : (string, int) Hashtbl.t = Hashtbl.create 32
let baseline_mutex = Mutex.create ()

let baseline_cycles (k : W.Kernel.t) =
  let name = k.W.Kernel.name in
  let cached =
    Mutex.protect baseline_mutex (fun () ->
        Hashtbl.find_opt baseline_cache name)
  in
  match cached with
  | Some c -> c
  | None ->
    (* Simulate outside the lock; the run is deterministic, so a racing
       duplicate computes the same value. *)
    let r = run_volatile ~threads:k.W.Kernel.threads k.W.Kernel.program in
    Mutex.protect baseline_mutex (fun () ->
        match Hashtbl.find_opt baseline_cache name with
        | Some c -> c
        | None ->
          Hashtbl.replace baseline_cache name r.Executor.cycles;
          r.Executor.cycles)

let prewarm_baselines kernels =
  (* One parallel pass before a fan-out so concurrent measurements never
     duplicate a baseline simulation. *)
  ignore (par_map baseline_cycles kernels)

let measure ?(mode = Persist.Capri) ?(config = Config.sim_default)
    ?(fence = false) ~(options : Options.t) (k : W.Kernel.t) =
  let compiled = Pipeline.compile options k.W.Kernel.program in
  (* Timing comparisons against the paper run with the conflict fence off:
     the paper's hardware has no such mechanism (it leaves multi-core
     crash interleavings open). Crash-correctness tests keep it on. *)
  let config =
    { (Config.with_threshold options.Options.threshold config) with
      Config.conflict_fence = fence }
  in
  let result = run ~config ~mode ~threads:k.W.Kernel.threads compiled in
  {
    kernel = k;
    baseline_cycles = baseline_cycles k;
    cycles = result.Executor.cycles;
    result;
    compiled;
  }

(* Section 6.2: "we synergically applied compiler optimizations ... and
   plotted the best combination of them". Same here: the per-benchmark
   result is the fastest of the accumulative optimization configurations
   at the given threshold. The candidates are independent runs, so they
   fan out too; the fold keeps the earliest candidate on ties, exactly as
   the sequential version did. *)
let measure_best ?(mode = Persist.Capri) ?(config = Config.sim_default)
    ?fence ~threshold (k : W.Kernel.t) =
  let candidates =
    List.map
      (fun (_, options) -> Options.with_threshold threshold options)
      (List.filteri (fun i _ -> i > 0) Options.fig9_configs)
  in
  let ms =
    par_map (fun options -> measure ~mode ~config ?fence ~options k) candidates
  in
  List.fold_left
    (fun best m ->
      match best with
      | Some b when b.cycles <= m.cycles -> Some b
      | Some _ | None -> Some m)
    None ms
  |> Option.get

(* Kernels in the paper's Figure 8 order, with per-suite splits. *)
let kernels ~scale = W.Suite.all ~scale ()

let suite_of (k : W.Kernel.t) = k.W.Kernel.suite

let suite_rows measurements =
  (* Per-benchmark rows followed by per-suite geomeans and the overall
     geomean, mirroring the layout of Figures 8-11. *)
  let geo suite =
    Capri_util.Stat.geomean
      (List.filter_map
         (fun (m, v) ->
           if suite_of m.kernel = suite then Some v else None)
         measurements)
  in
  let overall = Capri_util.Stat.geomean (List.map snd measurements) in
  ( geo W.Kernel.Spec, geo W.Kernel.Stamp, geo W.Kernel.Splash3, overall )
