(* alloc-budget: the simulator step must stay allocation-free. Compile a
   fixed set of bench-scale kernels (default options, threshold 256),
   run each crash-free in Capri mode, and divide the minor words
   [Executor.run] allocates by the instructions it simulates. Four runs
   take the paper's hardware model (conflict fence off); a second ocean
   run (4 threads) turns the fence on, which adds the per-store conflict
   probe. Allocation repeats exactly within a build profile, so the check
   is deterministic. Local closures, option and tuple results and
   per-item boxes on the cache, hierarchy and persist paths cost 7.97
   words per instruction here; without them 0.88, nearly all of it proxy
   entries (two line copies and a record, 28 words each: the model's
   data) and the compiled tier's per-session closures. The budget is
   that measurement plus 20%. Copy-on-write memory pages later moved
   each page's first-write clone into the run (0.90). Raise a budget
   only with a CHANGES.md line that explains why.

   A second budget holds restarts to page-table copies. On a store
   bulk-loaded with 10^5 keys it counts every word allocated, minor and
   major, by [Executor.start], one crash (the run up to it, recovery,
   recovery-block replay) and [Executor.resume], and divides by the
   present lines of the crash image. Copying the durable image at the
   crash, at the resume and again into each session's NVM cost 77.2
   words per line; sharing copy-on-write pages costs 14.1, most of it
   the loader's pages. The budget is that measurement plus 20%.

   Runs as part of `dune runtest`. *)

open Capri
module W = Capri_workloads
module Svc = Capri_service

let budget_words_per_instr = 1.06
let budget_restart_words_per_line = 16.9

let runs =
  [
    ("505.mcf_r", false);
    ("intruder", false);
    ("ocean", false);
    ("water-nsquared", false);
    ("ocean", true);
  ]

(* Minor words allocated by [Executor.run] and instructions simulated. *)
let measure (name, fence) =
  let k = W.Suite.by_name ~scale:W.Suite.bench_scale name in
  let program = (compile k.W.Kernel.program).Compiled.program in
  let config = { Config.sim_default with Config.conflict_fence = fence } in
  let session =
    Executor.start ~config ~mode:Persist.Capri ~program
      ~threads:k.W.Kernel.threads ()
  in
  let before = Gc.minor_words () in
  let instrs =
    match Executor.run session with
    | Executor.Finished r -> r.Executor.instrs
    | Executor.Crashed _ -> assert false
  in
  (Gc.minor_words () -. before, instrs)

(* Words allocated, minor plus major, by one store's start, crash and
   resume, and the present lines of its crash image. *)
let restart () =
  let keys = 100_000 in
  let workload =
    Svc.Client.generate
      { Svc.Client.default with Svc.Client.mix = Svc.Client.B;
        key_space = keys; ops_per_shard = 200 }
      ~shards:1
  in
  let kv =
    Svc.Kvstore.build
      ~preload:(Svc.Kvstore.synthetic_preload ~shards:1 ~keys)
      ~key_space:keys ~requests:workload.Svc.Client.requests ()
  in
  let compiled = compile kv.Svc.Kvstore.program in
  let threads = Svc.Kvstore.thread_specs kv in
  let allocated () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let before = allocated () in
  let session =
    Executor.start ~journal_io:true ~program:compiled.Compiled.program
      ~threads ()
  in
  let image =
    match Executor.run ~crash_at_instr:2_000 session with
    | Executor.Crashed c -> c.Executor.image
    | Executor.Finished _ -> assert false
  in
  ignore (Recovery.apply_recovery_blocks_per_core compiled image);
  ignore (Executor.resume ~journal_io:true ~compiled ~image ~threads ());
  (allocated () -. before, Memory.present_lines image.Persist.nvm)

let () =
  let words, instrs =
    List.fold_left
      (fun (w, n) ((name, fence) as run) ->
        let rw, ri = measure run in
        Printf.printf "alloc-budget: %-16s fence=%-5b %9d instrs %6.2f words/instr\n"
          name fence ri (rw /. float_of_int ri);
        (w +. rw, n + ri))
      (0., 0) runs
  in
  let per_instr = words /. float_of_int instrs in
  Printf.printf "alloc-budget: %.0f words over %d instrs = %.3f words/instr \
                 (budget %.2f)\n" words instrs per_instr budget_words_per_instr;
  let rwords, lines = restart () in
  let per_line = rwords /. float_of_int lines in
  Printf.printf "alloc-budget: restart %.0f words over %d lines = %.2f \
                 words/line (budget %.2f)\n" rwords lines per_line
    budget_restart_words_per_line;
  if per_instr > budget_words_per_instr then
    prerr_endline "alloc-budget: simulator step over budget";
  if per_line > budget_restart_words_per_line then
    prerr_endline "alloc-budget: restart over budget";
  if
    per_instr > budget_words_per_instr
    || per_line > budget_restart_words_per_line
  then exit 1
