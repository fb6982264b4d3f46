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
   that measurement plus 20%. Raise it only with a CHANGES.md line that
   explains why. Runs as part of `dune runtest`. *)

open Capri
module W = Capri_workloads

let budget_words_per_instr = 1.06

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
  if per_instr > budget_words_per_instr then begin
    prerr_endline "alloc-budget: over budget";
    exit 1
  end
