(* End-to-end crash/recovery scenarios beyond the generic sweeps:
   crash timing edge cases, recovery-block execution, resumed sessions,
   and multithreaded recovery. *)

open Capri
open Helpers
module W = Capri_workloads

(* Crash at every dynamic instruction; [blocks] accumulates the
   recovery blocks the sweep replayed. *)
let exhaustive_sweep ?(blocks = ref 0) name compiled threads =
  let reference = Verify.reference ~threads compiled in
  for at = 1 to reference.Executor.instrs - 1 do
    let result, _, replayed =
      Verify.run_with_crashes ~threads ~crash_at:[ at ] compiled
    in
    blocks := !blocks + replayed;
    match Verify.check_equivalence ~reference ~candidate:result with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: crash at %d: %s" name at e
  done

let test_crash_at_first_instruction () =
  let program, _ = sum_program ~n:5 () in
  let compiled = compile program in
  let reference = Verify.reference compiled in
  let result, recoveries, _ =
    Verify.run_with_crashes ~crash_at:[ 1 ] compiled
  in
  Alcotest.(check int) "one recovery" 1 recoveries;
  match Verify.check_equivalence ~reference ~candidate:result with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_crash_after_halt_is_noop () =
  let program, _ = sum_program ~n:5 () in
  let compiled = compile program in
  let reference = Verify.reference compiled in
  (* Crash point beyond the program: the run simply finishes. *)
  let result, recoveries, _ =
    Verify.run_with_crashes
      ~crash_at:[ reference.Executor.instrs * 2 ]
      compiled
  in
  Alcotest.(check int) "no recovery" 0 recoveries;
  match Verify.check_equivalence ~reference ~candidate:result with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_exhaustive_small_programs () =
  let p1, _ = sum_program ~n:6 () in
  exhaustive_sweep "sum" (compile p1) [ Executor.main_thread p1 ];
  let p2 = fib_program ~n:5 () in
  exhaustive_sweep "fib" (compile p2) [ Executor.main_thread p2 ];
  let p3, _, _ = mixed_program ~n:5 () in
  exhaustive_sweep "mixed" (compile p3) [ Executor.main_thread p3 ]

let test_exhaustive_small_threshold () =
  (* Small thresholds mean many regions and commits: different crash
     surface. *)
  let program, _, _ = mixed_program ~n:6 () in
  let options =
    Capri_compiler.Options.with_threshold 8 Capri_compiler.Options.default
  in
  let compiled = Pipeline.compile options program in
  exhaustive_sweep "mixed@8" compiled [ Executor.main_thread program ]

let test_triple_crash () =
  let program, _ = sum_program ~n:20 () in
  let compiled = compile program in
  let reference = Verify.reference compiled in
  let n = reference.Executor.instrs in
  let result, recoveries, _ =
    Verify.run_with_crashes ~crash_at:[ n / 4; n / 4; n / 4 ] compiled
  in
  Alcotest.(check int) "three recoveries" 3 recoveries;
  match Verify.check_equivalence ~reference ~candidate:result with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_multithreaded_recovery () =
  (* Barriered multithreaded kernel: all cores lose power at once and all
     resume from their own boundaries. *)
  let k = W.Splash3.ocean ~threads:4 ~scale:2 () in
  let compiled = compile k.W.Kernel.program in
  let reference = Verify.reference ~threads:k.W.Kernel.threads compiled in
  let n = reference.Executor.instrs in
  List.iter
    (fun at ->
      let result, _, _ =
        Verify.run_with_crashes ~threads:k.W.Kernel.threads ~crash_at:[ at ]
          compiled
      in
      match Verify.check_equivalence ~reference ~candidate:result with
      | Ok () -> ()
      | Error e -> Alcotest.failf "crash at %d: %s" at e)
    [ 1; n / 7; n / 3; n / 2; (2 * n) / 3; n - 2 ]

let test_resume_restores_registers () =
  (* After recovery, a register live at the resume boundary holds the
     value the slot array recorded (not the pre-crash garbage): the
     resumed run completes with the correct final value. *)
  let program, cell = sum_program ~n:40 () in
  let compiled = compile program in
  let r, recoveries, _ =
    Verify.run_with_crashes ~mode:Persist.Capri ~crash_at:[ 60 ] compiled
  in
  Alcotest.(check int) "crashed once" 1 recoveries;
  Alcotest.(check int) "final cell" 780 (Memory.read r.Executor.memory cell)

let test_never_started_core_restarts () =
  (* Crash before a worker reaches its first boundary: it restarts from
     scratch with its original arguments (durable initial context). *)
  let k = W.Splash3.raytrace ~threads:2 ~scale:1 () in
  let compiled = compile k.W.Kernel.program in
  let reference = Verify.reference ~threads:k.W.Kernel.threads compiled in
  let result, _, _ =
    Verify.run_with_crashes ~threads:k.W.Kernel.threads ~crash_at:[ 1 ]
      compiled
  in
  match Verify.check_equivalence ~reference ~candidate:result with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* The paper's Figure 3 shape: a diamond whose arms redefine r2 from
   values the pruning pass can recompute, so compiled under [threshold]
   it carries recovery blocks. Without [store_in_region_1] the region
   ahead of the pruned boundary holds no store, is elided, and never
   moves the resume record onto that boundary, so no crash runs the
   blocks; with it that region commits and late crashes do. *)
let figure3_compiled ?(store_in_region_1 = false) threshold =
  let b = Builder.create () in
  let data = Builder.alloc_init b [| 9; 4; 0; 0 |] in
  let f = Builder.func b "main" in
  let left = Builder.block f "left" in
  let right = Builder.block f "right" in
  let mid = Builder.block f "mid" in
  Builder.li f (r 9) data;
  Builder.load f (r 1) ~base:(r 9) ~off:0 ();
  Builder.load f (r 3) ~base:(r 9) ~off:1 ();
  Builder.fence f;
  Builder.binop f Instr.Lt (r 4) (im 6) (rg 1);
  if store_in_region_1 then Builder.store f ~base:(r 9) ~off:3 (rg 4);
  Builder.branch f (rg 4) left right;
  Builder.switch f left;
  Builder.mul f (r 2) (rg 3) (rg 3);
  Builder.jump f mid;
  Builder.switch f right;
  Builder.sub f (r 2) (rg 1) (rg 3);
  Builder.jump f mid;
  Builder.switch f mid;
  Builder.fence f;
  Builder.store f ~base:(r 9) ~off:2 (rg 2);
  Builder.out f (rg 2);
  Builder.halt f;
  let program = Builder.finish b ~main:"main" in
  let options =
    Capri_compiler.Options.with_threshold threshold
      { Capri_compiler.Options.up_to_prune with
        Capri_compiler.Options.unroll = false }
  in
  (program, Pipeline.compile options program)

let test_recovery_block_exhaustive () =
  (* Pruned programs crash-swept at every dynamic instruction under a
     couple of thresholds; with a store in region 1, late crashes replay
     recovery blocks. *)
  let blocks = ref 0 in
  List.iter
    (fun (threshold, store_in_region_1) ->
      let program, compiled = figure3_compiled ~store_in_region_1 threshold in
      Alcotest.(check bool) "pruned" true
        (compiled.Compiled.prune_report.Capri_compiler.Prune.ckpts_pruned > 0);
      exhaustive_sweep ~blocks
        (Printf.sprintf "figure3@%d%s" threshold
           (if store_in_region_1 then "+store" else ""))
        compiled
        [ Executor.main_thread program ])
    [ (16, false); (256, false); (16, true); (256, true) ];
  Alcotest.(check bool) "the sweep replayed recovery blocks" true (!blocks > 0)

let test_on_recover_hook () =
  (* [on_recover] fires once per fired crash, in schedule order, with
     per-core block counts that sum to the returned total; a crash point
     past the end of the run fires nothing. Swept over a pruned Figure 3
     program whose late crashes really run blocks. *)
  let _, compiled = figure3_compiled ~store_in_region_1:true 16 in
  let n = (Verify.reference compiled).Executor.instrs in
  let blocks_seen = ref 0 in
  for at = 1 to n - 1 do
    let log = ref [] in
    let on_recover (c : Executor.crash) per_core =
      log := (c.Executor.at_instr, Array.fold_left ( + ) 0 per_core) :: !log
    in
    let _, recoveries, blocks =
      Verify.run_with_crashes ~on_recover ~crash_at:[ at; 1; 10 * n ]
        compiled
    in
    let log = List.rev !log in
    Alcotest.(check int) "two recoveries" 2 recoveries;
    Alcotest.(check (list int)) "fired in schedule order" [ at; 1 ]
      (List.map fst log);
    Alcotest.(check int) "per-core counts sum to the total" blocks
      (List.fold_left (fun acc (_, b) -> acc + b) 0 log);
    blocks_seen := !blocks_seen + blocks
  done;
  Alcotest.(check bool) "some recovery ran blocks" true (!blocks_seen > 0)

let test_crash_at_instruction_zero () =
  (* Power failure before a single instruction executes: recovery must
     restart from the entry boundary with the loader's data image
     intact. Exercised in every crash-recoverable mode — Redo_nowb once
     lost the initial image here because the loader seeded NVM through
     the writeback path that mode deliberately drops. *)
  let program, cell = sum_program ~n:7 () in
  let compiled = compile program in
  List.iter
    (fun mode ->
      let reference = Verify.reference ~mode compiled in
      let result, recoveries, _ =
        Verify.run_with_crashes ~mode ~crash_at:[ 0 ] compiled
      in
      Alcotest.(check int) "one recovery" 1 recoveries;
      (match Verify.check_equivalence ~reference ~candidate:result with
       | Ok () -> ()
       | Error e ->
         Alcotest.failf "mode %s: %s" (Persist.mode_name mode) e);
      Alcotest.(check int) "final cell" 21
        (Memory.read result.Executor.memory cell))
    (List.filter Persist.recoverable Persist.all_modes)

let test_two_crashes_same_region () =
  (* The second crash lands one instruction into the replay of the
     region the first crash interrupted: the same region is rolled back
     and re-entered twice. Swept across the whole program so every
     region gets re-interrupted. *)
  let program, _ = sum_program ~n:10 () in
  let compiled = compile program in
  let reference = Verify.reference compiled in
  let n = reference.Executor.instrs in
  let at = ref 1 in
  while !at < n do
    List.iter
      (fun second ->
        let result, recoveries, _ =
          Verify.run_with_crashes ~crash_at:[ !at; second ] compiled
        in
        Alcotest.(check int)
          (Printf.sprintf "two recoveries @%d+%d" !at second)
          2 recoveries;
        match Verify.check_equivalence ~reference ~candidate:result with
        | Ok () -> ()
        | Error e -> Alcotest.failf "crash [%d;%d]: %s" !at second e)
      [ 1; 3 ];
    at := !at + 5
  done

let test_crash_inside_recovery_replay () =
  (* Crash, run the software recovery blocks, resume — and crash again
     almost immediately, before the replayed region can reach its next
     boundary. The second recovery must rebuild from the same resume
     record without double-applying anything. [on_recover] logs each
     recovery as it completes, so the log shows the recovery-block pass
     ran between the two failures. *)
  let program, cell = sum_program ~n:30 () in
  let compiled = compile program in
  let reference = Verify.reference compiled in
  let first = reference.Executor.instrs / 2 in
  let log = ref [] in
  let on_recover (c : Executor.crash) _ =
    log := c.Executor.at_instr :: !log
  in
  let r, recoveries, _ =
    Verify.run_with_crashes ~on_recover ~crash_at:[ first; 1 ] compiled
  in
  Alcotest.(check int) "two crashes" 2 recoveries;
  Alcotest.(check (list int)) "recovered after each failure, in order"
    [ first; 1 ] (List.rev !log);
  Alcotest.(check int) "final cell" 435 (Memory.read r.Executor.memory cell);
  match Verify.check_equivalence ~reference ~candidate:r with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_crash_after_core_halts () =
  (* Multi-core: crash while one core has already finished and others
     are still running. The finished core's architected context is
     durable (the halt path stages the full register file with its
     final region), so the resumed session reports its true final
     registers instead of a zeroed file. *)
  let prog = Capri_workloads.Gen.generate ~cores:3 8 in
  let program, threads = Capri_workloads.Gen.lower prog in
  let compiled = compile program in
  let reference = Verify.reference ~threads compiled in
  let n = reference.Executor.instrs in
  List.iter
    (fun mode ->
      (* late crash points: some land after the short workers halt *)
      List.iter
        (fun at ->
          let result, _, _ =
            Verify.run_with_crashes ~mode ~threads ~crash_at:[ at ] compiled
          in
          match Verify.check_equivalence ~reference ~candidate:result with
          | Ok () -> ()
          | Error e ->
            Alcotest.failf "mode %s, crash at %d: %s"
              (Persist.mode_name mode)
              at e)
        [ (3 * n) / 4; n - 10; n - 2 ])
    (List.filter Persist.recoverable Persist.all_modes)

let suite =
  [
    Alcotest.test_case "crash at instruction 1" `Quick
      test_crash_at_first_instruction;
    Alcotest.test_case "crash at instruction 0" `Quick
      test_crash_at_instruction_zero;
    Alcotest.test_case "two crashes in the same region" `Quick
      test_two_crashes_same_region;
    Alcotest.test_case "crash inside recovery replay" `Quick
      test_crash_inside_recovery_replay;
    Alcotest.test_case "crash after a core halts" `Quick
      test_crash_after_core_halts;
    Alcotest.test_case "crash beyond halt" `Quick test_crash_after_halt_is_noop;
    Alcotest.test_case "exhaustive sweeps (small programs)" `Quick
      test_exhaustive_small_programs;
    Alcotest.test_case "exhaustive sweep, threshold 8" `Quick
      test_exhaustive_small_threshold;
    Alcotest.test_case "triple crash" `Quick test_triple_crash;
    Alcotest.test_case "multithreaded recovery" `Quick
      test_multithreaded_recovery;
    Alcotest.test_case "on_recover per fired crash" `Quick
      test_on_recover_hook;
    Alcotest.test_case "resume restores live registers" `Quick
      test_resume_restores_registers;
    Alcotest.test_case "never-started cores restart" `Quick
      test_never_started_core_restarts;
    Alcotest.test_case "recovery blocks, exhaustive" `Quick
      test_recovery_block_exhaustive;
  ]
