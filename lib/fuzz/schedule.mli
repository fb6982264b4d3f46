(** Systematic crash-schedule enumeration for the fuzzer.

    A schedule is a [crash_at] list for {!Capri_runtime.Verify.run_with_crashes}:
    each element crashes the running session once it has executed that
    many instructions; subsequent elements apply to the resumed run, so
    small second elements land inside the recovery replay of the first
    crash's interrupted region. *)

type info = {
  total : int;  (** dynamic instruction count of the crash-free run *)
  boundaries : int list;  (** ascending boundary instruction indices *)
}

val observe :
  ?config:Capri_arch.Config.t ->
  ?threads:Capri_runtime.Executor.thread_spec list ->
  Capri_compiler.Compiled.t ->
  Capri_runtime.Executor.result * info
(** One crash-free reference run (Capri mode) with the region profiler
    on: the result doubles as the oracle's reference, the profiler's
    region log yields boundary indices. *)

val enumerate : ?max_schedules:int -> info -> int list list
(** Deterministic schedule list: crash points at every region-boundary
    neighbourhood ([b-1], [b], [b+1]), inside each boundary's proxy-drain
    window ([b+2], [b+4], [b+8]), at region-interior midpoints, at
    instruction 0, plus multi-crash schedules (crash during recovery
    replay, repeated same-point crashes, a triple). Evenly thinned to
    [max_schedules]. *)
