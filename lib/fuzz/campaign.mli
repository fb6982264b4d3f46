(** Deterministic, parallel fuzzing campaigns.

    Trial state is a pure function of the trial seed ([cfg.seed] + trial
    index), so every reported failure reproduces from
    [fuzz/main.exe --seed <trial_seed> --budget 1]. Trials fan out over
    {!Capri_util.Pool}; reports are identical at any [jobs] count. *)

module Arch = Capri_arch

type cfg = {
  seed : int;  (** base seed; trial [k] uses [seed + k] *)
  budget : int;  (** total oracle executions before stopping *)
  jobs : int;  (** pool width; never affects the report *)
  modes : Arch.Persist.mode list;
      (** [Volatile] selects the differential oracle (it is not
          crash-recoverable); every other mode, the crash oracle *)
  config : Arch.Config.t;
  max_cores : int;  (** trial core counts cycle in [1 .. max_cores] *)
  array_words : int;  (** per-thread data-slice words (power of two) *)
  max_schedules : int;  (** crash schedules enumerated per trial *)
  diff_combos : int;  (** option combos per trial (differential oracle) *)
  shrink : bool;  (** minimise failures before reporting *)
}

val default_cfg : cfg

type failure = {
  trial_seed : int;
  cores : int;
  oracle : string;
  detail : string;
  reason : string;
  schedule : int list;
  shrunk_schedule : int list;
  shrunk_keep : int list list;
  minimized : string;
  repro : string;
}

type trial = {
  t_seed : int;
  t_cores : int;
  t_schedules : int;
  t_crash_checks : int;
  t_diff_checks : int;
  t_failures : failure list;
}

type report = {
  cfg : cfg;
  trials : int;
  schedules : int;
  crash_checks : int;
  diff_checks : int;
  executions : int;
  failures : failure list;
}

val run_trial : cfg -> int -> trial
(** One trial, sequential, pure in [cfg.seed + k] — exposed for tests. *)

val waves :
  jobs:int -> budget:int -> cost:('t -> int) -> (int -> 't) -> 't list
(** [waves ~jobs ~budget ~cost run_trial] runs trials [0, 1, ...] in
    speculative waves of [jobs] over a domain pool ([jobs >= 1]) and
    returns, in trial order, the trials accepted up to and including the
    one whose cumulative [cost] reaches [budget]. The result is the same
    at any [jobs]. Both campaigns fold their reports from it. *)

val run : cfg -> report

val render : report -> string
