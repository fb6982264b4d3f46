(* compile-budget: compiling the 2PC store must stay linear-time. Build
   a serve-txn-shaped store (2 shards, closed-loop mix A over 64 keys,
   40 cross-shard transactions), compile it once with the default
   options and fail when the compile allocates more minor words than the
   committed budget. Allocation repeats exactly within a build profile,
   so the check is deterministic. Per-region loop analysis in LICM
   allocated about 16.4M words here; per-function analysis about 3.4M.
   Raise the budget only with a CHANGES.md line that explains why. Runs
   as part of `dune runtest`. *)

module Svc = Capri_service
module Comp = Capri_compiler

let budget_words = 6_000_000.

let () =
  let w =
    Svc.Client.generate
      {
        Svc.Client.default with
        mix = Svc.Client.A;
        key_space = 64;
        ops_per_shard = 1000;
        skew = 0.99;
        seed = 1;
        txns = 40;
      }
      ~shards:2
  in
  let kv =
    Svc.Kvstore.build ~txns:w.Svc.Client.txns ~key_space:64
      ~requests:w.Svc.Client.requests ()
  in
  let before = Gc.minor_words () in
  ignore (Comp.Pipeline.compile Comp.Options.default kv.Svc.Kvstore.program);
  let words = Gc.minor_words () -. before in
  Printf.printf "compile-budget: txn store compile allocated %.0f words \
                 (budget %.0f)\n" words budget_words;
  if words > budget_words then begin
    prerr_endline "compile-budget: over budget";
    exit 1
  end
