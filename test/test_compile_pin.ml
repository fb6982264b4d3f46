(* Pinned compiler output. Each row is one compile: a digest of the
   rewritten program's text (Program.pp) plus the Compiled report counts.
   A compiler speed-up must leave every row unchanged; a change that is
   meant to move the output updates the rows and says so in CHANGES.md. *)

open Capri_compiler
module W = Capri_workloads
module Svc = Capri_service

(* The serve-txn store shape: 2 shards, mix A over 64 keys, zipf 0.99. *)
let store_requests ~txns =
  Svc.Client.generate
    {
      Svc.Client.default with
      mix = Svc.Client.A;
      key_space = 64;
      ops_per_shard = 100;
      skew = 0.99;
      seed = 1;
      txns;
    }
    ~shards:2

let store ?sched ~txns () =
  let w = store_requests ~txns in
  (Svc.Kvstore.build ~txns:w.Svc.Client.txns ?sched ~key_space:64
     ~requests:w.Svc.Client.requests ())
    .Svc.Kvstore.program

let kernels = [ "505.mcf_r"; "intruder"; "ocean"; "water-nsquared" ]

let inputs () =
  [
    ("store txns=40", store ~txns:40 ());
    ("store txns=0", store ~txns:0 ());
    ("store txns=40 steal", store ~sched:Svc.Sched.default ~txns:40 ());
  ]
  @ List.map
      (fun name ->
        ( name,
          (W.Suite.by_name ~scale:W.Suite.bench_scale name).W.Kernel.program
        ))
      kernels

let row (c : Compiled.t) =
  Printf.sprintf "%s regions=%d ins=%d pruned=%d rblocks=%d hoisted=%d \
                  deduped=%d unrolled=%d/%d factor=%d static=%d"
    (Digest.to_hex
       (Digest.string (Format.asprintf "%a" Capri_ir.Program.pp c.program)))
    (Region_map.region_count c.regions)
    c.ckpt_report.Ckpt.ckpts_inserted c.prune_report.Prune.ckpts_pruned
    c.prune_report.Prune.recovery_blocks c.licm_report.Licm.ckpts_hoisted
    c.licm_report.Licm.ckpts_deduped c.unroll_report.Unroll.loops_unrolled
    c.unroll_report.Unroll.loops_seen c.unroll_report.Unroll.total_factor
    (Compiled.static_ckpt_count c)

let rows () =
  List.concat_map
    (fun (input, program) ->
      List.map
        (fun (config, options) ->
          (input ^ " @ " ^ config, row (Pipeline.compile options program)))
        Options.fig9_configs)
    (inputs ())

let expected =
  [
    ("store txns=40 @ region",
     "895b422e4bfe53c3f869523f7d732320 regions=20 ins=0 pruned=0 rblocks=0 hoisted=0 deduped=0 unrolled=0/0 factor=0 static=0");
    ("store txns=40 @ +ckpt",
     "de4d20adc544af7020065d76fd6d2259 regions=20 ins=40 pruned=0 rblocks=0 hoisted=0 deduped=0 unrolled=0/0 factor=0 static=40");
    ("store txns=40 @ +unrolling",
     "c66ae6086d4dad1bb2d8d6508f305937 regions=20 ins=61 pruned=0 rblocks=0 hoisted=0 deduped=0 unrolled=5/10 factor=40 static=61");
    ("store txns=40 @ +pruning",
     "c66ae6086d4dad1bb2d8d6508f305937 regions=20 ins=61 pruned=0 rblocks=0 hoisted=0 deduped=0 unrolled=5/10 factor=40 static=61");
    ("store txns=40 @ +licm",
     "dda94cb96622c88d7a6a486b037d4f7a regions=20 ins=61 pruned=0 rblocks=0 hoisted=24 deduped=0 unrolled=5/10 factor=40 static=50");
    ("store txns=0 @ region",
     "2c2a585de43186b9f67523e10678fcdb regions=6 ins=0 pruned=0 rblocks=0 hoisted=0 deduped=0 unrolled=0/0 factor=0 static=0");
    ("store txns=0 @ +ckpt",
     "f6b3fed40d72c3db65561a34b397d683 regions=6 ins=11 pruned=0 rblocks=0 hoisted=0 deduped=0 unrolled=0/0 factor=0 static=11");
    ("store txns=0 @ +unrolling",
     "d2818f9b23f2343c44297d90cf9ee0be regions=6 ins=18 pruned=0 rblocks=0 hoisted=0 deduped=0 unrolled=1/2 factor=8 static=18");
    ("store txns=0 @ +pruning",
     "d2818f9b23f2343c44297d90cf9ee0be regions=6 ins=18 pruned=0 rblocks=0 hoisted=0 deduped=0 unrolled=1/2 factor=8 static=18");
    ("store txns=0 @ +licm",
     "e3e7731ac1a521dd82d24969481ac201 regions=6 ins=18 pruned=0 rblocks=0 hoisted=8 deduped=0 unrolled=1/2 factor=8 static=13");
    ("store txns=40 steal @ region",
     "c79a9b7e165c6e27902f7541e82dc0c4 regions=36 ins=0 pruned=0 rblocks=0 hoisted=0 deduped=0 unrolled=0/0 factor=0 static=0");
    ("store txns=40 steal @ +ckpt",
     "6fc45ff909b83ce738ce36d2363d6b18 regions=36 ins=66 pruned=0 rblocks=0 hoisted=0 deduped=0 unrolled=0/0 factor=0 static=66");
    ("store txns=40 steal @ +unrolling",
     "7f1b55c3407ccb6f0398c7e26cef2a7a regions=52 ins=87 pruned=0 rblocks=0 hoisted=0 deduped=0 unrolled=6/13 factor=48 static=87");
    ("store txns=40 steal @ +pruning",
     "7f1b55c3407ccb6f0398c7e26cef2a7a regions=52 ins=87 pruned=0 rblocks=0 hoisted=0 deduped=0 unrolled=6/13 factor=48 static=87");
    ("store txns=40 steal @ +licm",
     "e193de2614e3788b340149dc7a172abf regions=52 ins=87 pruned=0 rblocks=0 hoisted=31 deduped=0 unrolled=6/13 factor=48 static=77");
    ("505.mcf_r @ region",
     "ac097446cff0acba90eb3d2663f3812a regions=3 ins=0 pruned=0 rblocks=0 hoisted=0 deduped=0 unrolled=0/0 factor=0 static=0");
    ("505.mcf_r @ +ckpt",
     "02f8c6c03ec8cb6ef54483bce9b79931 regions=3 ins=10 pruned=0 rblocks=0 hoisted=0 deduped=0 unrolled=0/0 factor=0 static=10");
    ("505.mcf_r @ +unrolling",
     "7f1450ab95443277b5a32ace9e4a5dcb regions=3 ins=31 pruned=0 rblocks=0 hoisted=0 deduped=0 unrolled=1/2 factor=8 static=31");
    ("505.mcf_r @ +pruning",
     "7f1450ab95443277b5a32ace9e4a5dcb regions=3 ins=31 pruned=0 rblocks=0 hoisted=0 deduped=0 unrolled=1/2 factor=8 static=31");
    ("505.mcf_r @ +licm",
     "76c209441b6fcb64c00b6fcf0b22c246 regions=3 ins=31 pruned=0 rblocks=0 hoisted=24 deduped=0 unrolled=1/2 factor=8 static=13");
    ("intruder @ region",
     "8a28246baa1c66141c7f61c3f92231b7 regions=4 ins=0 pruned=0 rblocks=0 hoisted=0 deduped=0 unrolled=0/0 factor=0 static=0");
    ("intruder @ +ckpt",
     "6105fed86e1c460fb8a1f85214e3fcdd regions=4 ins=10 pruned=0 rblocks=0 hoisted=0 deduped=0 unrolled=0/0 factor=0 static=10");
    ("intruder @ +unrolling",
     "522ed9102b728610fed1101e2c8f0508 regions=4 ins=24 pruned=0 rblocks=0 hoisted=0 deduped=0 unrolled=1/2 factor=8 static=24");
    ("intruder @ +pruning",
     "522ed9102b728610fed1101e2c8f0508 regions=4 ins=24 pruned=0 rblocks=0 hoisted=0 deduped=0 unrolled=1/2 factor=8 static=24");
    ("intruder @ +licm",
     "6621f81453c04042204c4deb1bcbeffa regions=4 ins=24 pruned=0 rblocks=0 hoisted=16 deduped=0 unrolled=1/2 factor=8 static=12");
    ("ocean @ region",
     "7efa2ad47f6490d9bafb04ed38f1f66b regions=6 ins=0 pruned=0 rblocks=0 hoisted=0 deduped=0 unrolled=0/0 factor=0 static=0");
    ("ocean @ +ckpt",
     "39267b8db4e0b0620192788a4e95b458 regions=7 ins=8 pruned=0 rblocks=0 hoisted=0 deduped=0 unrolled=0/0 factor=0 static=8");
    ("ocean @ +unrolling",
     "bd80dd21d0210619fc3361527761e25d regions=7 ins=8 pruned=0 rblocks=0 hoisted=0 deduped=0 unrolled=1/4 factor=8 static=8");
    ("ocean @ +pruning",
     "bd80dd21d0210619fc3361527761e25d regions=7 ins=8 pruned=0 rblocks=0 hoisted=0 deduped=0 unrolled=1/4 factor=8 static=8");
    ("ocean @ +licm",
     "bd80dd21d0210619fc3361527761e25d regions=7 ins=8 pruned=0 rblocks=0 hoisted=0 deduped=0 unrolled=1/4 factor=8 static=8");
    ("water-nsquared @ region",
     "59f131a923eff1f04d565b57132cf146 regions=5 ins=0 pruned=0 rblocks=0 hoisted=0 deduped=0 unrolled=0/0 factor=0 static=0");
    ("water-nsquared @ +ckpt",
     "b27cd33170fca8700b18efe3afd78792 regions=5 ins=9 pruned=0 rblocks=0 hoisted=0 deduped=0 unrolled=0/0 factor=0 static=9");
    ("water-nsquared @ +unrolling",
     "b27cd33170fca8700b18efe3afd78792 regions=5 ins=9 pruned=0 rblocks=0 hoisted=0 deduped=0 unrolled=0/3 factor=0 static=9");
    ("water-nsquared @ +pruning",
     "b27cd33170fca8700b18efe3afd78792 regions=5 ins=9 pruned=0 rblocks=0 hoisted=0 deduped=0 unrolled=0/3 factor=0 static=9");
    ("water-nsquared @ +licm",
     "c913814c8b6f9c27bb02dfe5e7e8d248 regions=5 ins=9 pruned=0 rblocks=0 hoisted=2 deduped=0 unrolled=0/3 factor=0 static=8")
  ]

let test_pinned () =
  List.iter2
    (fun (name, want) (name', got) ->
      Alcotest.(check string) "row order" name name';
      Alcotest.(check string) name want got)
    expected (rows ())

(* Pinned region logs, read the two ways the tools read them: the
   `capri trace` timeline text (scale 6, threshold 256) and the boundary
   instruction indices Schedule.observe hands the fuzzer (scale 6,
   Options.default), as an md5 of the comma-joined list. *)
let trace_text name =
  let k = W.Suite.by_name ~scale:6 name in
  let compiled =
    Pipeline.compile (Options.with_threshold 256 Options.default)
      k.W.Kernel.program
  in
  let log = Capri_obs.Profiler.create () in
  ignore
    (Capri_runtime.Verify.reference
       ~obs:{ Capri_obs.Obs.null with regions = log }
       ~threads:k.W.Kernel.threads compiled);
  Digest.to_hex (Digest.string (Capri_obs.Profiler.render_timeline log))

let observed name =
  let k = W.Suite.by_name ~scale:6 name in
  let compiled = Pipeline.compile Options.default k.W.Kernel.program in
  let _, info =
    Capri_fuzz.Schedule.observe ~threads:k.W.Kernel.threads compiled
  in
  let b = info.Capri_fuzz.Schedule.boundaries in
  Printf.sprintf "n=%d %s" (List.length b)
    (Digest.to_hex
       (Digest.string (String.concat "," (List.map string_of_int b))))

let test_region_log_pinned () =
  List.iter
    (fun (name, want) ->
      Alcotest.(check string) ("trace " ^ name) want (trace_text name))
    [
      ("505.mcf_r", "764b098b973546305a06621af4a58910");
      ("ocean", "d72ff56e68698cfab25b09ce1a7fcc14");
      ("intruder", "68252cf729a4b38ff98f452b9c145f1d");
    ];
  List.iter
    (fun (name, want) ->
      Alcotest.(check string) ("observe " ^ name) want (observed name))
    [
      ("505.mcf_r", "n=82 20523c8410e11c40f3d1b60d2674fa3f");
      ("ocean", "n=124 61b7c96b96a374c05711d73dbe8aa448");
    ]

let suite =
  [
    Alcotest.test_case "compiled output pinned" `Quick test_pinned;
    Alcotest.test_case "region log pinned" `Quick test_region_log_pinned;
  ]
