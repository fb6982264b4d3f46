(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's per-experiment index). With no arguments
   it runs the full set; individual experiments can be selected:

     dune exec bench/main.exe -- table1 fig8 fig9 fig10 fig11 headline \
                                 ablation micro

   Options:
     --jobs N     measurement parallelism (default: $CAPRI_JOBS if set,
                  else the machine's recommended domain count). Results
                  are byte-identical at any job count.

   Data goes to stdout; timing lines go to stderr so stdout stays
   deterministic across job counts and machines. *)

open Capri_bench
module W = Capri_workloads

let scale = W.Suite.bench_scale

let table1 () =
  print_endline "== Table 1: simulator configuration";
  Format.printf "%a@." Capri.Config.pp_table Capri.Config.table1;
  print_endline
    "   (sim_default scales cache capacities to the synthetic workloads;\n\
    \    latencies and queue structure identical:)";
  Format.printf "%a@.@." Capri.Config.pp_table Capri.Config.sim_default

let experiments : (string * (unit -> unit)) list =
  [
    ("table1", table1);
    ("fig8", Figures.figure8 ~scale);
    ("fig9", Figures.figure9 ~scale);
    ("fig10", Figures.figure10 ~scale);
    ("fig11", Figures.figure11 ~scale);
    ("headline", Figures.headline ~scale);
    ("nvmwrites", Figures.nvm_writes ~scale);
    ("ablation", Ablation.all ~scale);
    ("sensitivity", Sensitivity.all);
    ("micro", Micro.print);
  ]

let usage () =
  Printf.eprintf
    "usage: main.exe [--jobs N] [experiment ...]\n\
     available experiments: %s\n"
    (String.concat ", " (List.map fst experiments))

let () =
  let jobs = ref 0 in
  let selected = ref [] in
  let bad msg = Printf.eprintf "%s\n" msg; usage (); exit 1 in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n when n >= 1 -> n
    | Some _ | None -> bad (Printf.sprintf "%s expects a positive integer" flag)
  in
  let rec parse = function
    | [] -> ()
    | "--" :: rest -> parse rest
    | "--help" :: _ | "-h" :: _ -> usage (); exit 0
    | "--jobs" :: v :: rest -> jobs := int_arg "--jobs" v; parse rest
    | [ "--jobs" ] -> bad "--jobs expects an argument"
    | a :: rest when String.length a >= 7 && String.sub a 0 7 = "--jobs=" ->
      jobs := int_arg "--jobs" (String.sub a 7 (String.length a - 7));
      parse rest
    | a :: rest ->
      if not (List.mem_assoc a experiments) then
        bad (Printf.sprintf "unknown experiment %s" a);
      selected := a :: !selected;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let selected =
    match List.rev !selected with
    | [] -> List.map fst experiments
    | l -> l
  in
  let jobs = if !jobs > 0 then !jobs else Capri_util.Pool.default_jobs () in
  Runner.init ~jobs;
  Fun.protect ~finally:Runner.shutdown @@ fun () ->
  let t0 = Unix.gettimeofday () in
  List.iter (fun name -> (List.assoc name experiments) ()) selected;
  Printf.eprintf "total harness time: %.1fs (%d jobs)\n"
    (Unix.gettimeofday () -. t0) jobs
