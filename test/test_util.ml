(* Substrate utilities: deterministic RNG, statistics, tables. *)

let test_rng_deterministic () =
  let a = Capri_util.Rng.create 42 in
  let b = Capri_util.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Capri_util.Rng.next a)
      (Capri_util.Rng.next b)
  done

let test_rng_bounds () =
  let rng = Capri_util.Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Capri_util.Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done;
  for _ = 1 to 1_000 do
    let v = Capri_util.Rng.int_in rng 5 9 in
    if v < 5 || v > 9 then Alcotest.failf "int_in out of bounds: %d" v;
    let f = Capri_util.Rng.float rng 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.failf "float out of bounds: %f" f
  done

let test_rng_split_independent () =
  let a = Capri_util.Rng.create 99 in
  let b = Capri_util.Rng.split a in
  let xs = List.init 20 (fun _ -> Capri_util.Rng.next a) in
  let ys = List.init 20 (fun _ -> Capri_util.Rng.next b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_distribution () =
  (* crude uniformity: each bucket of 8 gets 8-17% of 10k draws *)
  let rng = Capri_util.Rng.create 1 in
  let buckets = Array.make 8 0 in
  for _ = 1 to 10_000 do
    let v = Capri_util.Rng.int rng 8 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i n ->
      if n < 800 || n > 1700 then Alcotest.failf "bucket %d skewed: %d" i n)
    buckets

let test_stat_basics () =
  let open Capri_util.Stat in
  Alcotest.(check (float 1e-9)) "mean" 2.0 (mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "mean empty" 0.0 (mean []);
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (geomean [ 1.0; 2.0; 4.0 ]);
  let lo, hi = min_max [ 3.0; 1.0; 2.0 ] in
  Alcotest.(check (float 1e-9)) "min" 1.0 lo;
  Alcotest.(check (float 1e-9)) "max" 3.0 hi;
  Alcotest.(check (float 1e-9)) "stddev singleton" 0.0 (stddev [ 5.0 ]);
  Alcotest.(check (float 1e-6)) "stddev" 2.0 (stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ]);
  Alcotest.(check (float 1e-9)) "p50" 2.0
    (percentile 50.0 [ 3.0; 1.0; 2.0; 4.0 ]);
  let acc = Acc.create () in
  Acc.add acc 2.0;
  Acc.add acc 4.0;
  Alcotest.(check int) "acc count" 2 (Acc.count acc);
  Alcotest.(check (float 1e-9)) "acc mean" 3.0 (Acc.mean acc)

let test_stat_histogram () =
  let open Capri_util.Stat in
  (* fixed-width bucketing, with clamping at both ends *)
  let rows = histogram ~buckets:4 ~lo:0.0 ~hi:8.0 [ -1.0; 0.0; 1.9; 2.0; 7.9; 99.0 ] in
  Alcotest.(check int) "bucket count" 4 (List.length rows);
  let counts = List.map (fun (_, _, c) -> c) rows in
  Alcotest.(check (list int)) "counts" [ 3; 1; 0; 2 ] counts;
  let lo0, hi0, _ = List.hd rows in
  Alcotest.(check (float 1e-9)) "first lo" 0.0 lo0;
  Alcotest.(check (float 1e-9)) "first hi" 2.0 hi0;
  Alcotest.(check (list (triple (float 1e-9) (float 1e-9) int)))
    "empty input: zero counts"
    [ (0.0, 1.0, 0); (1.0, 2.0, 0) ]
    (histogram ~buckets:2 ~lo:0.0 ~hi:2.0 []);
  Alcotest.check_raises "bad buckets"
    (Invalid_argument "Stat.histogram: buckets must be positive") (fun () ->
      ignore (histogram ~buckets:0 ~lo:0.0 ~hi:1.0 []));
  (* log2 bucketing *)
  Alcotest.(check int) "log2 0" 0 (log2_bucket 0);
  Alcotest.(check int) "log2 1" 1 (log2_bucket 1);
  Alcotest.(check int) "log2 2" 2 (log2_bucket 2);
  Alcotest.(check int) "log2 3" 3 (log2_bucket 3);
  Alcotest.(check int) "log2 4" 3 (log2_bucket 4);
  Alcotest.(check int) "log2 5" 4 (log2_bucket 5);
  Alcotest.(check (pair int int)) "bounds of 3" (3, 4) (log2_bounds 3);
  Alcotest.(check (list (triple int int int))) "log2 empty" []
    (log2_histogram []);
  Alcotest.(check (list (triple int int int))) "log2 single"
    [ (0, 0, 0); (1, 1, 1) ]
    (log2_histogram [ 1 ]);
  Alcotest.(check (list (triple int int int))) "log2 rows"
    [ (0, 0, 1); (1, 1, 1); (2, 2, 1); (3, 4, 2) ]
    (log2_histogram [ 0; 1; 2; 3; 4 ])

let test_acc_spread () =
  let open Capri_util.Stat in
  let acc = Acc.create () in
  Alcotest.(check (float 1e-9)) "variance empty" 0.0 (Acc.variance acc);
  Alcotest.(check (float 1e-9)) "stddev empty" 0.0 (Acc.stddev acc);
  Acc.add acc 5.0;
  Alcotest.(check (float 1e-9)) "variance single" 0.0 (Acc.variance acc);
  Alcotest.(check (float 1e-9)) "stddev single" 0.0 (Acc.stddev acc);
  let acc = Acc.create () in
  let xs = [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  List.iter (Acc.add acc) xs;
  Alcotest.(check (float 1e-6)) "variance" 4.0 (Acc.variance acc);
  Alcotest.(check (float 1e-6)) "stddev" 2.0 (Acc.stddev acc);
  (* agrees with the list-based version *)
  Alcotest.(check (float 1e-9)) "matches Stat.stddev" (stddev xs)
    (Acc.stddev acc)

let test_table_render () =
  let t = Capri_util.Table.create ~header:[ "name"; "v" ] in
  Capri_util.Table.add_row t [ "alpha"; "1.00" ];
  Capri_util.Table.add_sep t;
  Capri_util.Table.add_row t [ "b"; "12.50" ];
  let s = Capri_util.Table.render t in
  Alcotest.(check bool) "has header" true
    (String.length s > 0
     &&
     let lines = String.split_on_char '\n' s in
     List.exists (fun l -> String.length l > 0 && l.[0] = '|') lines);
  (* all non-empty lines have equal width *)
  let widths =
    List.filter_map
      (fun l -> if String.length l > 0 then Some (String.length l) else None)
      (String.split_on_char '\n' s)
  in
  (match widths with
   | w :: rest ->
     List.iter (fun w' -> Alcotest.(check int) "aligned" w w') rest
   | [] -> Alcotest.fail "empty render");
  Alcotest.(check string) "float fmt" "3.14"
    (Capri_util.Table.fmt_f ~decimals:2 3.14159)

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_deterministic;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng distribution" `Quick test_rng_distribution;
    Alcotest.test_case "statistics" `Quick test_stat_basics;
    Alcotest.test_case "histograms" `Quick test_stat_histogram;
    Alcotest.test_case "welford spread" `Quick test_acc_spread;
    Alcotest.test_case "table rendering" `Quick test_table_render;
  ]

let test_zipf_frequency_ratio () =
  let module Rng = Capri_util.Rng in
  (* skew 1: rank 0 must be drawn roughly twice as often as rank 1, and
     roughly n times as often as rank n-1 *)
  let rng = Rng.create 13 in
  let dist = Rng.Zipf.create ~n:16 ~skew:1.0 in
  Alcotest.(check int) "n" 16 (Rng.Zipf.n dist);
  let counts = Array.make 16 0 in
  let draws = 200_000 in
  for _ = 1 to draws do
    let v = Rng.zipf rng dist in
    if v < 0 || v >= 16 then Alcotest.failf "zipf out of bounds: %d" v;
    counts.(v) <- counts.(v) + 1
  done;
  let ratio = float_of_int counts.(0) /. float_of_int counts.(1) in
  Alcotest.(check bool)
    (Printf.sprintf "rank0/rank1 ~ 2 (got %.2f)" ratio)
    true
    (ratio > 1.8 && ratio < 2.2);
  let tail = float_of_int counts.(0) /. float_of_int counts.(15) in
  Alcotest.(check bool)
    (Printf.sprintf "rank0/rank15 ~ 16 (got %.2f)" tail)
    true
    (tail > 12.0 && tail < 20.0);
  (* skew 0 degenerates to uniform *)
  let flat = Rng.Zipf.create ~n:8 ~skew:0.0 in
  let fc = Array.make 8 0 in
  for _ = 1 to 40_000 do
    let v = Rng.zipf rng flat in
    fc.(v) <- fc.(v) + 1
  done;
  Array.iteri
    (fun i n ->
      if n < 4300 || n > 5700 then Alcotest.failf "uniform bucket %d: %d" i n)
    fc;
  (* invalid parameters *)
  (match Rng.Zipf.create ~n:0 ~skew:1.0 with
   | _ -> Alcotest.fail "accepted n = 0"
   | exception Invalid_argument _ -> ());
  match Rng.Zipf.create ~n:4 ~skew:(-0.5) with
  | _ -> Alcotest.fail "accepted negative skew"
  | exception Invalid_argument _ -> ()

let suite = suite @ [
    Alcotest.test_case "zipf frequency ratios" `Quick test_zipf_frequency_ratio;
  ]
