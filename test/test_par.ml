(* Domain-pool runtime and parallel-kernel equivalence tests.

   The contract under test is the one lib/par documents: parallelism
   buys wall-clock only. Every kernel must be bit-identical at pool
   sizes 1, 2 and 4 — including on this repo's single-core CI hosts,
   where sizes 2 and 4 still exercise the real multi-domain code path
   (the domains just time-share one core). *)

let with_pool_size d f =
  let saved = Par.Pool.size () in
  Par.Pool.set_size d;
  Fun.protect ~finally:(fun () -> Par.Pool.set_size saved) f

(* low threshold so even QCheck-sized matrices take the parallel path *)
let with_low_threshold f =
  let saved = Linalg.Mat.par_threshold_value () in
  Linalg.Mat.set_par_threshold 64;
  Fun.protect ~finally:(fun () -> Linalg.Mat.set_par_threshold saved) f

let bits_equal m1 m2 =
  Linalg.Mat.dims m1 = Linalg.Mat.dims m2
  &&
  let r, c = Linalg.Mat.dims m1 in
  try
    for i = 0 to r - 1 do
      for j = 0 to c - 1 do
        if
          Int64.bits_of_float (Linalg.Mat.get m1 i j)
          <> Int64.bits_of_float (Linalg.Mat.get m2 i j)
        then raise Exit
      done
    done;
    true
  with Exit -> false

let rand_mat seed r c =
  let rng = Rng.create seed in
  Linalg.Mat.init r c (fun _ _ -> Rng.gaussian rng)

(* ---------------- pool unit tests ---------------- *)

let test_parallel_for_covers_range () =
  with_pool_size 4 @@ fun () ->
  let n = 10_000 in
  let hits = Array.make n 0 in
  Par.Pool.parallel_for 0 n (fun i -> hits.(i) <- hits.(i) + 1);
  Alcotest.(check bool) "each index exactly once" true
    (Array.for_all (fun h -> h = 1) hits)

let test_parallel_for_empty_range () =
  with_pool_size 4 @@ fun () ->
  let ran = ref false in
  Par.Pool.parallel_for 5 5 (fun _ -> ran := true);
  Alcotest.(check bool) "no iteration on empty range" false !ran

let test_exception_propagates () =
  with_pool_size 4 @@ fun () ->
  Alcotest.check_raises "chunk exception re-raised in caller"
    (Failure "boom")
    (fun () ->
      Par.Pool.parallel_for 0 1000 (fun i -> if i = 777 then failwith "boom"))

let test_nested_region_runs_serially () =
  with_pool_size 4 @@ fun () ->
  let n = 64 in
  let hits = Array.make (n * n) 0 in
  Par.Pool.parallel_for 0 n (fun i ->
      Par.Pool.parallel_for 0 n (fun j ->
          hits.((i * n) + j) <- hits.((i * n) + j) + 1));
  Alcotest.(check bool) "nested loops still cover the product range" true
    (Array.for_all (fun h -> h = 1) hits)

let test_set_size_respawns () =
  with_pool_size 3 @@ fun () ->
  Alcotest.(check int) "size reflects set_size" 3 (Par.Pool.size ());
  let acc = Atomic.make 0 in
  Par.Pool.parallel_for 0 100 (fun _ -> Atomic.incr acc);
  Par.Pool.set_size 2;
  Alcotest.(check int) "resized" 2 (Par.Pool.size ());
  Par.Pool.parallel_for 0 100 (fun _ -> Atomic.incr acc);
  Alcotest.(check int) "both regions ran all iterations" 200 (Atomic.get acc);
  Alcotest.check_raises "set_size 0 rejected"
    (Invalid_argument "Par.Pool.set_size: size must be >= 1")
    (fun () -> Par.Pool.set_size 0)

let test_shutdown_then_reuse () =
  with_pool_size 2 @@ fun () ->
  let acc = Atomic.make 0 in
  Par.Pool.parallel_for 0 50 (fun _ -> Atomic.incr acc);
  Par.Pool.shutdown ();
  (* the next region must lazily respawn the pool *)
  Par.Pool.parallel_for 0 50 (fun _ -> Atomic.incr acc);
  Alcotest.(check int) "regions before and after shutdown" 100 (Atomic.get acc)

(* ---------------- kernel bit-identity properties ---------------- *)

let at_sizes f =
  with_low_threshold @@ fun () ->
  let reference = with_pool_size 1 f in
  List.for_all
    (fun d -> bits_equal reference (with_pool_size d f))
    [ 2; 4 ]

let dims_gen = QCheck.(triple (int_range 1 40) (int_range 1 40) (int_range 1 40))

let prop_mul_identical =
  QCheck.Test.make ~count:15 ~name:"mul bit-identical at pool sizes 1/2/4"
    QCheck.(pair int dims_gen)
    (fun (seed, (m, k, n)) ->
      let a = rand_mat seed m k and b = rand_mat (seed + 1) k n in
      at_sizes (fun () -> Linalg.Mat.mul a b))

let prop_mul_nt_identical =
  QCheck.Test.make ~count:15 ~name:"mul_nt bit-identical at pool sizes 1/2/4"
    QCheck.(pair int dims_gen)
    (fun (seed, (m, k, n)) ->
      let a = rand_mat seed m k and b = rand_mat (seed + 1) n k in
      at_sizes (fun () -> Linalg.Mat.mul_nt a b))

let prop_mul_tn_identical =
  QCheck.Test.make ~count:15 ~name:"mul_tn bit-identical at pool sizes 1/2/4"
    QCheck.(pair int dims_gen)
    (fun (seed, (m, k, n)) ->
      let a = rand_mat seed k m and b = rand_mat (seed + 1) k n in
      at_sizes (fun () -> Linalg.Mat.mul_tn a b))

let prop_gram_identical =
  QCheck.Test.make ~count:15 ~name:"gram bit-identical at pool sizes 1/2/4"
    QCheck.(pair int (pair (int_range 1 40) (int_range 1 40)))
    (fun (seed, (m, k)) ->
      let a = rand_mat seed m k in
      at_sizes (fun () -> Linalg.Mat.gram a))

(* ---------------- fused in-place ops vs their composed forms -------- *)

let prop_sub_scaled_matches_composed =
  QCheck.Test.make ~count:30 ~name:"sub_scaled a s b == sub a (scale s b)"
    QCheck.(triple int (pair (int_range 1 20) (int_range 1 20)) (float_range (-4.0) 4.0))
    (fun (seed, (m, n), s) ->
      let a = rand_mat seed m n and b = rand_mat (seed + 1) m n in
      bits_equal (Linalg.Mat.sub_scaled a s b)
        (Linalg.Mat.sub a (Linalg.Mat.scale s b)))

let prop_axpy_matches_composed =
  QCheck.Test.make ~count:30 ~name:"axpy alpha x y == add y (scale alpha x)"
    QCheck.(triple int (pair (int_range 1 20) (int_range 1 20)) (float_range (-4.0) 4.0))
    (fun (seed, (m, n), alpha) ->
      let x = rand_mat seed m n and y = rand_mat (seed + 1) m n in
      let fused = Linalg.Mat.copy y in
      Linalg.Mat.axpy ~alpha x fused;
      bits_equal fused (Linalg.Mat.add y (Linalg.Mat.scale alpha x)))

let prop_sub_into_matches =
  QCheck.Test.make ~count:30 ~name:"sub_into == sub (incl. aliased target)"
    QCheck.(pair int (pair (int_range 1 20) (int_range 1 20)))
    (fun (seed, (m, n)) ->
      let a = rand_mat seed m n and b = rand_mat (seed + 1) m n in
      let expected = Linalg.Mat.sub a b in
      let fresh = Linalg.Mat.create m n in
      Linalg.Mat.sub_into ~into:fresh a b;
      let aliased = Linalg.Mat.copy a in
      Linalg.Mat.sub_into ~into:aliased aliased b;
      bits_equal expected fresh && bits_equal expected aliased)

(* ---------------- Monte Carlo invariance across pool sizes ---------- *)

let mc_fixture =
  lazy
    (let nl =
       Circuit.Generator.generate
         { Circuit.Generator.default with num_gates = 120; seed = 21 }
     in
     let model = Timing.Variation.make_model ~levels:3 () in
     let dm = Timing.Delay_model.build nl model in
     (dm, Timing.Delay_model.nominal_critical_delay dm))

let test_circuit_yield_invariant () =
  let dm, t_cons = Lazy.force mc_fixture in
  let yield_at d =
    with_pool_size d (fun () ->
        Timing.Monte_carlo.circuit_yield dm ~t_cons ~rng:(Rng.create 42)
          ~samples:150)
  in
  let reference = yield_at 1 in
  List.iter
    (fun d ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "yield at %d domains" d)
        reference (yield_at d))
    [ 2; 4 ]

let test_path_delays_invariant () =
  let dm, t_cons = Lazy.force mc_fixture in
  let r =
    Timing.Path_extract.extract ~max_paths:300 dm ~t_cons ~yield_threshold:0.99
  in
  match r.Timing.Path_extract.paths with
  | [] -> Alcotest.skip ()
  | paths ->
    let pool = Timing.Paths.build dm paths in
    let delays_at d =
      with_pool_size d (fun () ->
          with_low_threshold (fun () ->
              let mc = Timing.Monte_carlo.sample (Rng.create 9) pool ~n:120 in
              Timing.Monte_carlo.path_delays mc))
    in
    let reference = delays_at 1 in
    List.iter
      (fun d ->
        Alcotest.(check bool)
          (Printf.sprintf "die delays bit-identical at %d domains" d)
          true
          (bits_equal reference (delays_at d)))
      [ 2; 4 ]

let q = QCheck_alcotest.to_alcotest

(* The SVD's column sweeps and rotation blocks run on the pool: the
   golden bit patterns must hold at every pool size, with the threshold
   low enough that the sweeps really split. *)
let test_svd_golden_across_pool_sizes () =
  with_low_threshold @@ fun () ->
  List.iter
    (fun d ->
      with_pool_size d @@ fun () ->
      Test_linalg.check_svd_golden ~label:(Printf.sprintf "pool %d: " d) ())
    [ 1; 2; 4 ]

let suites =
  [
    ( "par",
      [
        Alcotest.test_case "parallel_for covers range once" `Quick
          test_parallel_for_covers_range;
        Alcotest.test_case "parallel_for empty range" `Quick
          test_parallel_for_empty_range;
        Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
        Alcotest.test_case "nested regions run serially" `Quick
          test_nested_region_runs_serially;
        Alcotest.test_case "set_size resizes and validates" `Quick
          test_set_size_respawns;
        Alcotest.test_case "shutdown then lazy respawn" `Quick
          test_shutdown_then_reuse;
        q prop_mul_identical;
        q prop_mul_nt_identical;
        q prop_mul_tn_identical;
        q prop_gram_identical;
        Alcotest.test_case "svd golden bits at pool sizes 1, 2, 4" `Quick
          test_svd_golden_across_pool_sizes;
        q prop_sub_scaled_matches_composed;
        q prop_axpy_matches_composed;
        q prop_sub_into_matches;
        Alcotest.test_case "circuit yield invariant across pool sizes" `Quick
          test_circuit_yield_invariant;
        Alcotest.test_case "MC die delays invariant across pool sizes" `Quick
          test_path_delays_invariant;
      ] );
  ]
