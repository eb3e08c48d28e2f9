(* Unit and property tests for the dense linear-algebra substrate. *)

let mat = Linalg.Mat.of_arrays

let check_float = Alcotest.(check (float 1e-9))

let check_close ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let check_mat_close ?(tol = 1e-9) msg a b =
  if not (Linalg.Mat.equal ~tol a b) then
    Alcotest.failf "%s: matrices differ (max delta %g)" msg
      (Linalg.Mat.norm_inf (Linalg.Mat.sub a b))

(* A deterministic light-weight PRNG for matrix generation in tests
   (independent of the library's own rng so the substrates do not test
   themselves with themselves). *)
let lcg_state = ref 42

let lcg_float () =
  lcg_state := ((!lcg_state * 1103515245) + 12345) land 0x3FFFFFFF;
  (float_of_int !lcg_state /. float_of_int 0x3FFFFFFF *. 2.0) -. 1.0

let random_mat m n =
  Linalg.Mat.init m n (fun _ _ -> lcg_float ())

let random_low_rank m n r =
  let a = random_mat m r in
  let b = random_mat r n in
  Linalg.Mat.mul a b

let is_orthonormal_cols ?(tol = 1e-8) q =
  let _, k = Linalg.Mat.dims q in
  let g = Linalg.Mat.mul_tn q q in
  Linalg.Mat.equal ~tol g (Linalg.Mat.identity k)

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_vec_dot () =
  check_float "dot" 32.0 (Linalg.Vec.dot [| 1.; 2.; 3. |] [| 4.; 5.; 6. |])

let test_vec_norms () =
  check_float "norm2" 5.0 (Linalg.Vec.norm2 [| 3.; 4. |]);
  check_float "norm1" 7.0 (Linalg.Vec.norm1 [| 3.; -4. |]);
  check_float "norm_inf" 4.0 (Linalg.Vec.norm_inf [| 3.; -4. |]);
  check_float "empty norm" 0.0 (Linalg.Vec.norm2 [||])

let test_vec_norm2_no_overflow () =
  let big = 1e200 in
  check_close ~tol:1e186 "scaled norm" (big *. sqrt 2.0)
    (Linalg.Vec.norm2 [| big; big |])

let test_vec_axpy () =
  let y = [| 1.0; 1.0 |] in
  Linalg.Vec.axpy 2.0 [| 3.0; 4.0 |] y;
  check_float "axpy.0" 7.0 y.(0);
  check_float "axpy.1" 9.0 y.(1)

(* The range kernels against plain loops, bit for bit: counts 0..7
   cover the four-at-a-time passes and their tails. *)
let test_vec_range_kernels () =
  let rng = Rng.create 17 in
  let x = Array.init 64 (fun _ -> Rng.gaussian rng) in
  let bits_eq a b = Array.for_all2 (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v)) a b in
  let plain_dot xo yo len =
    let acc = ref 0.0 in
    for p = 0 to len - 1 do acc := !acc +. (x.(xo + p) *. x.(yo + p)) done;
    !acc
  in
  let plain_axpy a xo y yo len =
    for p = 0 to len - 1 do y.(yo + p) <- y.(yo + p) +. (a *. x.(xo + p)) done
  in
  for count = 0 to 7 do
    let out = Array.make count nan in
    Linalg.Vec.dots_range x 1 x 9 ~stride:6 ~count 5 out;
    Alcotest.(check bool) (Printf.sprintf "dots_range count %d" count) true
      (bits_eq out (Array.init count (fun t -> plain_dot 1 (9 + (6 * t)) 5)));
    let alpha = Array.init 10 (fun i -> float_of_int i -. 2.5) in
    let y1 = Array.copy x and y2 = Array.copy x in
    Linalg.Vec.axpys_range alpha 2 x 20 ~stride:5 ~count y1 3 4;
    for t = 0 to count - 1 do plain_axpy alpha.(2 + t) (20 + (5 * t)) y2 3 4 done;
    Alcotest.(check bool) (Printf.sprintf "axpys_range count %d" count) true (bits_eq y1 y2);
    let y1 = Array.copy x and y2 = Array.copy x in
    Linalg.Vec.rank1_range alpha 1 x 0 y1 10 ~stride:6 ~count 5;
    for t = 0 to count - 1 do plain_axpy alpha.(1 + t) 0 y2 (10 + (6 * t)) 5 done;
    Alcotest.(check bool) (Printf.sprintf "rank1_range count %d" count) true (bits_eq y1 y2)
  done;
  let y1 = Array.copy x and y2 = Array.copy x in
  Linalg.Vec.rot2_range ~c1:0.6 ~s1:0.8 ~c2:(-0.28) ~s2:0.96 y1 0 10 20 7;
  Linalg.Vec.rot_range ~c:0.6 ~s:0.8 y2 0 y2 10 7;
  Linalg.Vec.rot_range ~c:(-0.28) ~s:0.96 y2 10 y2 20 7;
  Alcotest.(check bool) "rot2_range = two rot_range" true (bits_eq y1 y2);
  let raises label f =
    match f () with
    | () -> Alcotest.failf "%s: out-of-range access accepted" label
    | exception Invalid_argument _ -> ()
  in
  raises "dots_range" (fun () -> Linalg.Vec.dots_range x 0 x 0 ~stride:20 ~count:4 5 (Array.make 4 0.0));
  raises "dots_range out" (fun () -> Linalg.Vec.dots_range x 0 x 0 ~stride:1 ~count:4 5 (Array.make 3 0.0));
  raises "axpys_range" (fun () -> Linalg.Vec.axpys_range [| 1.0 |] 0 x 0 ~stride:1 ~count:2 x 0 5);
  raises "rank1_range" (fun () -> Linalg.Vec.rank1_range [| 1.0; 1.0 |] 0 x 0 x 50 ~stride:10 ~count:2 5);
  raises "rot_range" (fun () -> Linalg.Vec.rot_range ~c:1.0 ~s:0.0 x (-1) x 0 5);
  raises "rot2_range" (fun () -> Linalg.Vec.rot2_range ~c1:1.0 ~s1:0.0 ~c2:1.0 ~s2:0.0 x 0 10 62 5)

let test_vec_stats () =
  check_float "sum" 6.0 (Linalg.Vec.sum [| 1.; 2.; 3. |]);
  check_float "mean" 2.0 (Linalg.Vec.mean [| 1.; 2.; 3. |]);
  check_float "max" 3.0 (Linalg.Vec.max_elt [| 1.; 3.; 2. |]);
  check_float "min" 1.0 (Linalg.Vec.min_elt [| 1.; 3.; 2. |]);
  Alcotest.(check int) "argmax" 1 (Linalg.Vec.argmax [| 1.; 3.; 2. |])

let test_vec_mismatch () =
  Alcotest.check_raises "dot mismatch"
    (Invalid_argument "Vec.dot: dimensions 2 and 3 differ") (fun () ->
      ignore (Linalg.Vec.dot [| 1.; 2. |] [| 1.; 2.; 3. |]))

(* ------------------------------------------------------------------ *)
(* Mat *)

let test_mat_mul () =
  let a = mat [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = mat [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  let c = Linalg.Mat.mul a b in
  check_mat_close "2x2 product" (mat [| [| 19.; 22. |]; [| 43.; 50. |] |]) c

let test_mat_mul_rect () =
  let a = random_mat 7 5 in
  let b = random_mat 5 3 in
  let c = Linalg.Mat.mul a b in
  let c' =
    Linalg.Mat.init 7 3 (fun i j ->
        Linalg.Vec.dot (Linalg.Mat.row a i) (Linalg.Mat.col b j))
  in
  check_mat_close "rect product" c' c

let test_mat_mul_nt_tn () =
  let a = random_mat 6 4 in
  let b = random_mat 5 4 in
  check_mat_close "mul_nt"
    (Linalg.Mat.mul a (Linalg.Mat.transpose b))
    (Linalg.Mat.mul_nt a b);
  let b2 = random_mat 6 3 in
  check_mat_close "mul_tn"
    (Linalg.Mat.mul (Linalg.Mat.transpose a) b2)
    (Linalg.Mat.mul_tn a b2)

let test_mat_gram () =
  let a = random_mat 5 7 in
  check_mat_close "gram" (Linalg.Mat.mul_nt a a) (Linalg.Mat.gram a)

let test_mat_apply () =
  let a = mat [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let y = Linalg.Mat.apply a [| 1.; 1.; 1. |] in
  check_float "apply.0" 6.0 y.(0);
  check_float "apply.1" 15.0 y.(1);
  let z = Linalg.Mat.apply_t a [| 1.; 1. |] in
  check_float "apply_t.0" 5.0 z.(0);
  check_float "apply_t.2" 9.0 z.(2)

let test_mat_select_drop () =
  let a = random_mat 6 3 in
  let idx = [| 4; 1 |] in
  let sel = Linalg.Mat.select_rows a idx in
  check_mat_close "select row 0" (mat [| Linalg.Mat.row a 4 |])
    (mat [| Linalg.Mat.row sel 0 |]);
  let dropped = Linalg.Mat.drop_rows a idx in
  Alcotest.(check int) "drop count" 4 (fst (Linalg.Mat.dims dropped));
  check_mat_close "drop keeps order" (mat [| Linalg.Mat.row a 0 |])
    (mat [| Linalg.Mat.row dropped 0 |]);
  check_mat_close "drop keeps order 2" (mat [| Linalg.Mat.row a 2 |])
    (mat [| Linalg.Mat.row dropped 1 |])

let test_mat_cat () =
  let a = random_mat 2 3 in
  let b = random_mat 2 2 in
  let h = Linalg.Mat.hcat a b in
  Alcotest.(check (pair int int)) "hcat dims" (2, 5) (Linalg.Mat.dims h);
  check_close "hcat entry" (Linalg.Mat.get b 1 1) (Linalg.Mat.get h 1 4);
  let c = random_mat 3 3 in
  let v = Linalg.Mat.vcat a c in
  Alcotest.(check (pair int int)) "vcat dims" (5, 3) (Linalg.Mat.dims v);
  check_close "vcat entry" (Linalg.Mat.get c 2 0) (Linalg.Mat.get v 4 0)

let test_mat_transpose_involution () =
  let a = random_mat 4 7 in
  check_mat_close "transpose^2" a Linalg.Mat.(transpose (transpose a))

let test_mat_row_norms () =
  let a = mat [| [| 3.; 4. |]; [| 0.; 0. |] |] in
  let n = Linalg.Mat.row_norms2 a in
  check_float "row norm 0" 5.0 n.(0);
  check_float "row norm 1" 0.0 n.(1)

(* ------------------------------------------------------------------ *)
(* LU *)

let test_lu_solve () =
  let a = mat [| [| 4.; 3. |]; [| 6.; 3. |] |] in
  let x = Linalg.Lu.solve_system a [| 10.; 12. |] in
  check_close "x0" 1.0 x.(0);
  check_close "x1" 2.0 x.(1)

let test_lu_det () =
  let a = mat [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  check_close "det" (-2.0) (Linalg.Lu.det (Linalg.Lu.factor a));
  let p = mat [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  check_close "det permutation" (-1.0) (Linalg.Lu.det (Linalg.Lu.factor p))

let test_lu_inverse () =
  let a = random_mat 8 8 in
  let inv = Linalg.Lu.inverse a in
  check_mat_close ~tol:1e-8 "a * a^-1" (Linalg.Mat.identity 8) (Linalg.Mat.mul a inv)

let test_lu_singular () =
  let a = mat [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  Alcotest.check_raises "singular" Linalg.Lu.Singular (fun () ->
      ignore (Linalg.Lu.solve_system a [| 1.; 1. |]))

(* ------------------------------------------------------------------ *)
(* Cholesky *)

let test_cholesky_roundtrip () =
  let b = random_mat 6 6 in
  let a = Linalg.Mat.add (Linalg.Mat.gram b) (Linalg.Mat.scale 0.5 (Linalg.Mat.identity 6)) in
  let l = Linalg.Cholesky.factor a in
  check_mat_close ~tol:1e-8 "l l^T" a (Linalg.Mat.mul_nt l l);
  let x_true = Array.init 6 (fun i -> float_of_int (i + 1)) in
  let bvec = Linalg.Mat.apply a x_true in
  let x = Linalg.Cholesky.solve l bvec in
  Alcotest.(check bool) "solve" true (Linalg.Vec.equal ~tol:1e-7 x_true x)

let test_cholesky_not_pd () =
  let a = mat [| [| 1.; 2. |]; [| 2.; 1. |] |] in
  Alcotest.(check bool) "indefinite" false (Linalg.Cholesky.is_positive_definite a)

(* ------------------------------------------------------------------ *)
(* QR *)

let test_qr_reconstruct () =
  let a = random_mat 8 5 in
  let f = Linalg.Qr.factor a in
  let q = Linalg.Qr.q f in
  let r = Linalg.Qr.r f in
  Alcotest.(check bool) "orthonormal q" true (is_orthonormal_cols q);
  check_mat_close ~tol:1e-8 "qr reconstruct" a (Linalg.Mat.mul q r)

let test_qr_pivoted_reconstruct () =
  let a = random_mat 6 9 in
  let f = Linalg.Qr.factor_pivoted a in
  let q = Linalg.Qr.q f in
  let r = Linalg.Qr.r f in
  let perm = Linalg.Qr.perm f in
  let ap = Linalg.Mat.select_cols a perm in
  Alcotest.(check bool) "orthonormal q" true (is_orthonormal_cols q);
  check_mat_close ~tol:1e-8 "pivoted reconstruct" ap (Linalg.Mat.mul q r)

let test_qr_pivot_decreasing_diag () =
  let a = random_mat 10 10 in
  let f = Linalg.Qr.factor_pivoted a in
  let r = Linalg.Qr.r f in
  let d = Array.map Float.abs (Linalg.Mat.diag r) in
  for i = 0 to Array.length d - 2 do
    if d.(i + 1) > d.(i) +. 1e-9 then
      Alcotest.failf "pivoted diagonal not non-increasing at %d: %g < %g" i d.(i) d.(i + 1)
  done

let test_qr_rank_detection () =
  let a = random_low_rank 12 9 4 in
  Alcotest.(check int) "pivoted qr rank" 4 (Linalg.Rank.of_mat_qr a)

let test_qr_lstsq () =
  let a = random_mat 12 5 in
  let x_true = Array.init 5 (fun i -> float_of_int i -. 2.0) in
  let b = Linalg.Mat.apply a x_true in
  let x = Linalg.Qr.solve_lstsq (Linalg.Qr.factor a) b in
  Alcotest.(check bool) "recover exact" true (Linalg.Vec.equal ~tol:1e-8 x_true x)

let test_qr_lstsq_residual_orthogonal () =
  (* The least-squares residual must be orthogonal to the column space. *)
  let a = random_mat 10 4 in
  let b = Array.init 10 (fun _ -> lcg_float ()) in
  let x = Linalg.Lstsq.solve a b in
  let r = Linalg.Vec.sub (Linalg.Mat.apply a x) b in
  let g = Linalg.Mat.apply_t a r in
  check_close ~tol:1e-8 "A^T r = 0" 0.0 (Linalg.Vec.norm_inf g)

let test_qr_apply_qt () =
  let a = random_mat 7 4 in
  let f = Linalg.Qr.factor a in
  let b = Array.init 7 (fun _ -> lcg_float ()) in
  (* ||Q^T b|| over the first k entries must match ||Q Q^T b|| etc.; simplest
     check: Q^T preserves the norm of vectors in the full space. *)
  let y = Linalg.Qr.apply_qt f b in
  check_close ~tol:1e-8 "norm preserved" (Linalg.Vec.norm2 b) (Linalg.Vec.norm2 y)

(* ------------------------------------------------------------------ *)
(* SVD *)

let test_svd_known () =
  (* diag(3, 2) has singular values 3, 2 *)
  let a = mat [| [| 3.; 0. |]; [| 0.; 2. |] |] in
  let f = Linalg.Svd.factor a in
  check_close "s0" 3.0 f.s.(0);
  check_close "s1" 2.0 f.s.(1)

let test_svd_reconstruct_tall () =
  let a = random_mat 10 6 in
  let f = Linalg.Svd.factor a in
  check_mat_close ~tol:1e-8 "reconstruct" a (Linalg.Svd.reconstruct f);
  Alcotest.(check bool) "u orthonormal" true (is_orthonormal_cols f.u);
  Alcotest.(check bool) "v orthonormal" true (is_orthonormal_cols f.v)

let test_svd_reconstruct_wide () =
  let a = random_mat 5 11 in
  let f = Linalg.Svd.factor a in
  check_mat_close ~tol:1e-8 "reconstruct wide" a (Linalg.Svd.reconstruct f);
  Alcotest.(check bool) "u orthonormal" true (is_orthonormal_cols f.u);
  Alcotest.(check bool) "v orthonormal" true (is_orthonormal_cols f.v)

let test_svd_ordering () =
  let a = random_mat 9 9 in
  let f = Linalg.Svd.factor a in
  Array.iteri
    (fun i s ->
      if i > 0 && s > f.s.(i - 1) +. 1e-12 then
        Alcotest.failf "singular values not sorted at %d" i)
    f.s

let test_svd_rank () =
  let a = random_low_rank 14 10 3 in
  Alcotest.(check int) "svd rank" 3 (Linalg.Rank.of_mat a)

let test_svd_vs_jacobi () =
  let a = random_mat 8 6 in
  let f1 = Linalg.Svd.factor a in
  let f2 = Linalg.Svd.factor_jacobi a in
  Alcotest.(check bool) "spectra agree" true
    (Linalg.Vec.equal ~tol:1e-7 f1.s f2.s)

let test_svd_frobenius_identity () =
  let a = random_mat 7 9 in
  let f = Linalg.Svd.factor a in
  let fro2 = Array.fold_left (fun acc s -> acc +. (s *. s)) 0.0 f.s in
  check_close ~tol:1e-8 "sum s^2 = ||A||_F^2"
    (Linalg.Mat.frobenius a ** 2.0) fro2

let test_svd_zero_matrix () =
  let f = Linalg.Svd.factor (Linalg.Mat.create 4 3) in
  check_close "all zero" 0.0 (Linalg.Vec.norm_inf f.s);
  Alcotest.(check int) "rank 0" 0 (Linalg.Svd.rank f)

(* Golden bit patterns of [Svd.factor]: the MD5 of "RxC:" followed by
   the little-endian IEEE bits of every entry of u, s (as a column) and
   v. They were recorded from the row-array Golub–Reinsch that the
   column-major one replaced, so they pin the floating-point operations
   and their order, not just the accuracy: any reordering of a sum shows
   up here. The inputs are seeded Gaussians. *)
let seeded_mat seed r c =
  let rng = Rng.create seed in
  Linalg.Mat.init r c (fun _ _ -> Rng.gaussian rng)

let bits_digest (r, c) data =
  let b = Buffer.create (16 + (8 * Array.length data)) in
  Buffer.add_string b (Printf.sprintf "%dx%d:" r c);
  Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) data;
  Digest.to_hex (Digest.string (Buffer.contents b))

let svd_golden =
  [
    ( "tall 12x7", (fun () -> seeded_mat 101 12 7),
      ("741f229f3c5f487e467856307a8de3bd", "aaee1fc3e42f28cfa341918ec938c743",
       "8e57c3fca2cc5a56e883396642c36afc") );
    ( "wide 6x13", (fun () -> seeded_mat 102 6 13),
      ("527026ccdfc7911b581a2567989aa7ef", "ed826860fec421a1039123d4918b7388",
       "2273d600b2bc6e7e9db0adf19401cb58") );
    ( "square 9x9", (fun () -> seeded_mat 103 9 9),
      ("9276b5589a7dc26a458b67908d1df4dd", "7b2db6060c8da774ae5d730ca7f8375b",
       "ab760ee843690f95d657320b1a6fcd30") );
    ( "rank-deficient 10x8 rank 3",
      (fun () -> Linalg.Mat.mul (seeded_mat 104 10 3) (seeded_mat 105 3 8)),
      ("680421e8ae4defd98effe8cf5298c577", "de938bc18419904e822eb7f4b38a2a5e",
       "3441f99044aa63625bca5280c3151fab") );
    ( "1x6", (fun () -> seeded_mat 106 1 6),
      ("46175eb84b2455da7568c2fc01c16153", "defa590020b01eb51f2982919af0f8e0",
       "66beb06f461ab7fbe10bd2402af28910") );
    ( "7x1", (fun () -> seeded_mat 107 7 1),
      ("9afd665f7cd60142130571cff20e01df", "ceaae465f581921790be59c97dc97d47",
       "46175eb84b2455da7568c2fc01c16153") );
    ( "empty 0x4", (fun () -> Linalg.Mat.create 0 4),
      ("51f2d7909a2bdce285a0f19dcc309f5d", "dcaf82dc5e85be5c592b89b6e68882e2",
       "57cdfd52e3e0c59a244008226a01d732") );
    ( "empty 5x0", (fun () -> Linalg.Mat.create 5 0),
      ("4c70d57d09069a64450542cf8118af78", "dcaf82dc5e85be5c592b89b6e68882e2",
       "51f2d7909a2bdce285a0f19dcc309f5d") );
    ( "tall 70x40", (fun () -> seeded_mat 108 70 40),
      ("998663108a0435bd0c94c62cf2407525", "ca77c8c55d79fed35a70b23e1a577347",
       "7fc32dad7df531e6efb5806f6c66b39b") );
    ( "wide 40x70", (fun () -> seeded_mat 109 40 70),
      ("49cead3212eefb46bc3fc11c0d8eace8", "0ab488b2169fa902148a1a786c83e559",
       "63dfbbe51f861944d893051c4da854e4") );
  ]

let check_svd_golden ?(label = "") () =
  List.iter
    (fun (name, input, (du, ds, dv)) ->
      let f = Linalg.Svd.factor (input ()) in
      let mat_digest m = bits_digest (Linalg.Mat.dims m) m.Linalg.Mat.data in
      let tag part = Printf.sprintf "%s%s: %s bits" label name part in
      Alcotest.(check string) (tag "u") du (mat_digest f.u);
      Alcotest.(check string) (tag "s") ds (bits_digest (Array.length f.s, 1) f.s);
      Alcotest.(check string) (tag "v") dv (mat_digest f.v))
    svd_golden

let test_svd_golden_bits () = check_svd_golden ()

let test_pinv_moore_penrose () =
  let a = random_low_rank 8 6 3 in
  let p = Linalg.Pinv.compute a in
  let apa = Linalg.Mat.mul (Linalg.Mat.mul a p) a in
  check_mat_close ~tol:1e-7 "A A+ A = A" a apa;
  let pap = Linalg.Mat.mul (Linalg.Mat.mul p a) p in
  check_mat_close ~tol:1e-7 "A+ A A+ = A+" p pap;
  let ap = Linalg.Mat.mul a p in
  check_mat_close ~tol:1e-7 "(A A+)^T = A A+" (Linalg.Mat.transpose ap) ap

let test_pinv_solve_gram_definite () =
  let b = random_mat 5 5 in
  let g = Linalg.Mat.add (Linalg.Mat.gram b) (Linalg.Mat.identity 5) in
  let rhs = random_mat 5 2 in
  let x = Linalg.Pinv.solve_gram g rhs in
  check_mat_close ~tol:1e-7 "g x = rhs" rhs (Linalg.Mat.mul g x)

let test_pinv_solve_gram_singular () =
  let b = random_low_rank 5 5 2 in
  let g = Linalg.Mat.gram b in
  let rhs = Linalg.Mat.mul g (random_mat 5 1) in
  (* rhs lives in range(g), so the pseudo-solve must satisfy it exactly *)
  let x = Linalg.Pinv.solve_gram g rhs in
  check_mat_close ~tol:1e-6 "singular gram solve" rhs (Linalg.Mat.mul g x)

(* ------------------------------------------------------------------ *)
(* Eigen *)

let test_eigen_known () =
  let a = mat [| [| 2.; 1. |]; [| 1.; 2. |] |] in
  let e = Linalg.Eigen.symmetric a in
  check_close "lambda0" 3.0 e.values.(0);
  check_close "lambda1" 1.0 e.values.(1)

let test_eigen_reconstruct () =
  let b = random_mat 7 7 in
  let a = Linalg.Mat.add b (Linalg.Mat.transpose b) in
  let e = Linalg.Eigen.symmetric a in
  check_mat_close ~tol:1e-7 "eigen reconstruct" a (Linalg.Eigen.reconstruct e);
  Alcotest.(check bool) "orthonormal vectors" true (is_orthonormal_cols e.vectors)

let test_eigen_matches_svd_on_gram () =
  let a = random_mat 6 4 in
  let g = Linalg.Mat.mul_tn a a in
  let e = Linalg.Eigen.symmetric g in
  let f = Linalg.Svd.factor a in
  for i = 0 to 3 do
    check_close ~tol:1e-7 (Printf.sprintf "lambda_%d = s_%d^2" i i)
      (f.s.(i) *. f.s.(i)) e.values.(i)
  done

(* ------------------------------------------------------------------ *)
(* Property tests *)

let qcheck_mat ?(max_dim = 10) () =
  let open QCheck in
  let gen_mat =
    Gen.(
      int_range 1 max_dim >>= fun m ->
      int_range 1 max_dim >>= fun n ->
      array_size (return (m * n)) (float_range (-10.0) 10.0) >|= fun data ->
      Linalg.Mat.init m n (fun i j -> data.((i * n) + j)))
  in
  make ~print:(fun m -> Format.asprintf "%a" Linalg.Mat.pp m) gen_mat

let prop_svd_reconstruct =
  QCheck.Test.make ~count:60 ~name:"svd reconstructs any matrix" (qcheck_mat ())
    (fun a ->
      let f = Linalg.Svd.factor a in
      Linalg.Mat.equal ~tol:1e-6 a (Linalg.Svd.reconstruct f))

let prop_svd_spectral_norm_bound =
  QCheck.Test.make ~count:60 ~name:"largest singular value bounds ||Ax||/||x||"
    (qcheck_mat ()) (fun a ->
      let _, n = Linalg.Mat.dims a in
      let f = Linalg.Svd.factor a in
      let x = Array.init n (fun i -> cos (float_of_int (i + 1))) in
      let lhs = Linalg.Vec.norm2 (Linalg.Mat.apply a x) in
      lhs <= (f.s.(0) *. Linalg.Vec.norm2 x) +. 1e-6)

let prop_qr_reconstruct =
  QCheck.Test.make ~count:60 ~name:"pivoted qr reconstructs" (qcheck_mat ())
    (fun a ->
      let f = Linalg.Qr.factor_pivoted a in
      let ap = Linalg.Mat.select_cols a (Linalg.Qr.perm f) in
      Linalg.Mat.equal ~tol:1e-6 ap (Linalg.Mat.mul (Linalg.Qr.q f) (Linalg.Qr.r f)))

let prop_lu_solve =
  QCheck.Test.make ~count:60 ~name:"lu solves well-conditioned systems"
    QCheck.(pair (int_range 1 8) (array_of_size (Gen.return 64) (float_range (-1.0) 1.0)))
    (fun (n, data) ->
      let a =
        Linalg.Mat.init n n (fun i j ->
            data.(((i * n) + j) mod 64) +. if i = j then float_of_int n else 0.0)
      in
      let x_true = Array.init n (fun i -> float_of_int (i - 1)) in
      let b = Linalg.Mat.apply a x_true in
      let x = Linalg.Lu.solve_system a b in
      Linalg.Vec.equal ~tol:1e-6 x_true x)

let prop_rank_bounded =
  QCheck.Test.make ~count:60 ~name:"rank <= min(m,n)" (qcheck_mat ()) (fun a ->
      let m, n = Linalg.Mat.dims a in
      Linalg.Rank.of_mat a <= min m n)

let prop_pinv_least_squares =
  QCheck.Test.make ~count:40 ~name:"pinv gives a least-squares minimizer"
    (qcheck_mat ~max_dim:6 ()) (fun a ->
      let m, n = Linalg.Mat.dims a in
      let b = Array.init m (fun i -> sin (float_of_int i)) in
      let x = Linalg.Lstsq.solve_min_norm a b in
      let base = Linalg.Lstsq.residual_norm a x b in
      (* perturbing the solution must not reduce the residual *)
      let ok = ref true in
      for j = 0 to n - 1 do
        let x' = Array.copy x in
        x'.(j) <- x'.(j) +. 1e-3;
        if Linalg.Lstsq.residual_norm a x' b < base -. 1e-9 then ok := false
      done;
      !ok)

let unit_tests =
  [
    ("vec: dot", test_vec_dot);
    ("vec: norms", test_vec_norms);
    ("vec: norm2 avoids overflow", test_vec_norm2_no_overflow);
    ("vec: axpy", test_vec_axpy);
    ("vec: range kernels", test_vec_range_kernels);
    ("vec: stats", test_vec_stats);
    ("vec: dimension mismatch raises", test_vec_mismatch);
    ("mat: 2x2 multiply", test_mat_mul);
    ("mat: rectangular multiply", test_mat_mul_rect);
    ("mat: mul_nt / mul_tn", test_mat_mul_nt_tn);
    ("mat: gram", test_mat_gram);
    ("mat: apply / apply_t", test_mat_apply);
    ("mat: select/drop rows", test_mat_select_drop);
    ("mat: hcat/vcat", test_mat_cat);
    ("mat: transpose involution", test_mat_transpose_involution);
    ("mat: row norms", test_mat_row_norms);
    ("lu: solve 2x2", test_lu_solve);
    ("lu: determinant", test_lu_det);
    ("lu: inverse", test_lu_inverse);
    ("lu: singular raises", test_lu_singular);
    ("cholesky: roundtrip + solve", test_cholesky_roundtrip);
    ("cholesky: rejects indefinite", test_cholesky_not_pd);
    ("qr: reconstruct", test_qr_reconstruct);
    ("qr: pivoted reconstruct", test_qr_pivoted_reconstruct);
    ("qr: pivoted diag non-increasing", test_qr_pivot_decreasing_diag);
    ("qr: rank detection", test_qr_rank_detection);
    ("qr: least squares exact recovery", test_qr_lstsq);
    ("qr: residual orthogonality", test_qr_lstsq_residual_orthogonal);
    ("qr: apply_qt preserves norm", test_qr_apply_qt);
    ("svd: known diagonal", test_svd_known);
    ("svd: reconstruct tall", test_svd_reconstruct_tall);
    ("svd: reconstruct wide", test_svd_reconstruct_wide);
    ("svd: ordering", test_svd_ordering);
    ("svd: rank of low-rank product", test_svd_rank);
    ("svd: agrees with jacobi", test_svd_vs_jacobi);
    ("svd: frobenius identity", test_svd_frobenius_identity);
    ("svd: zero matrix", test_svd_zero_matrix);
    ("svd: golden bit patterns", test_svd_golden_bits);
    ("pinv: moore-penrose identities", test_pinv_moore_penrose);
    ("pinv: gram solve (definite)", test_pinv_solve_gram_definite);
    ("pinv: gram solve (singular)", test_pinv_solve_gram_singular);
    ("eigen: known 2x2", test_eigen_known);
    ("eigen: reconstruct", test_eigen_reconstruct);
    ("eigen: matches svd on gram", test_eigen_matches_svd_on_gram);
  ]

let property_tests =
  List.map (fun t -> QCheck_alcotest.to_alcotest t)
    [
      prop_svd_reconstruct;
      prop_svd_spectral_norm_bound;
      prop_qr_reconstruct;
      prop_lu_solve;
      prop_rank_bounded;
      prop_pinv_least_squares;
    ]

let suites =
  [
    ( "linalg",
      List.map (fun (name, f) -> Alcotest.test_case name `Quick f) unit_tests
      @ property_tests );
  ]
