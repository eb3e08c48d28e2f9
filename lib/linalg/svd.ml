type t = { u : Mat.t; s : Vec.t; v : Mat.t }

exception No_convergence

let hypot2 a b = Float.hypot a b

let sign_of x y = if y >= 0.0 then Float.abs x else -.Float.abs x

(* Row blocks of a column-major matrix: [f start len] for consecutive
   blocks of at most [block_rows] rows covering [lo, hi). A block of a
   400-column matrix is 200 KB, so a sweep over all its columns stays in
   cache for the next sweep. *)
let block_rows = 64

let row_blocks lo hi f =
  let b = ref lo in
  while !b < hi do
    let len = min block_rows (hi - !b) in
    f !b len;
    b := !b + len
  done

(* Householder-style column sweep over columns [lo, hi) of the
   column-major [y] (column stride [stride]): for each group of four
   columns starting at [j], [d] gets the dot products of
   [x.(xo .. xo+len-1)] with rows [yo .. yo+len-1] of each column, and
   [update j count d] then updates the group while it is still in
   cache. *)
let dot_update x xo y ~stride ~yo lo hi len update =
  let d = Array.make 4 0.0 in
  let j = ref lo in
  while !j < hi do
    let count = min 4 (hi - !j) in
    Vec.dots_range x xo y ((!j * stride) + yo) ~stride ~count len d;
    update !j count d;
    j := !j + count
  done

(* The diagonalization phase's updates of U and V: plane rotations of
   column pairs, and sign flips of V columns. Their angles depend only on
   the bidiagonal, never on U or V, so they are logged as the sweeps run
   and applied later in one pass: every element still receives the same
   operations in the same order. Applying a log walks row blocks that stay
   in cache through the whole log, one block per chunk on the pool. *)
type log = {
  x : float array;  (* column-major target *)
  rows : int;
  lp : int array;   (* first column *)
  lq : int array;   (* second column; -1 marks a sign flip of [lp] *)
  lc : float array;
  ls : float array;
  mutable count : int;
}

let log x rows ~cols =
  let cap = min (1 lsl 16) (max 16 (cols * cols)) in
  { x; rows; lp = Array.make cap 0; lq = Array.make cap 0; lc = Array.make cap 0.0;
    ls = Array.make cap 0.0; count = 0 }

let flush g =
  let cnt = g.count in
  let x = g.x and rows = g.rows in
  let apply lo hi =
    let len = hi - lo in
    let t = ref 0 in
    while !t < cnt do
      let p = g.lp.(!t) and q = g.lq.(!t) in
      let chained =
        !t + 1 < cnt && q >= 0 && g.lp.(!t + 1) = q && g.lq.(!t + 1) >= 0 && g.lq.(!t + 1) <> p
      in
      if q < 0 then begin
        for r = (p * rows) + lo to (p * rows) + hi - 1 do
          x.(r) <- -.x.(r)
        done;
        incr t
      end
      else if chained then begin
        (* a QR sweep's (j, j+1), (j+1, j+2): one pass for both *)
        Vec.rot2_range ~c1:g.lc.(!t) ~s1:g.ls.(!t) ~c2:g.lc.(!t + 1) ~s2:g.ls.(!t + 1) x
          ((p * rows) + lo) ((q * rows) + lo) ((g.lq.(!t + 1) * rows) + lo) len;
        t := !t + 2
      end
      else begin
        Vec.rot_range ~c:g.lc.(!t) ~s:g.ls.(!t) x ((p * rows) + lo) x ((q * rows) + lo) len;
        incr t
      end
    done
  in
  if cnt > 0 then
    Par.Pool.parallel_chunks ~grain:(Mat.row_grain (6 * cnt)) 0 rows (fun lo hi ->
        row_blocks lo hi (fun b len -> apply b (b + len)));
  g.count <- 0

let push g p q c s =
  if g.count = Array.length g.lp then flush g;
  let t = g.count in
  g.lp.(t) <- p;
  g.lq.(t) <- q;
  g.lc.(t) <- c;
  g.ls.(t) <- s;
  g.count <- t + 1

(* Golub–Reinsch SVD (classic svdcmp structure) for m >= n on the flat
   column-major working copy [a] (element (r, c) at [c * m + r]), which
   is destroyed and becomes U (m x n). Returns singular values w (length
   n, unsorted) and V (n x n, column-major). Columns are contiguous, so
   the Householder column sweeps, the accumulations and the rotations
   stream through memory; the right-Householder row update is
   loop-interchanged so that it too walks columns, each row's sum still
   running over k ascending. Independent column (or row-block) sweeps
   run on the pool; the floating-point operations per element and their
   order are those of the serial row-array formulation. *)
let golub_reinsch a m n =
  let get r c = a.((c * m) + r) in
  let set r c x = a.((c * m) + r) <- x in
  let w = Array.make n 0.0 in
  let rv1 = Array.make n 0.0 in
  let v = Array.make (n * n) 0.0 in
  let g = ref 0.0 and scale = ref 0.0 and anorm = ref 0.0 in
  (* Householder reduction to bidiagonal form *)
  let l = ref 0 in
  for i = 0 to n - 1 do
    l := i + 1;
    let l = !l in
    rv1.(i) <- !scale *. !g;
    g := 0.0;
    scale := 0.0;
    if i < m then begin
      for k = i to m - 1 do
        scale := !scale +. Float.abs (get k i)
      done;
      if not (Float.equal !scale 0.0) then begin
        let s = ref 0.0 in
        for k = i to m - 1 do
          set k i (get k i /. !scale);
          s := !s +. (get k i *. get k i)
        done;
        let f = get i i in
        g := -.sign_of (sqrt !s) f;
        let h = (f *. !g) -. !s in
        set i i (f -. !g);
        let ci = (i * m) + i in
        Par.Pool.parallel_chunks ~grain:(Mat.row_grain (4 * (m - i))) l n (fun lo hi ->
            dot_update a ci a ~stride:m ~yo:i lo hi (m - i) (fun j count d ->
                for t = 0 to count - 1 do
                  d.(t) <- d.(t) /. h
                done;
                Vec.rank1_range d 0 a ci a ((j * m) + i) ~stride:m ~count (m - i)));
        for k = i to m - 1 do
          set k i (get k i *. !scale)
        done
      end
    end;
    w.(i) <- !scale *. !g;
    g := 0.0;
    scale := 0.0;
    if i < m && i <> n - 1 then begin
      for k = l to n - 1 do
        scale := !scale +. Float.abs (get i k)
      done;
      if not (Float.equal !scale 0.0) then begin
        let s = ref 0.0 in
        for k = l to n - 1 do
          set i k (get i k /. !scale);
          s := !s +. (get i k *. get i k)
        done;
        let f = get i l in
        g := -.sign_of (sqrt !s) f;
        let h = (f *. !g) -. !s in
        set i l (f -. !g);
        for k = l to n - 1 do
          rv1.(k) <- get i k /. h
        done;
        (* rows l..m-1 in cache-sized blocks: s_j = sum_k a(j,k) a(i,k),
           then a(j,k) += s_j rv1(k), both walked column by column *)
        let row_i = Array.init n (fun k -> get i k) in
        Par.Pool.parallel_chunks ~grain:(Mat.row_grain (4 * (n - l))) l m (fun lo hi ->
            let sj = Array.make block_rows 0.0 in
            row_blocks lo hi (fun b len ->
                Array.fill sj 0 len 0.0;
                Vec.axpys_range row_i l a ((l * m) + b) ~stride:m ~count:(n - l) sj 0 len;
                Vec.rank1_range rv1 l sj 0 a ((l * m) + b) ~stride:m ~count:(n - l) len));
        for k = l to n - 1 do
          set i k (get i k *. !scale)
        done
      end
    end;
    anorm := Float.max !anorm (Float.abs w.(i) +. Float.abs rv1.(i))
  done;
  (* Accumulation of right-hand transformations *)
  for i = n - 1 downto 0 do
    if i < n - 1 then begin
      let l = !l in
      if not (Float.equal !g 0.0) then begin
        for j = l to n - 1 do
          v.((i * n) + j) <- get i j /. get i l /. !g
        done;
        let row_i = Array.init (n - l) (fun k -> get i (l + k)) in
        let ci = (i * n) + l in
        Par.Pool.parallel_chunks ~grain:(Mat.row_grain (4 * (n - l))) l n (fun lo hi ->
            dot_update row_i 0 v ~stride:n ~yo:l lo hi (n - l) (fun j count d ->
                Vec.rank1_range d 0 v ci v ((j * n) + l) ~stride:n ~count (n - l)))
      end;
      for j = l to n - 1 do
        v.((j * n) + i) <- 0.0;
        v.((i * n) + j) <- 0.0
      done
    end;
    v.((i * n) + i) <- 1.0;
    g := rv1.(i);
    l := i
  done;
  (* Accumulation of left-hand transformations *)
  for i = min m n - 1 downto 0 do
    let l = i + 1 in
    let g = w.(i) in
    for j = l to n - 1 do
      set i j 0.0
    done;
    if not (Float.equal g 0.0) then begin
      let ginv = 1.0 /. g in
      let aii = get i i in
      Par.Pool.parallel_chunks ~grain:(Mat.row_grain (4 * (m - i))) l n (fun lo hi ->
          dot_update a ((i * m) + l) a ~stride:m ~yo:l lo hi (m - l) (fun j count d ->
              for t = 0 to count - 1 do
                d.(t) <- d.(t) /. aii *. ginv
              done;
              Vec.rank1_range d 0 a ((i * m) + i) a ((j * m) + i) ~stride:m ~count (m - i)));
      for j = i to m - 1 do
        set j i (get j i *. ginv)
      done
    end
    else
      for j = i to m - 1 do
        set j i 0.0
      done;
    set i i (get i i +. 1.0)
  done;
  (* Diagonalization of the bidiagonal form *)
  let ulog = log a m ~cols:n and vlog = log v n ~cols:n in
  for k = n - 1 downto 0 do
    let its = ref 0 in
    let converged = ref false in
    while not !converged do
      incr its;
      if !its > 60 then raise No_convergence;
      (* Find the split point l: rv1.(l) negligible, or w.(l-1) negligible *)
      let flag = ref true in
      let l = ref k in
      let nm = ref 0 in
      (try
         while true do
           nm := !l - 1;
           if Float.equal (Float.abs rv1.(!l) +. !anorm) !anorm then begin
             flag := false;
             raise Exit
           end;
           if Float.equal (Float.abs w.(!nm) +. !anorm) !anorm then raise Exit;
           decr l
         done
       with Exit -> ());
      if !flag then begin
        (* Cancellation of rv1.(l) when w.(l-1) is negligible *)
        let c = ref 0.0 and s = ref 1.0 in
        (try
           for i = !l to k do
             let f = !s *. rv1.(i) in
             rv1.(i) <- !c *. rv1.(i);
             if Float.equal (Float.abs f +. !anorm) !anorm then raise Exit;
             let g = w.(i) in
             let h = hypot2 f g in
             w.(i) <- h;
             let hinv = 1.0 /. h in
             c := g *. hinv;
             s := -.f *. hinv;
             push ulog !nm i !c !s
           done
         with Exit -> ())
      end;
      let z = w.(k) in
      if !l = k then begin
        (* convergence; make the singular value non-negative *)
        if z < 0.0 then begin
          w.(k) <- -.z;
          push vlog k (-1) 0.0 0.0
        end;
        converged := true
      end
      else begin
        (* implicit-shift QR step *)
        let x = w.(!l) in
        let nm = k - 1 in
        let y = w.(nm) in
        let g0 = rv1.(nm) in
        let h = rv1.(k) in
        let f =
          (((y -. z) *. (y +. z)) +. ((g0 -. h) *. (g0 +. h))) /. (2.0 *. h *. y)
        in
        let g1 = hypot2 f 1.0 in
        let f = (((x -. z) *. (x +. z)) +. (h *. ((y /. (f +. sign_of g1 f)) -. h))) /. x in
        let c = ref 1.0 and s = ref 1.0 in
        let f = ref f and x = ref x in
        let g = ref 0.0 and y = ref 0.0 and h = ref 0.0 in
        for j = !l to nm do
          let i = j + 1 in
          g := rv1.(i);
          y := w.(i);
          h := !s *. !g;
          g := !c *. !g;
          let z = hypot2 !f !h in
          rv1.(j) <- z;
          c := !f /. z;
          s := !h /. z;
          let fnew = (!x *. !c) +. (!g *. !s) in
          g := (!g *. !c) -. (!x *. !s);
          h := !y *. !s;
          y := !y *. !c;
          push vlog j i !c !s;
          let z = hypot2 fnew !h in
          w.(j) <- z;
          if not (Float.equal z 0.0) then begin
            let zinv = 1.0 /. z in
            c := fnew *. zinv;
            s := !h *. zinv
          end;
          f := (!c *. !g) +. (!s *. !y);
          x := (!c *. !y) -. (!s *. !g);
          push ulog j i !c !s
        done;
        rv1.(!l) <- 0.0;
        rv1.(k) <- !f;
        w.(k) <- !x
      end
    done
  done;
  flush ulog;
  flush vlog;
  (w, v)

(* Indices of [s] in non-increasing order of value. *)
let descending s =
  let order = Array.init (Array.length s) (fun i -> i) in
  Array.sort (fun i j -> compare s.(j) s.(i)) order;
  order

(* Sort singular values into non-increasing order, permuting U and V
   columns to match. *)
let sort_svd u s v =
  let order = descending s in
  (Mat.select_cols u order, Array.map (fun i -> s.(i)) order, Mat.select_cols v order)

let check_finite op a =
  let m, n = Mat.dims a in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      if not (Float.is_finite (Mat.get a i j)) then
        invalid_arg
          (Printf.sprintf "%s: non-finite entry %g at (%d, %d) of %dx%d input"
             op (Mat.get a i j) i j m n)
    done
  done

(* Row-major [rows x k] matrix whose column [j] is column [order.(j)]
   of the column-major [x] with [rows] rows. *)
let of_columns x rows order =
  Mat.init rows (Array.length order) (fun i j -> x.((order.(j) * rows) + i))

let factor a =
  check_finite "Svd.factor" a;
  let m, n = Mat.dims a in
  if m = 0 || n = 0 then
    { u = Mat.create m 0; s = [||]; v = Mat.create n 0 }
  else begin
    (* the tall side, column-major: for a tall a, the row-major data of
       transpose a; for a wide a, a's own row-major data, which is the
       column-major storage of the tall transpose a *)
    let tall = m >= n in
    let work = if tall then (Mat.transpose a).Mat.data else Array.copy a.Mat.data in
    let rows, cols = if tall then (m, n) else (n, m) in
    let w, v = golub_reinsch work rows cols in
    let order = descending w in
    let left = of_columns work rows order and right = of_columns v cols order in
    let s = Array.map (fun i -> w.(i)) order in
    if tall then { u = left; s; v = right } else { u = right; s; v = left }
  end

let jacobi_tall a0 =
  (* One-sided Jacobi on a tall matrix: orthogonalize the columns by plane
     rotations; the column norms become the singular values. *)
  let m, n = Mat.dims a0 in
  let a = Mat.to_arrays a0 in
  let v = Array.make_matrix n n 0.0 in
  for i = 0 to n - 1 do
    v.(i).(i) <- 1.0
  done;
  let eps = 1e-14 in
  let max_sweeps = 60 in
  let rotated = ref true in
  let sweep = ref 0 in
  while !rotated && !sweep < max_sweeps do
    rotated := false;
    incr sweep;
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        let app = ref 0.0 and aqq = ref 0.0 and apq = ref 0.0 in
        for i = 0 to m - 1 do
          app := !app +. (a.(i).(p) *. a.(i).(p));
          aqq := !aqq +. (a.(i).(q) *. a.(i).(q));
          apq := !apq +. (a.(i).(p) *. a.(i).(q))
        done;
        if Float.abs !apq > eps *. sqrt (!app *. !aqq) then begin
          rotated := true;
          let zeta = (!aqq -. !app) /. (2.0 *. !apq) in
          let t = sign_of 1.0 zeta /. (Float.abs zeta +. sqrt (1.0 +. (zeta *. zeta))) in
          let c = 1.0 /. sqrt (1.0 +. (t *. t)) in
          let s = c *. t in
          for i = 0 to m - 1 do
            let tp = a.(i).(p) in
            let tq = a.(i).(q) in
            a.(i).(p) <- (c *. tp) -. (s *. tq);
            a.(i).(q) <- (s *. tp) +. (c *. tq)
          done;
          for i = 0 to n - 1 do
            let tp = v.(i).(p) in
            let tq = v.(i).(q) in
            v.(i).(p) <- (c *. tp) -. (s *. tq);
            v.(i).(q) <- (s *. tp) +. (c *. tq)
          done
        end
      done
    done
  done;
  let s = Array.make n 0.0 in
  for j = 0 to n - 1 do
    let acc = ref 0.0 in
    for i = 0 to m - 1 do
      acc := !acc +. (a.(i).(j) *. a.(i).(j))
    done;
    s.(j) <- sqrt !acc;
    if s.(j) > 0.0 then
      for i = 0 to m - 1 do
        a.(i).(j) <- a.(i).(j) /. s.(j)
      done
  done;
  let u, s, v = sort_svd (Mat.of_arrays a) s (Mat.of_arrays v) in
  { u; s; v }

let factor_jacobi a =
  check_finite "Svd.factor_jacobi" a;
  let m, n = Mat.dims a in
  if m = 0 || n = 0 then { u = Mat.create m 0; s = [||]; v = Mat.create n 0 }
  else if m >= n then jacobi_tall a
  else begin
    let { u; s; v } = jacobi_tall (Mat.transpose a) in
    { u = v; s; v = u }
  end

let default_tol { u; s; v } =
  let m, _ = Mat.dims u in
  let n, _ = Mat.dims v in
  if Array.length s = 0 then 0.0
  else float_of_int (max m n) *. epsilon_float *. s.(0)

let rank ?tol f =
  let tol = match tol with Some t -> t | None -> default_tol f in
  Array.fold_left (fun acc sv -> if sv > tol then acc + 1 else acc) 0 f.s

let reconstruct { u; s; v } =
  let k = Array.length s in
  let m, _ = Mat.dims u in
  let us = Mat.init m k (fun i j -> Mat.get u i j *. s.(j)) in
  Mat.mul_nt us v

let pinv ?tol f =
  let tol = match tol with Some t -> t | None -> default_tol f in
  let k = Array.length f.s in
  let n, _ = Mat.dims f.v in
  let vs = Mat.init n k (fun i j -> if f.s.(j) > tol then Mat.get f.v i j /. f.s.(j) else 0.0) in
  Mat.mul_nt vs f.u

let nuclear_norm f = Array.fold_left ( +. ) 0.0 f.s
