type t = float array

let create n = Array.make n 0.0

let init = Array.init

let copy = Array.copy

let dim = Array.length

let of_list = Array.of_list

let to_list = Array.to_list

let fill x c = Array.fill x 0 (Array.length x) c

let map = Array.map

let check_dims name x y =
  if Array.length x <> Array.length y then
    invalid_arg (Printf.sprintf "Vec.%s: dimensions %d and %d differ"
                   name (Array.length x) (Array.length y))

let map2 f x y =
  check_dims "map2" x y;
  Array.init (Array.length x) (fun i -> f x.(i) y.(i))

let add x y = map2 ( +. ) x y

let sub x y = map2 ( -. ) x y

let scale a x = Array.map (fun v -> a *. v) x

let axpy a x y =
  check_dims "axpy" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (a *. x.(i))
  done

let dot x y =
  check_dims "dot" x y;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

(* Range kernels over flat storage: one bounds check up front, then
   unchecked loops. Each output element is computed exactly as the
   plain loop would, in ascending index order. *)
let check_range name x xo y yo len =
  if len < 0 || xo < 0 || yo < 0 || xo + len > Array.length x || yo + len > Array.length y
  then invalid_arg (Printf.sprintf "Vec.%s: range out of bounds" name)

let dot_range x xo y yo len =
  check_range "dot_range" x xo y yo len;
  let acc = ref 0.0 in
  for p = 0 to len - 1 do
    acc := !acc +. (Array.unsafe_get x (xo + p) *. Array.unsafe_get y (yo + p))
  done;
  !acc

let dots_range x xo y yo ~stride ~count len out =
  if count < 0 || stride < 0 || Array.length out < count then
    invalid_arg "Vec.dots_range: bad count or stride";
  if count > 0 then begin
    check_range "dots_range" x xo y yo len;
    check_range "dots_range" x xo y (yo + ((count - 1) * stride)) len
  end;
  (* four dot products per pass: independent accumulators hide the add
     latency, and each still sums its products in ascending order *)
  let t = ref 0 in
  while !t + 3 < count do
    let y0 = yo + (!t * stride) in
    let y1 = y0 + stride and y2 = y0 + (2 * stride) and y3 = y0 + (3 * stride) in
    let acc0 = ref 0.0 and acc1 = ref 0.0 and acc2 = ref 0.0 and acc3 = ref 0.0 in
    for p = 0 to len - 1 do
      let xv = Array.unsafe_get x (xo + p) in
      acc0 := !acc0 +. (xv *. Array.unsafe_get y (y0 + p));
      acc1 := !acc1 +. (xv *. Array.unsafe_get y (y1 + p));
      acc2 := !acc2 +. (xv *. Array.unsafe_get y (y2 + p));
      acc3 := !acc3 +. (xv *. Array.unsafe_get y (y3 + p))
    done;
    out.(!t) <- !acc0;
    out.(!t + 1) <- !acc1;
    out.(!t + 2) <- !acc2;
    out.(!t + 3) <- !acc3;
    t := !t + 4
  done;
  while !t < count do
    out.(!t) <- dot_range x xo y (yo + (!t * stride)) len;
    incr t
  done

let axpy_range a x xo y yo len =
  check_range "axpy_range" x xo y yo len;
  for p = 0 to len - 1 do
    Array.unsafe_set y (yo + p)
      (Array.unsafe_get y (yo + p) +. (a *. Array.unsafe_get x (xo + p)))
  done

let axpys_range alpha ao x xo ~stride ~count y yo len =
  if count < 0 || stride < 0 || ao < 0 || ao + count > Array.length alpha then
    invalid_arg "Vec.axpys_range: bad count, stride or coefficient range";
  if count > 0 then begin
    check_range "axpys_range" x xo y yo len;
    check_range "axpys_range" x (xo + ((count - 1) * stride)) y yo len
  end;
  (* four ranges per pass: y is loaded and stored once per group, and
     each element still adds its terms in ascending order *)
  let t = ref 0 in
  while !t + 3 < count do
    let x0 = xo + (!t * stride) in
    let x1 = x0 + stride and x2 = x0 + (2 * stride) and x3 = x0 + (3 * stride) in
    let a0 = alpha.(ao + !t) and a1 = alpha.(ao + !t + 1) and a2 = alpha.(ao + !t + 2)
    and a3 = alpha.(ao + !t + 3) in
    for p = 0 to len - 1 do
      let acc = Array.unsafe_get y (yo + p) +. (a0 *. Array.unsafe_get x (x0 + p)) in
      let acc = acc +. (a1 *. Array.unsafe_get x (x1 + p)) in
      let acc = acc +. (a2 *. Array.unsafe_get x (x2 + p)) in
      Array.unsafe_set y (yo + p) (acc +. (a3 *. Array.unsafe_get x (x3 + p)))
    done;
    t := !t + 4
  done;
  while !t < count do
    axpy_range alpha.(ao + !t) x (xo + (!t * stride)) y yo len;
    incr t
  done

let rank1_range alpha ao x xo y yo ~stride ~count len =
  if count < 0 || stride < 0 || ao < 0 || ao + count > Array.length alpha then
    invalid_arg "Vec.rank1_range: bad count, stride or coefficient range";
  if count > 0 then begin
    check_range "rank1_range" x xo y yo len;
    check_range "rank1_range" x xo y (yo + ((count - 1) * stride)) len
  end;
  (* four ranges of y per pass share each load of x *)
  let t = ref 0 in
  while !t + 3 < count do
    let y0 = yo + (!t * stride) in
    let y1 = y0 + stride and y2 = y0 + (2 * stride) and y3 = y0 + (3 * stride) in
    let a0 = alpha.(ao + !t) and a1 = alpha.(ao + !t + 1) and a2 = alpha.(ao + !t + 2)
    and a3 = alpha.(ao + !t + 3) in
    for p = 0 to len - 1 do
      let xv = Array.unsafe_get x (xo + p) in
      Array.unsafe_set y (y0 + p) (Array.unsafe_get y (y0 + p) +. (a0 *. xv));
      Array.unsafe_set y (y1 + p) (Array.unsafe_get y (y1 + p) +. (a1 *. xv));
      Array.unsafe_set y (y2 + p) (Array.unsafe_get y (y2 + p) +. (a2 *. xv));
      Array.unsafe_set y (y3 + p) (Array.unsafe_get y (y3 + p) +. (a3 *. xv))
    done;
    t := !t + 4
  done;
  while !t < count do
    axpy_range alpha.(ao + !t) x xo y (yo + (!t * stride)) len;
    incr t
  done

let rot_range ~c ~s x xo y yo len =
  check_range "rot_range" x xo y yo len;
  for p = 0 to len - 1 do
    let u = Array.unsafe_get x (xo + p) in
    let v = Array.unsafe_get y (yo + p) in
    Array.unsafe_set x (xo + p) ((u *. c) +. (v *. s));
    Array.unsafe_set y (yo + p) ((v *. c) -. (u *. s))
  done

let rot2_range ~c1 ~s1 ~c2 ~s2 x o1 o2 o3 len =
  check_range "rot2_range" x o1 x o2 len;
  check_range "rot2_range" x o3 x o3 len;
  (* the middle element stays in a register between the two rotations *)
  for p = 0 to len - 1 do
    let u = Array.unsafe_get x (o1 + p) in
    let v = Array.unsafe_get x (o2 + p) in
    let w = Array.unsafe_get x (o3 + p) in
    Array.unsafe_set x (o1 + p) ((u *. c1) +. (v *. s1));
    let v = (v *. c1) -. (u *. s1) in
    Array.unsafe_set x (o2 + p) ((v *. c2) +. (w *. s2));
    Array.unsafe_set x (o3 + p) ((w *. c2) -. (v *. s2))
  done

(* Two-pass scaled norm: immune to overflow/underflow of the squares. *)
let norm2 x =
  let scale_max = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    let a = Float.abs x.(i) in
    if a > !scale_max then scale_max := a
  done;
  if Float.equal !scale_max 0.0 then 0.0
  else begin
    let s = !scale_max in
    let acc = ref 0.0 in
    for i = 0 to Array.length x - 1 do
      let v = x.(i) /. s in
      acc := !acc +. (v *. v)
    done;
    s *. sqrt !acc
  end

let norm_inf x =
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    let a = Float.abs x.(i) in
    if a > !acc then acc := a
  done;
  !acc

let norm1 x =
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. Float.abs x.(i)
  done;
  !acc

let dist2 x y =
  check_dims "dist2" x y;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    let d = x.(i) -. y.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc

let sum x =
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. x.(i)
  done;
  !acc

let mean x =
  if Array.length x = 0 then invalid_arg "Vec.mean: empty vector";
  sum x /. float_of_int (Array.length x)

let max_elt x =
  if Array.length x = 0 then invalid_arg "Vec.max_elt: empty vector";
  Array.fold_left Float.max x.(0) x

let min_elt x =
  if Array.length x = 0 then invalid_arg "Vec.min_elt: empty vector";
  Array.fold_left Float.min x.(0) x

let argmax x =
  if Array.length x = 0 then invalid_arg "Vec.argmax: empty vector";
  let best = ref 0 in
  for i = 1 to Array.length x - 1 do
    if x.(i) > x.(!best) then best := i
  done;
  !best

let equal ?(tol = 1e-12) x y =
  Array.length x = Array.length y
  && begin
    let ok = ref true in
    for i = 0 to Array.length x - 1 do
      if Float.abs (x.(i) -. y.(i)) > tol then ok := false
    done;
    !ok
  end

let pp fmt x =
  Format.fprintf fmt "[|";
  Array.iteri
    (fun i v -> if i > 0 then Format.fprintf fmt "; %g" v else Format.fprintf fmt "%g" v)
    x;
  Format.fprintf fmt "|]"
