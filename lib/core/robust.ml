type t = {
  base : Predictor.t;
  rep : int array;
  rem : int array;
  gram : Linalg.Mat.t;   (* r x r       = A_r A_r^T *)
  cross : Linalg.Mat.t;  (* r x (n-r)   = A_r A_m^T *)
  mu_rep : Linalg.Vec.t;
  mu_rem : Linalg.Vec.t;
}

let build ~a ~mu ~rep =
  let base = Predictor.build ~a ~mu ~rep in
  let rem = Predictor.rem_indices base in
  let a_r = Linalg.Mat.select_rows a rep in
  let a_m = Linalg.Mat.select_rows a rem in
  (* gram/cross assemble on the domain pool, same as Predictor.build *)
  {
    base;
    rep = Array.copy rep;
    rem;
    gram = Linalg.Mat.gram a_r;
    cross = Linalg.Mat.mul_nt a_r a_m;
    mu_rep = Array.map (fun i -> mu.(i)) rep;
    mu_rem = Array.map (fun i -> mu.(i)) rem;
  }

let of_selection ~a ~mu sel = build ~a ~mu ~rep:sel.Select.indices

let base_predictor t = t.base

(* ------------------------------------------------------------------ *)
(* Serialization support *)

type blocks = {
  gram : Linalg.Mat.t;
  cross : Linalg.Mat.t;
}

let export_blocks (t : t) =
  { gram = Linalg.Mat.copy t.gram; cross = Linalg.Mat.copy t.cross }

let of_parts ~base ({ gram; cross } : blocks) =
  let rep = Predictor.rep_indices base and rem = Predictor.rem_indices base in
  let r = Array.length rep and nrem = Array.length rem in
  let gr, gc = Linalg.Mat.dims gram in
  if gr <> r || gc <> r then invalid_arg "Robust.of_parts: gram dims mismatch";
  let cr, cc = Linalg.Mat.dims cross in
  if cr <> r || cc <> nrem then invalid_arg "Robust.of_parts: cross dims mismatch";
  {
    base;
    rep;
    rem;
    gram = Linalg.Mat.copy gram;
    cross = Linalg.Mat.copy cross;
    mu_rep = Predictor.mu_rep base;
    mu_rem = Predictor.mu_rem base;
  }

(* ------------------------------------------------------------------ *)
(* Outlier / missing-data screen *)

type screen_report = {
  mask : bool array array;
  missing : int;
  outliers : int;
  clean : bool;
}

let default_mad_threshold = 6.0

let screen ?(mad_threshold = default_mad_threshold) t ~measured =
  if mad_threshold <= 0.0 then invalid_arg "Robust.screen: mad_threshold <= 0";
  let dies, r = Linalg.Mat.dims measured in
  if r <> Array.length t.rep then
    invalid_arg "Robust.screen: measurement width mismatch";
  let mask = Array.init dies (fun _ -> Array.make r true) in
  let missing = ref 0 in
  let outliers = ref 0 in
  for j = 0 to r - 1 do
    let finite = ref [] in
    for i = dies - 1 downto 0 do
      let v = Linalg.Mat.get measured i j in
      if Float.is_finite v then finite := v :: !finite
      else begin
        mask.(i).(j) <- false;
        incr missing
      end
    done;
    let finite = Array.of_list !finite in
    (* median-absolute-deviation screen across dies: a path's delay is
       near-Gaussian over the population, so |x - med| > k * 1.4826 MAD
       flags gross errors (stuck codes, glitches) without being pulled
       by them the way mean/stddev would. Degenerate columns (MAD = 0,
       e.g. coarse quantization collapsing most codes) are left alone:
       there is no robust scale to screen against. *)
    if Array.length finite >= 4 then begin
      let med = Stats.Descriptive.quantile finite 0.5 in
      let absdev = Array.map (fun x -> Float.abs (x -. med)) finite in
      let mad = Stats.Descriptive.quantile absdev 0.5 in
      let scale = 1.4826 *. mad in
      if scale > 0.0 then
        for i = 0 to dies - 1 do
          if mask.(i).(j) then begin
            let v = Linalg.Mat.get measured i j in
            if Float.abs (v -. med) > mad_threshold *. scale then begin
              mask.(i).(j) <- false;
              incr outliers
            end
          end
        done
    end
  done;
  { mask; missing = !missing; outliers = !outliers;
    clean = !missing = 0 && !outliers = 0 }

(* ------------------------------------------------------------------ *)
(* Reduced-system predictor *)

type prediction = {
  predicted : Linalg.Mat.t;
  screened : screen_report;
  resolves : int;
  ridge_fallbacks : int;
  dead_dies : int;
}

let default_cond_limit = 1e10
let default_ridge = 1e-6

(* Condition estimate from the Cholesky pivots: cond(G_S) ~ (max l_ii /
   min l_ii)^2. Cheap (the factor is needed for the solve anyway) and
   conservative enough to gate the ridge fallback. *)
let try_factor ~cond_limit g =
  match Linalg.Cholesky.factor g with
  | exception Linalg.Cholesky.Not_positive_definite -> None
  | l ->
    let k, _ = Linalg.Mat.dims l in
    let dmin = ref Float.infinity and dmax = ref 0.0 in
    for i = 0 to k - 1 do
      let d = Linalg.Mat.get l i i in
      if d < !dmin then dmin := d;
      if d > !dmax then dmax := d
    done;
    let ratio = !dmax /. Float.max 1e-300 !dmin in
    if ratio *. ratio > cond_limit then None else Some l

(* Solve G_S W_S^T = C_S for the reduced Theorem-2 weights. The full
   Gram and cross products are cached in [t], so a degraded die costs
   one |S| x |S| Cholesky solve — no refactorization of A. *)
let solve_pattern t ~cond_limit ~ridge s_idx =
  let k = Array.length s_idx in
  let ncols = Array.length t.rem in
  let g = Linalg.Mat.init k k (fun i j -> Linalg.Mat.get t.gram s_idx.(i) s_idx.(j)) in
  let c = Linalg.Mat.init k ncols (fun i j -> Linalg.Mat.get t.cross s_idx.(i) j) in
  let solve_with l =
    let w = Linalg.Mat.create ncols k in
    for j = 0 to ncols - 1 do
      let x = Linalg.Cholesky.solve l (Linalg.Mat.col c j) in
      for i = 0 to k - 1 do
        Linalg.Mat.set w j i x.(i)
      done
    done;
    w
  in
  match try_factor ~cond_limit g with
  | Some l -> (solve_with l, false)
  | None ->
    (* ill-posed reduced system: Tikhonov ridge, scaled to the Gram's
       magnitude, restores definiteness at a small bias cost *)
    let trace = ref 0.0 in
    for i = 0 to k - 1 do
      trace := !trace +. Linalg.Mat.get g i i
    done;
    let lambda = Float.max 1e-300 (ridge *. !trace /. float_of_int k) in
    let g' = Linalg.Mat.init k k (fun i j ->
        Linalg.Mat.get g i j +. if i = j then lambda else 0.0)
    in
    (match Linalg.Cholesky.factor g' with
     | l -> (solve_with l, true)
     | exception Linalg.Cholesky.Not_positive_definite ->
       (* pathological even after the ridge: SVD pseudo-inverse *)
       (Linalg.Mat.transpose (Linalg.Pinv.solve_gram g' c), true))

let pattern_key mask_row =
  let b = Bytes.create (Array.length mask_row) in
  Array.iteri (fun j m -> Bytes.set b j (if m then '1' else '0')) mask_row;
  Bytes.unsafe_to_string b

let predict_all ?mad_threshold ?(cond_limit = default_cond_limit)
    ?(ridge = default_ridge) t ~measured =
  if cond_limit <= 1.0 then invalid_arg "Robust.predict_all: cond_limit <= 1";
  if ridge <= 0.0 then invalid_arg "Robust.predict_all: ridge <= 0";
  let screened = screen ?mad_threshold t ~measured in
  let dies, r = Linalg.Mat.dims measured in
  let nrem = Array.length t.rem in
  if screened.clean then
    (* every entry usable: the baseline Theorem-2 predictor applies
       verbatim (bit-for-bit identical to Evaluate.predictor_metrics) *)
    { predicted = Predictor.predict_all t.base ~measured; screened;
      resolves = 0; ridge_fallbacks = 0; dead_dies = 0 }
  else begin
    let cache : (string, Linalg.Mat.t * bool) Hashtbl.t = Hashtbl.create 16 in
    let full_key = pattern_key (Array.make r true) in
    Hashtbl.replace cache full_key (Predictor.weights t.base, false);
    let resolves = ref 0 in
    let ridge_fallbacks = ref 0 in
    let dead_dies = ref 0 in
    let predicted = Linalg.Mat.create dies nrem in
    for i = 0 to dies - 1 do
      let mask_row = screened.mask.(i) in
      let s_idx =
        let out = ref [] in
        for j = r - 1 downto 0 do
          if mask_row.(j) then out := j :: !out
        done;
        Array.of_list !out
      in
      if Array.length s_idx = 0 then begin
        (* nothing measured on this die: fall back to the population
           mean of every remaining path *)
        incr dead_dies;
        for j = 0 to nrem - 1 do
          Linalg.Mat.set predicted i j t.mu_rem.(j)
        done
      end
      else begin
        let key = pattern_key mask_row in
        let w, _ =
          match Hashtbl.find_opt cache key with
          | Some v -> v
          | None ->
            incr resolves;
            let v = solve_pattern t ~cond_limit ~ridge s_idx in
            if snd v then incr ridge_fallbacks;
            Hashtbl.replace cache key v;
            v
        in
        let centered =
          Array.map (fun j -> Linalg.Mat.get measured i j -. t.mu_rep.(j)) s_idx
        in
        let row = Linalg.Mat.apply w centered in
        for j = 0 to nrem - 1 do
          Linalg.Mat.set predicted i j (t.mu_rem.(j) +. row.(j))
        done
      end
    done;
    { predicted; screened; resolves = !resolves;
      ridge_fallbacks = !ridge_fallbacks; dead_dies = !dead_dies }
  end

let metrics pr ~truth = Evaluate.of_predictions ~truth ~predicted:pr.predicted

let predictor_metrics ?mad_threshold ?cond_limit ?ridge t ~measured ~path_delays =
  let truth = Linalg.Mat.select_cols path_delays t.rem in
  let pr = predict_all ?mad_threshold ?cond_limit ?ridge t ~measured in
  (pr, metrics pr ~truth)
