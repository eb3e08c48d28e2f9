(* Correctness checks on the program's outputs. Each returns [Error]
   with a one-line reason; the workloads count every [Error] as a
   failed operation. *)

let bits_equal m1 m2 =
  Linalg.Mat.dims m1 = Linalg.Mat.dims m2
  &&
  let r, c = Linalg.Mat.dims m1 in
  let ok = ref true in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      if Int64.bits_of_float (Linalg.Mat.get m1 i j) <> Int64.bits_of_float (Linalg.Mat.get m2 i j)
      then ok := false
    done
  done;
  !ok

let float_bits_equal a b = Int64.bits_of_float a = Int64.bits_of_float b

let show_indices a = String.concat "," (Array.to_list (Array.map string_of_int a))

(* Selected rows equal the recorded reference. *)
let selection ~reference ~indices =
  if indices = reference then Ok ()
  else
    Error (Printf.sprintf "selected [%s], reference [%s]" (show_indices indices) (show_indices reference))

(* The achieved worst-case error meets the requested tolerance. *)
let tolerance ~eps_r ~eps =
  if eps_r <= eps then Ok () else Error (Printf.sprintf "eps_r %.6g exceeds eps %.6g" eps_r eps)

(* A served prediction equals the local Theorem-2 apply bit for bit. *)
let prediction ~expected ~got =
  if bits_equal expected got then Ok () else Error "served prediction differs from local predict_all"

let int_of = function Serve.Wire.Int n -> Some n | _ -> None

let float_of = function
  | Serve.Wire.Float x -> Some x
  | Serve.Wire.Int n -> Some (float_of_int n)
  | _ -> None

(* A served tune answer equals the local [Tune.solve] of every die:
   same levels, same cost and slack bits, same exactness flag. *)
let tune ~(want : Tune.result array) ~resp =
  let rows =
    match Serve.Wire.member "results" resp with Some (Serve.Wire.List l) -> Array.of_list l | _ -> [||]
  in
  if Array.length rows <> Array.length want then
    Error (Printf.sprintf "tune: %d results for %d dies" (Array.length rows) (Array.length want))
  else
    let bad = ref None in
    Array.iteri
      (fun i (w : Tune.result) ->
        let row = rows.(i) in
        let same =
          match w with
          | Tune.Infeasible _ -> false
          | Tune.Feasible asg ->
            let levels =
              match Serve.Wire.member "levels" row with
              | Some (Serve.Wire.List ls) -> List.filter_map int_of ls
              | _ -> []
            in
            let fl key = Option.bind (Serve.Wire.member key row) float_of in
            levels = Array.to_list asg.Tune.levels
            && Option.fold ~none:false ~some:(float_bits_equal asg.Tune.cost) (fl "cost")
            && Option.fold ~none:false ~some:(float_bits_equal asg.Tune.slack_ps) (fl "slack_ps")
            && Serve.Wire.member "exact" row = Some (Serve.Wire.Bool asg.Tune.exact)
        in
        if (not same) && !bad = None then bad := Some i)
      want;
    match !bad with None -> Ok () | Some i -> Error (Printf.sprintf "tune: die %d differs from local Tune.solve" i)

(* After a SIGKILL and restart, the journal must hold every observation
   that was acknowledged before the kill. *)
let durable ~acked ~journaled =
  if journaled >= acked then Ok ()
  else Error (Printf.sprintf "%d acked observations lost across the restart" (acked - journaled))

(* A drift-free die stream must not trigger a re-selection. *)
let no_reselect ~reselects =
  if reselects = 0 then Ok () else Error (Printf.sprintf "%d re-selections on a drift-free stream" reselects)
