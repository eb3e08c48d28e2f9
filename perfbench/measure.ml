(* Timing, summary statistics, memory readings and the result line. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let sorted l = List.sort Float.compare l

let median l =
  match sorted l with
  | [] -> Float.nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* The highest percentile that still has at least ten samples beyond
   it: with [n] sorted samples that is the (n-10)-th smallest, at
   percentile 100 (n-10)/n. [None] below eleven samples. *)
type tail = { value : float; pct : float; samples : int }

let tail l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n < 11 then None
  else Some { value = a.(n - 11); pct = 100.0 *. float_of_int (n - 10) /. float_of_int n; samples = n }

(* Peak resident set (VmHWM) of a live process, in MB. *)
let peak_rss_mb pid =
  let file = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error _ -> Float.nan
  | text ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          (match String.split_on_char ' ' (String.trim v) with
           | kb :: _ -> (try float_of_string kb /. 1024.0 with Failure _ -> acc)
           | [] -> acc)
        | _ -> acc)
      Float.nan
      (String.split_on_char '\n' text)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let metrics_json metrics =
  let open Serve.Wire in
  Obj (List.map (fun mt -> (mt.name, Obj [ ("value", Float mt.value); ("unit", String mt.unit_) ])) metrics)

(* The last line a run prints, with exactly these four keys. *)
let result_line ~correct ~attempted ~failed metrics =
  let open Serve.Wire in
  print
    (Obj
       [
         ("correct", Bool correct);
         ("attempted", Int attempted);
         ("failed", Int failed);
         ("metrics", metrics_json metrics);
       ])

(* What a workload hands back to bench.ml. [layers] are the per-layer
   readings of a traced run, by metric name. *)
type outcome = {
  attempted : int;
  failures : string list;
  e2e : metric list;
  layers : (string * float) list;
  notes : (string * Serve.Wire.json) list;
  spans : Trace.span list;
}

(* Run [f] back to back until [seconds] have passed and at least
   [min_ops] calls were made; [f i] gets the call's index. *)
let repeat ~seconds ~min_ops f =
  let t0 = now () in
  let rec go i acc =
    if i >= min_ops && now () -. t0 >= seconds then List.rev acc else go (i + 1) (f i :: acc)
  in
  go 0 []
