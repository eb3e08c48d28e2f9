(* Spans recorded around the benchmark's own calls into each layer.

   A span has a name, a start and end (wall clock, seconds), the span
   that caused it, and the request it belongs to. Spans stay in memory
   and are written out when the run ends; a recorder made with [off]
   records nothing and costs one branch per call. *)

type span = {
  id : int;
  name : string;
  parent : int option;
  req : int option;
  start : float;
  stop : float;
}

type t = {
  on : bool;
  lock : Mutex.t;
  mutable next : int;
  mutable acc : span list;
}

let off = { on = false; lock = Mutex.create (); next = 0; acc = [] }
let create () = { on = true; lock = Mutex.create (); next = 0; acc = [] }
let enabled t = t.on

let fresh_id t =
  Mutex.lock t.lock;
  let id = t.next in
  t.next <- id + 1;
  Mutex.unlock t.lock;
  id

let record t s =
  Mutex.lock t.lock;
  t.acc <- s :: t.acc;
  Mutex.unlock t.lock

let span t ?parent ?req name f =
  if not t.on then f (-1)
  else begin
    let id = fresh_id t in
    let start = Unix.gettimeofday () in
    let finish () = record t { id; name; parent; req; start; stop = Unix.gettimeofday () } in
    Fun.protect ~finally:finish (fun () -> f id)
  end

let spans t =
  Mutex.lock t.lock;
  let l = t.acc in
  Mutex.unlock t.lock;
  List.stable_sort (fun a b -> compare (a.start, a.id) (b.start, b.id)) l

let duration s = s.stop -. s.start

(* Length of the union of [intervals], each clipped to [lo, hi]:
   children that overlap each other (spans from concurrent threads)
   are not counted twice. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let children spans s = List.filter (fun c -> c.parent = Some s.id) spans

let self_time spans s =
  duration s
  -. covered ~lo:s.start ~hi:s.stop
       (List.map (fun c -> (c.start, c.stop)) (children spans s))

let named spans name = List.filter (fun s -> s.name = name) spans

let by_request spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.req with
      | None -> ()
      | Some r ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt tbl r) in
        Hashtbl.replace tbl r (s :: prev))
    spans;
  Hashtbl.fold (fun r l acc -> (r, List.rev l) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let to_json spans =
  let open Serve.Wire in
  let opt = function None -> Null | Some i -> Int i in
  List
    (List.map
       (fun s ->
         Obj
           [
             ("id", Int s.id);
             ("name", String s.name);
             ("parent", opt s.parent);
             ("req", opt s.req);
             ("start", Float s.start);
             ("stop", Float s.stop);
           ])
       spans)
