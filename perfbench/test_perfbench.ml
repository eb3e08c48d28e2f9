(* The benchmark's own tests: span arithmetic, request grouping, and
   correctness checks that fail on wrong answers. *)

open Perfbench

let span ?parent ?req id name start stop = { Trace.id; name; parent; req; start; stop }
let close = Alcotest.float 1e-12

(* root [0,10] with children a [1,4], b [3,6] (overlapping a), c [8,12]
   (running past the root), and a grandchild under a *)
let tree =
  [
    span 0 "root" 0.0 10.0;
    span ~parent:0 1 "a" 1.0 4.0;
    span ~parent:0 2 "b" 3.0 6.0;
    span ~parent:0 3 "c" 8.0 12.0;
    span ~parent:1 4 "a.child" 2.0 3.0;
  ]

let find id = List.find (fun s -> s.Trace.id = id) tree

let test_self_time () =
  (* children cover [1,6] and [8,10] of the root: 7 of its 10 s *)
  Alcotest.check close "root" 3.0 (Trace.self_time tree (find 0));
  Alcotest.check close "a" 2.0 (Trace.self_time tree (find 1));
  Alcotest.check close "leaf" 1.0 (Trace.self_time tree (find 4))

let test_request_grouping () =
  let spans =
    [
      span ~req:7 0 "tester.predict" 0.0 1.0;
      span ~req:9 1 "tester.tune" 0.5 0.6;
      span ~req:7 2 "serve.handle.predict" 2.0 2.5;
      span 3 "store.wal_append" 3.0 3.1;
      span ~req:7 4 "client.decode.predict" 2.6 2.7;
    ]
  in
  let groups = Trace.by_request spans in
  Alcotest.(check (list int)) "ids" [ 7; 9 ] (List.map fst groups);
  Alcotest.(check (list string))
    "request 7 in order"
    [ "tester.predict"; "serve.handle.predict"; "client.decode.predict" ]
    (List.map (fun s -> s.Trace.name) (List.assoc 7 groups))

let test_recorder () =
  let tr = Trace.create () in
  let x =
    Trace.span tr ~req:3 "outer" (fun parent -> Trace.span tr ~parent "inner" (fun _ -> 41) + 1)
  in
  Alcotest.(check int) "value" 42 x;
  (match Trace.spans tr with
   | [ o; i ] ->
     Alcotest.(check string) "outer first" "outer" o.Trace.name;
     Alcotest.(check (option int)) "parent" (Some o.Trace.id) i.Trace.parent;
     Alcotest.(check (option int)) "request" (Some 3) o.Trace.req
   | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l));
  ignore (Trace.span Trace.off "nothing" (fun _ -> ()));
  Alcotest.(check int) "off records nothing" 0 (List.length (Trace.spans Trace.off))

let test_tail () =
  Alcotest.(check bool) "ten samples have no tail" true (Measure.tail (List.init 10 float_of_int) = None);
  match Measure.tail (List.init 20 float_of_int) with
  | None -> Alcotest.fail "tail of 20"
  | Some t ->
    Alcotest.check close "value" 9.0 t.Measure.value;
    Alcotest.check close "percentile" 50.0 t.Measure.pct;
    Alcotest.(check int) "samples" 20 t.Measure.samples

let is_error = function Ok () -> false | Error _ -> true

let test_prediction_check () =
  let expected = Linalg.Mat.init 3 4 (fun i j -> float_of_int ((i * 4) + j) +. 0.25) in
  Alcotest.(check bool) "identical" false (is_error (Checks.prediction ~expected ~got:(Linalg.Mat.copy expected)));
  let got = Linalg.Mat.copy expected in
  Linalg.Mat.set got 2 3 (Float.succ (Linalg.Mat.get got 2 3));
  Alcotest.(check bool) "one ulp off" true (is_error (Checks.prediction ~expected ~got))

let test_selection_check () =
  let reference = [| 3; 17; 250 |] in
  let ok indices = not (is_error (Checks.selection ~reference ~indices)) in
  Alcotest.(check bool) "reference" true (ok [| 3; 17; 250 |]);
  Alcotest.(check bool) "off by one" false (ok [| 3; 18; 250 |]);
  Alcotest.(check bool) "one missing" false (ok [| 3; 17 |]);
  Alcotest.(check bool) "within eps" false (is_error (Checks.tolerance ~eps_r:0.05 ~eps:0.05));
  Alcotest.(check bool) "eps_r over eps" true (is_error (Checks.tolerance ~eps_r:0.051 ~eps:0.05))

let test_durability_check () =
  Alcotest.(check bool) "all journaled" false (is_error (Checks.durable ~acked:32 ~journaled:32));
  Alcotest.(check bool) "dropped observe" true (is_error (Checks.durable ~acked:32 ~journaled:31));
  Alcotest.(check bool) "no reselect" false (is_error (Checks.no_reselect ~reselects:0));
  Alcotest.(check bool) "reselect" true (is_error (Checks.no_reselect ~reselects:1))

let test_tune_check () =
  let buffers = [| { Tune.paths = [| 0; 1 |]; levels = [| { Tune.offset_ps = 0.0; cost = 0.0 }; { Tune.offset_ps = -10.0; cost = 1.0 } |] } |] in
  let want = [| Tune.solve { Tune.delays = [| 105.0; 90.0 |]; t_clk = 100.0; buffers } |] in
  let asg = match want.(0) with Tune.Feasible a -> a | Tune.Infeasible _ -> Alcotest.fail "feasible" in
  let row levels cost =
    let open Serve.Wire in
    Obj
      [
        ("levels", List (List.map (fun l -> Int l) levels));
        ("cost", Float cost);
        ("slack_ps", Float asg.Tune.slack_ps);
        ("exact", Bool asg.Tune.exact);
      ]
  in
  let resp rows = Serve.Wire.Obj [ ("ok", Serve.Wire.Bool true); ("results", Serve.Wire.List rows) ] in
  let levels = Array.to_list asg.Tune.levels in
  Alcotest.(check bool) "same answer" false (is_error (Checks.tune ~want ~resp:(resp [ row levels asg.Tune.cost ])));
  Alcotest.(check bool) "other level" true (is_error (Checks.tune ~want ~resp:(resp [ row [ 0 ] asg.Tune.cost ])));
  Alcotest.(check bool) "cost bits" true
    (is_error (Checks.tune ~want ~resp:(resp [ row levels (Float.succ asg.Tune.cost) ])));
  Alcotest.(check bool) "missing die" true (is_error (Checks.tune ~want ~resp:(resp [])))

let () =
  Alcotest.run "perfbench"
    [
      ( "trace",
        [
          Alcotest.test_case "self time on a span tree" `Quick test_self_time;
          Alcotest.test_case "spans grouped by request id" `Quick test_request_grouping;
          Alcotest.test_case "recorder nests spans" `Quick test_recorder;
          Alcotest.test_case "tail percentile" `Quick test_tail;
        ] );
      ( "checks",
        [
          Alcotest.test_case "perturbed prediction fails" `Quick test_prediction_check;
          Alcotest.test_case "off-by-one selection fails" `Quick test_selection_check;
          Alcotest.test_case "dropped observe fails" `Quick test_durability_check;
          Alcotest.test_case "wrong tune answer fails" `Quick test_tune_check;
        ] );
    ]
