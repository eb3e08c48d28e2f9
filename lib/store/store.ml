(* Re-export the library's inner modules: the library is wrapped with
   this file as its interface, so [Codec] and [Wal] are only reachable
   as [Store.Codec]/[Store.Wal] through these aliases. *)
module Codec = Codec
module Wal = Wal

type t = {
  fingerprint : string;
  t_cons : float;
  eps : float;
  kappa : float;
  n_paths : int;
  n_segments : int;
  n_vars : int;
  selection : Core.Select.t;
  blocks : Core.Robust.blocks;
  mu : Linalg.Vec.t;
  a_mat : Linalg.Mat.t;
}

let magic = "PSA1"

let current_version = 2

let header_size = 20 (* magic 4 + version 4 + payload length 8 + crc 4 *)

let of_selection ?(fingerprint = "") ?(kappa = Core.Config.default.Core.Config.kappa)
    ?(n_segments = 0) ~t_cons ~eps ~a ~mu (sel : Core.Select.t) =
  let n, m = Linalg.Mat.dims a in
  if Array.length mu <> n then invalid_arg "Store.of_selection: mu length mismatch";
  let rep = sel.Core.Select.indices in
  let rem = Core.Predictor.rem_indices sel.Core.Select.predictor in
  let a_r = Linalg.Mat.select_rows a rep in
  let a_m = Linalg.Mat.select_rows a rem in
  let blocks =
    { Core.Robust.gram = Linalg.Mat.gram a_r; cross = Linalg.Mat.mul_nt a_r a_m }
  in
  {
    fingerprint;
    t_cons;
    eps;
    kappa;
    n_paths = n;
    n_segments;
    n_vars = m;
    selection = sel;
    blocks;
    mu = Array.copy mu;
    a_mat = a;
  }

let predictor t = t.selection.Core.Select.predictor

let robust t = Core.Robust.of_parts ~base:(predictor t) t.blocks

(* ------------------------------------------------------------------ *)
(* Encoding *)

let encode_payload t =
  let b = Codec.W.create () in
  let sel = t.selection in
  let raw = Core.Predictor.export sel.Core.Select.predictor in
  Codec.W.str b t.fingerprint;
  Codec.W.f64 b t.t_cons;
  Codec.W.f64 b t.eps;
  Codec.W.f64 b t.kappa;
  Codec.W.u32 b t.n_paths;
  Codec.W.u32 b t.n_segments;
  Codec.W.u32 b t.n_vars;
  (* selection bookkeeping *)
  Codec.W.int_array b sel.Core.Select.indices;
  Codec.W.u32 b sel.Core.Select.rank;
  Codec.W.u32 b sel.Core.Select.effective_rank;
  Codec.W.u32 b sel.Core.Select.evaluations;
  Codec.W.f64 b sel.Core.Select.eps_r;
  Codec.W.float_array b sel.Core.Select.per_path_eps;
  (* the Theorem-2 predictor, exactly as built *)
  Codec.W.int_array b raw.Core.Predictor.raw_rep;
  Codec.W.int_array b raw.Core.Predictor.raw_rem;
  Codec.W.mat b raw.Core.Predictor.raw_w;
  Codec.W.float_array b raw.Core.Predictor.raw_mu_rep;
  Codec.W.float_array b raw.Core.Predictor.raw_mu_rem;
  (* Eqn (6)'s error operator: the predictor does not hold it, and the
     selection was made on [a_mat], so it is derived from there *)
  Codec.W.mat b (Core.Predictor.error_operator sel.Core.Select.predictor ~a:t.a_mat);
  Codec.W.float_array b raw.Core.Predictor.raw_sigmas;
  (* the robust predictor's cached reduced-system blocks *)
  Codec.W.mat b t.blocks.Core.Robust.gram;
  Codec.W.mat b t.blocks.Core.Robust.cross;
  (* full per-path means *)
  Codec.W.float_array b t.mu;
  (* v2: the full sensitivity matrix, for decision workloads (yield
     estimation needs every row, not just the reduced blocks) *)
  Codec.W.mat b t.a_mat;
  Codec.W.contents b

let to_bytes t =
  let payload = encode_payload t in
  let b = Buffer.create (header_size + String.length payload) in
  Buffer.add_string b magic;
  Buffer.add_int32_le b (Int32.of_int current_version);
  Buffer.add_int64_le b (Int64.of_int (String.length payload));
  Buffer.add_int32_le b (Int32.of_int (Codec.crc32 payload));
  Buffer.add_string b payload;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Decoding *)

let corrupt file msg = Error (Core.Errors.Corrupt_artifact { file; msg })

let decode_payload ~file payload =
  let r = Codec.R.create payload in
  let fingerprint = Codec.R.str r in
  let t_cons = Codec.R.f64 r in
  let eps = Codec.R.f64 r in
  let kappa = Codec.R.f64 r in
  let n_paths = Codec.R.u32 r in
  let n_segments = Codec.R.u32 r in
  let n_vars = Codec.R.u32 r in
  let indices = Codec.R.int_array r in
  let rank = Codec.R.u32 r in
  let effective_rank = Codec.R.u32 r in
  let evaluations = Codec.R.u32 r in
  let eps_r = Codec.R.f64 r in
  let per_path_eps = Codec.R.float_array r in
  (* sequential let-bindings: record-literal field order of evaluation
     is unspecified, and the reader must consume fields in file order *)
  let raw_rep = Codec.R.int_array r in
  let raw_rem = Codec.R.int_array r in
  let raw_w = Codec.R.mat r in
  let raw_mu_rep = Codec.R.float_array r in
  let raw_mu_rem = Codec.R.float_array r in
  (* the error operator is re-derivable from [a_mat]: check its shape,
     skip its entries *)
  let omr, omc = Codec.R.skip_mat r in
  let raw_sigmas = Codec.R.float_array r in
  let raw =
    { Core.Predictor.raw_rep; raw_rem; raw_w; raw_mu_rep; raw_mu_rem; raw_sigmas }
  in
  let gram = Codec.R.mat r in
  let cross = Codec.R.mat r in
  let mu = Codec.R.float_array r in
  let a_mat = Codec.R.mat r in
  if not (Codec.R.at_end r) then raise (Codec.Malformed "trailing bytes in payload");
  (* structural consistency: every cross-field relationship the encoder
     guarantees is re-checked, so a corrupted-but-CRC-colliding or
     hand-edited payload still fails closed *)
  let fail msg = raise (Codec.Malformed msg) in
  let rsel = Array.length indices in
  if indices <> raw.Core.Predictor.raw_rep then
    fail "selection indices disagree with predictor rows";
  if Array.length mu <> n_paths then fail "mu length disagrees with path count";
  if rsel + Array.length raw.Core.Predictor.raw_rem <> n_paths then
    fail "rep/rem split disagrees with path count";
  if Array.length per_path_eps <> Array.length raw.Core.Predictor.raw_rem then
    fail "per-path tolerance length disagrees with remainder count";
  if omr <> Array.length raw.Core.Predictor.raw_rem then
    fail "error-operator rows disagree with remainder count";
  if omr > 0 && omc <> n_vars then fail "error-operator width disagrees with n_vars";
  let ar, ac = Linalg.Mat.dims a_mat in
  if ar <> n_paths || ac <> n_vars then
    fail "sensitivity matrix dims disagree with path/variable counts";
  (* Predictor.import re-validates index ordering and every dimension *)
  let predictor =
    try Core.Predictor.import raw
    with Invalid_argument msg -> fail msg
  in
  let blocks = { Core.Robust.gram; cross } in
  (* Robust.of_parts validates the block dimensions *)
  (try ignore (Core.Robust.of_parts ~base:predictor blocks)
   with Invalid_argument msg -> fail msg);
  ignore file;
  {
    fingerprint;
    t_cons;
    eps;
    kappa;
    n_paths;
    n_segments;
    n_vars;
    selection =
      {
        Core.Select.indices;
        predictor;
        rank;
        effective_rank;
        eps_r;
        per_path_eps;
        evaluations;
      };
    blocks;
    mu;
    a_mat;
  }

let of_bytes ?(file = "<bytes>") s =
  if String.length s < header_size then corrupt file "shorter than the header"
  else if String.sub s 0 4 <> magic then Error (Core.Errors.Bad_magic { file })
  else begin
    let version = Int32.to_int (String.get_int32_le s 4) land 0xFFFFFFFF in
    if version <> current_version then
      Error
        (Core.Errors.Version_mismatch { file; found = version; expected = current_version })
    else begin
      let plen = Int64.to_int (String.get_int64_le s 8) in
      if plen < 0 || String.length s - header_size < plen then
        corrupt file "payload shorter than the header says"
      else if String.length s - header_size > plen then
        corrupt file "trailing bytes after the payload"
      else begin
        let stored_crc = Int32.to_int (String.get_int32_le s 16) land 0xFFFFFFFF in
        let payload = String.sub s header_size plen in
        if Codec.crc32 payload <> stored_crc then
          corrupt file "checksum mismatch (CRC-32)"
        else
          match decode_payload ~file payload with
          | t -> Ok t
          | exception Codec.Truncated -> corrupt file "payload field truncated"
          | exception Codec.Malformed msg -> corrupt file msg
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Files *)

(* Crash-safe: the bytes go to a same-directory temp file which is
   fsynced and then atomically renamed over [path]. A crash at any
   instant leaves either the previous artifact or the new one on disk,
   never a torn hybrid — which is what lets a serving process SIGHUP-
   reload from [path] while another process rewrites it. The serving
   layer's checkpoint writer reuses this exact idiom. *)
let write_file_atomic path bytes =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let remove_quiet f = try Sys.remove f with Sys_error _ -> () in
  match
    let fd =
      Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let b = Bytes.of_string bytes in
        let n = Bytes.length b in
        let off = ref 0 in
        while !off < n do
          off := !off + Unix.write fd b !off (n - !off)
        done;
        Unix.fsync fd);
    Sys.rename tmp path;
    (* durability of the rename itself: fsync the directory entry;
       best-effort — not every filesystem lets you open a directory *)
    (match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
     | dfd ->
       (try Unix.fsync dfd with Unix.Unix_error _ -> ());
       (try Unix.close dfd with Unix.Unix_error _ -> ())
     | exception Unix.Unix_error _ -> ())
  with
  | () -> Ok ()
  | exception Sys_error msg ->
    remove_quiet tmp;
    Error (Core.Errors.Io { file = path; msg })
  | exception Unix.Unix_error (err, fn, _) ->
    remove_quiet tmp;
    Error
      (Core.Errors.Io
         { file = path; msg = Printf.sprintf "%s: %s" fn (Unix.error_message err) })

let save path t = write_file_atomic path (to_bytes t)

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  with
  | s -> of_bytes ~file:path s
  | exception Sys_error msg -> Error (Core.Errors.Io { file = path; msg })
  | exception End_of_file ->
    (* the file shrank under the read loop: a torn artifact, not a
       filesystem failure — report it as corruption so operators reach
       for regeneration, not remounts *)
    Error
      (Core.Errors.Corrupt_artifact
         { file = path; msg = "truncated: unexpected end of file" })

(* ------------------------------------------------------------------ *)

(* Bit-exact equality via the canonical encoding: two artifacts are
   equal iff they serialize identically (floats compared as bits). *)
let equal a b = String.equal (to_bytes a) (to_bytes b)

let describe t =
  let sel = t.selection in
  let r = Array.length sel.Core.Select.indices in
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "format:          %s v%d" magic current_version;
  line "fingerprint:     %s" (if t.fingerprint = "" then "(none)" else t.fingerprint);
  line "t_cons:          %.3f ps" t.t_cons;
  line "tolerance eps:   %.2f%% (achieved eps_r %.2f%%)" (100.0 *. t.eps)
    (100.0 *. sel.Core.Select.eps_r);
  line "kappa:           %.2f" t.kappa;
  line "target paths:    %d (%d segments, %d variables)" t.n_paths t.n_segments
    t.n_vars;
  line "representatives: %d of %d (rank %d, effective rank %d)" r t.n_paths
    sel.Core.Select.rank sel.Core.Select.effective_rank;
  line "predicted paths: %d" (t.n_paths - r);
  line "payload:         %d bytes" (String.length (to_bytes t) - header_size);
  Buffer.contents buf
