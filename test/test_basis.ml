(* Numerical-stability tests for the factorized basis (Ras_mip.Basis),
   through the entry points the simplex runs: FTRAN/BTRAN round trips
   through the LU factors and the eta file, refactorization policy
   triggers, rejection of near-singular pivots, and Dense-vs-Lu backend
   agreement on random matrices. *)

open Ras_mip
module R = Ras_stats.Rng

(* A random diagonally dominant m×m matrix in column-callback form (the shape
   Basis.refactorize consumes): well-conditioned by construction, sparse off
   the diagonal. *)
let random_matrix rng m =
  let cols = Array.make m [] in
  for j = 0 to m - 1 do
    let entries = ref [ (j, 4.0 +. R.float rng 4.0) ] in
    let offdiag = R.int rng 4 in
    for _ = 1 to offdiag do
      let i = R.int rng m in
      if i <> j then entries := (i, R.float rng 2.0 -. 1.0) :: !entries
    done;
    (* deduplicate rows, keeping the first entry *)
    let seen = Hashtbl.create 8 in
    cols.(j) <-
      List.filter
        (fun (i, _) ->
          if Hashtbl.mem seen i then false
          else begin
            Hashtbl.add seen i ();
            true
          end)
        !entries
  done;
  cols

let col_fn cols j f = List.iter (fun (i, v) -> f i v) cols.(j)

(* b_row = sum_i A_{basis.(i)}(row) * x_i, for checking B x = b *)
let apply_matrix cols basis x m =
  let b = Array.make m 0.0 in
  Array.iteri
    (fun pos j -> List.iter (fun (i, v) -> b.(i) <- b.(i) +. (v *. x.(pos))) cols.(j))
    basis;
  b

let refactorized kind rng m =
  let cols = random_matrix rng m in
  let basis = Array.init m (fun i -> i) in
  R.shuffle rng basis;
  let t = Basis.create kind ~m in
  Basis.refactorize t ~basis ~col:(col_fn cols);
  (t, cols, basis)

(* B^-T c through the caller-buffer entry point *)
let btran t c =
  let y = Array.make (Array.length c) 0.0 in
  Basis.btran_dense_into t c y;
  y

(* a dense alpha as the sparse vector update_sparse consumes *)
let svec_of a =
  let s = Basis.Svec.make (Array.length a) in
  Array.iteri
    (fun i v ->
      if v <> 0.0 then begin
        s.Basis.Svec.vals.(i) <- v;
        s.Basis.Svec.idx.(s.Basis.Svec.n) <- i;
        s.Basis.Svec.n <- s.Basis.Svec.n + 1
      end)
    a;
  s

let scale_svec k (s : Basis.Svec.t) =
  for u = 0 to s.Basis.Svec.n - 1 do
    let i = s.Basis.Svec.idx.(u) in
    s.Basis.Svec.vals.(i) <- k *. s.Basis.Svec.vals.(i)
  done

let max_abs_diff a b =
  let worst = ref 0.0 in
  Array.iteri (fun i v -> worst := Float.max !worst (Float.abs (v -. b.(i)))) a;
  !worst

let test_ftran_round_trip () =
  let rng = R.create 11 in
  List.iter
    (fun m ->
      let t, cols, basis = refactorized Basis.Lu rng m in
      let b = Array.init m (fun _ -> R.float rng 10.0 -. 5.0) in
      let x = Basis.ftran_dense t (Array.copy b) in
      let back = apply_matrix cols basis x m in
      Alcotest.(check bool)
        (Printf.sprintf "B (B^-1 b) = b at m=%d (err %g)" m (max_abs_diff back b))
        true
        (max_abs_diff back b < 1e-8))
    [ 1; 2; 7; 20; 40 ]

let test_btran_round_trip () =
  let rng = R.create 12 in
  List.iter
    (fun m ->
      let t, cols, basis = refactorized Basis.Lu rng m in
      let c = Array.init m (fun _ -> R.float rng 10.0 -. 5.0) in
      let y = btran t c in
      (* y^T B = c^T: component i is y . A_{basis.(i)} *)
      let back =
        Array.map (fun j -> List.fold_left (fun acc (i, v) -> acc +. (y.(i) *. v)) 0.0 cols.(j)) basis
      in
      Alcotest.(check bool)
        (Printf.sprintf "(B^-T c)^T B = c at m=%d (err %g)" m (max_abs_diff back c))
        true
        (max_abs_diff back c < 1e-8))
    [ 1; 2; 7; 20; 40 ]

let test_ftran_btran_adjoint () =
  (* <c, B^-1 b> = <B^-T c, b> — exercises both solves against each other,
     including through a nonempty eta file *)
  let rng = R.create 13 in
  let m = 15 in
  let t, _, _ = refactorized Basis.Lu rng m in
  (* push a few eta updates through *)
  for k = 0 to 4 do
    let col = Array.init m (fun _ -> R.float rng 2.0 -. 1.0) in
    let alpha = Basis.ftran_col_sparse t (Array.init m Fun.id) col ~off:0 ~len:m in
    let row = k mod m in
    if Float.abs alpha.Basis.Svec.vals.(row) > 1e-6 then
      ignore (Basis.update_sparse t ~alpha ~row)
  done;
  let b = Array.init m (fun _ -> R.float rng 4.0 -. 2.0) in
  let c = Array.init m (fun _ -> R.float rng 4.0 -. 2.0) in
  let x = Basis.ftran_dense t (Array.copy b) in
  let y = btran t c in
  let lhs = ref 0.0 and rhs = ref 0.0 in
  for i = 0 to m - 1 do
    lhs := !lhs +. (c.(i) *. x.(i));
    rhs := !rhs +. (y.(i) *. b.(i))
  done;
  Alcotest.(check (float 1e-7)) "adjoint identity" !lhs !rhs

let test_eta_limit_triggers_refactorize () =
  let m = 6 in
  let t = Basis.create Basis.Lu ~m in
  Alcotest.(check bool) "fresh identity needs no refactor" false (Basis.should_refactorize t);
  let fired = ref (-1) in
  let k = ref 0 in
  while !fired < 0 && !k < 1000 do
    (* replace the basic column in row (k mod m) with 2*e_row: alpha = 2 e_row
       against the current factors scaled on that row, always an acceptable
       pivot *)
    let row = !k mod m in
    let alpha = Basis.ftran_unit_sparse t row in
    scale_svec 2.0 alpha;
    Alcotest.(check bool) "update accepted" true (Basis.update_sparse t ~alpha ~row);
    incr k;
    if Basis.should_refactorize t then fired := !k
  done;
  Alcotest.(check bool)
    (Printf.sprintf "eta budget fires (after %d updates)" !fired)
    true
    (!fired > 0 && !fired <= 64);
  Alcotest.(check int) "update counter matches" !fired (Basis.updates_since_refactor t);
  Alcotest.(check bool) "eta file is nonempty" true (Basis.eta_nnz t > 0)

let test_near_singular_pivot_refused () =
  let rng = R.create 14 in
  let m = 10 in
  let t, _, _ = refactorized Basis.Lu rng m in
  let before_updates = Basis.updates_since_refactor t in
  let probe = Array.init m (fun _ -> R.float rng 2.0 -. 1.0) in
  let x_before = Basis.ftran_dense t (Array.copy probe) in
  (* absolute test: pivot element ~1e-12 *)
  let alpha = Array.make m 0.1 in
  alpha.(3) <- 1e-12;
  Alcotest.(check bool) "tiny pivot refused" false
    (Basis.update_sparse t ~alpha:(svec_of alpha) ~row:3);
  (* relative test: pivot 1.0 dwarfed by a 1e9 entry elsewhere *)
  let alpha = Array.make m 0.0 in
  alpha.(3) <- 1.0;
  alpha.(7) <- 1e9;
  Alcotest.(check bool) "relatively tiny pivot refused" false
    (Basis.update_sparse t ~alpha:(svec_of alpha) ~row:3);
  (* the refused updates left the factorization untouched *)
  Alcotest.(check int) "no update recorded" before_updates (Basis.updates_since_refactor t);
  let x_after = Basis.ftran_dense t (Array.copy probe) in
  Alcotest.(check bool) "solves unchanged" true (max_abs_diff x_before x_after = 0.0)

let test_singular_matrix_raises () =
  let m = 4 in
  let cols = Array.make m [ (0, 1.0); (1, 1.0) ] in
  (* every column identical: rank 1 *)
  let basis = Array.init m (fun i -> i) in
  let t = Basis.create Basis.Lu ~m in
  (match Basis.refactorize t ~basis ~col:(col_fn cols) with
  | () -> Alcotest.fail "singular matrix must raise"
  | exception Basis.Singular -> ());
  (* the failed refactorization left the identity factors usable *)
  let x = Basis.ftran_dense t [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check bool) "state survives" true (max_abs_diff x [| 1.0; 2.0; 3.0; 4.0 |] < 1e-12)

let test_dense_lu_agree () =
  let rng = R.create 15 in
  for _ = 1 to 20 do
    let m = 1 + R.int rng 25 in
    let cols = random_matrix rng m in
    let basis = Array.init m (fun i -> i) in
    R.shuffle rng basis;
    let lu = Basis.create Basis.Lu ~m in
    let dn = Basis.create Basis.Dense ~m in
    Basis.refactorize lu ~basis ~col:(col_fn cols);
    Basis.refactorize dn ~basis ~col:(col_fn cols);
    let b = Array.init m (fun _ -> R.float rng 10.0 -. 5.0) in
    let xl = Basis.ftran_dense lu (Array.copy b) in
    let xd = Basis.ftran_dense dn (Array.copy b) in
    Alcotest.(check bool)
      (Printf.sprintf "ftran agrees at m=%d (err %g)" m (max_abs_diff xl xd))
      true
      (max_abs_diff xl xd < 1e-8);
    let yl = btran lu b in
    let yd = btran dn b in
    Alcotest.(check bool)
      (Printf.sprintf "btran agrees at m=%d (err %g)" m (max_abs_diff yl yd))
      true
      (max_abs_diff yl yd < 1e-8)
  done

let test_copy_is_independent () =
  let rng = R.create 16 in
  let m = 8 in
  let t, _, _ = refactorized Basis.Lu rng m in
  let probe = Array.init m (fun _ -> R.float rng 2.0 -. 1.0) in
  let x_before = Basis.ftran_dense t (Array.copy probe) in
  let snap = Basis.copy t in
  (* mutate the copy with an eta update *)
  let alpha = Basis.ftran_unit_sparse snap 2 in
  scale_svec 3.0 alpha;
  Alcotest.(check bool) "update on copy ok" true (Basis.update_sparse snap ~alpha ~row:2);
  (* the original is untouched *)
  Alcotest.(check int) "original update count" 0 (Basis.updates_since_refactor t);
  let x_after = Basis.ftran_dense t (Array.copy probe) in
  Alcotest.(check bool) "original solves unchanged" true (max_abs_diff x_before x_after = 0.0)

let suite =
  [
    Alcotest.test_case "ftran round trip" `Quick test_ftran_round_trip;
    Alcotest.test_case "btran round trip" `Quick test_btran_round_trip;
    Alcotest.test_case "ftran/btran adjoint identity" `Quick test_ftran_btran_adjoint;
    Alcotest.test_case "eta budget triggers refactorization" `Quick
      test_eta_limit_triggers_refactorize;
    Alcotest.test_case "near-singular pivot refused" `Quick test_near_singular_pivot_refused;
    Alcotest.test_case "singular matrix raises" `Quick test_singular_matrix_raises;
    Alcotest.test_case "dense and LU backends agree" `Quick test_dense_lu_agree;
    Alcotest.test_case "copy is independent" `Quick test_copy_is_independent;
  ]
