(* lib/absint: interval algebra units, qcheck lattice laws, and
   end-to-end discharge tests (including the cases the Facts pass
   cannot prove, and a soundness case where the check must stay). *)

module Iv = Absint.Interval

let parse src = Kc.Typecheck.check_sources [ ("t.kc", src) ]

let iv = Alcotest.testable (fun fmt i -> Format.pp_print_string fmt (Iv.to_string i)) Iv.equal

(* ------------------------------------------------------------------ *)
(* Interval algebra                                                   *)
(* ------------------------------------------------------------------ *)

let test_interval_lattice () =
  let a = Iv.of_bounds 0L 10L and b = Iv.of_bounds 5L 20L in
  Alcotest.check iv "join" (Iv.of_bounds 0L 20L) (Iv.join a b);
  Alcotest.check iv "meet" (Iv.of_bounds 5L 10L) (Iv.meet a b);
  Alcotest.check iv "meet disjoint" Iv.bottom (Iv.meet (Iv.of_bounds 0L 1L) (Iv.of_bounds 5L 6L));
  Alcotest.check iv "join bot" a (Iv.join a Iv.bottom);
  Alcotest.(check bool) "leq" true (Iv.leq (Iv.meet a b) a);
  Alcotest.(check bool) "mem" true (Iv.mem 7L a);
  Alcotest.(check bool) "not mem" false (Iv.mem 11L a)

let test_interval_widen_narrow () =
  let a = Iv.of_bounds 0L 1L and b = Iv.of_bounds 0L 2L in
  (* upper bound grew: widen blows it to +oo *)
  Alcotest.check iv "widen up" (Iv.Iv (Iv.Fin 0L, Iv.Pinf)) (Iv.widen a b);
  (* stable bounds survive widening *)
  Alcotest.check iv "widen stable" a (Iv.widen a a);
  let lo = Iv.Iv (Iv.Ninf, Iv.Fin 5L) in
  Alcotest.check iv "widen down" (Iv.Iv (Iv.Ninf, Iv.Fin 5L)) (Iv.widen lo (Iv.of_bounds (-9L) 5L));
  (* narrow refines only the infinite bounds *)
  let w = Iv.Iv (Iv.Fin 0L, Iv.Pinf) in
  Alcotest.check iv "narrow" (Iv.of_bounds 0L 4L) (Iv.narrow w (Iv.of_bounds 0L 4L));
  Alcotest.check iv "narrow keeps finite" (Iv.of_bounds 0L 9L)
    (Iv.narrow (Iv.of_bounds 0L 9L) (Iv.of_bounds 0L 4L))

let test_interval_arith () =
  Alcotest.check iv "add" (Iv.of_bounds 3L 7L) (Iv.add (Iv.of_bounds 1L 2L) (Iv.of_bounds 2L 5L));
  Alcotest.check iv "sub" (Iv.of_bounds (-4L) 0L)
    (Iv.sub (Iv.of_bounds 1L 2L) (Iv.of_bounds 2L 5L));
  Alcotest.check iv "neg" (Iv.of_bounds (-2L) (-1L)) (Iv.neg (Iv.of_bounds 1L 2L));
  Alcotest.check iv "mul signs" (Iv.of_bounds (-10L) 10L)
    (Iv.mul (Iv.of_bounds (-2L) 2L) (Iv.of_bounds 0L 5L));
  (* overflow saturates instead of wrapping *)
  Alcotest.check iv "add overflow" (Iv.Iv (Iv.Fin 0L, Iv.Pinf))
    (Iv.add (Iv.of_bounds 0L Int64.max_int) (Iv.of_bounds 0L 1L));
  Alcotest.check iv "mul min_int"
    (Iv.Iv (Iv.Ninf, Iv.Pinf))
    (Iv.mul (Iv.of_bounds Int64.min_int Int64.min_int) (Iv.of_bounds (-1L) (-1L)));
  Alcotest.check iv "div" (Iv.of_bounds (-3L) 5L) (Iv.div_pos_const (Iv.of_bounds (-7L) 10L) 2L);
  Alcotest.check iv "rem nonneg" (Iv.of_bounds 0L 6L) (Iv.rem_pos_const (Iv.of_bounds 0L 100L) 7L);
  (* n & 7 is in [0,7] even when n may be negative *)
  Alcotest.check iv "band mask" (Iv.of_bounds 0L 7L)
    (Iv.band (Iv.of_bounds Int64.min_int Int64.max_int) (Iv.of_bounds 7L 7L));
  Alcotest.check iv "shl" (Iv.of_bounds 4L 8L) (Iv.shl_const (Iv.of_bounds 1L 2L) 2L);
  Alcotest.check iv "shr" (Iv.of_bounds 1L 2L) (Iv.shr_const (Iv.of_bounds 4L 8L) 2L)

(* ------------------------------------------------------------------ *)
(* qcheck lattice laws                                                *)
(* ------------------------------------------------------------------ *)

let gen_bound =
  QCheck2.Gen.(
    frequency
      [
        (8, map (fun n -> Iv.Fin (Int64.of_int n)) (int_range (-50) 50));
        (1, return Iv.Ninf);
        (1, return Iv.Pinf);
      ])

let gen_interval =
  QCheck2.Gen.(
    frequency
      [
        ( 9,
          map2
            (fun a b ->
              match (a, b) with
              | Iv.Pinf, _ | _, Iv.Ninf -> Iv.top
              | lo, hi -> if Iv.bound_le lo hi then Iv.Iv (lo, hi) else Iv.Iv (hi, lo))
            gen_bound gen_bound );
        (1, return Iv.bottom);
      ])

let gen_point = QCheck2.Gen.(map Int64.of_int (int_range (-50) 50))

let prop_join_sound =
  QCheck2.Test.make ~name:"interval join is an upper bound (gamma-sound)" ~count:500
    QCheck2.Gen.(triple gen_interval gen_interval gen_point)
    (fun (a, b, x) ->
      let j = Iv.join a b in
      ((not (Iv.mem x a)) || Iv.mem x j) && ((not (Iv.mem x b)) || Iv.mem x j))

let prop_meet_sound =
  QCheck2.Test.make ~name:"interval meet keeps common points" ~count:500
    QCheck2.Gen.(triple gen_interval gen_interval gen_point)
    (fun (a, b, x) -> (not (Iv.mem x a && Iv.mem x b)) || Iv.mem x (Iv.meet a b))

let prop_widen_upper =
  QCheck2.Test.make ~name:"widen over-approximates both arguments" ~count:500
    QCheck2.Gen.(pair gen_interval gen_interval)
    (fun (a, b) ->
      let w = Iv.widen a b in
      Iv.leq a w && Iv.leq b w)

let prop_widen_stabilizes =
  QCheck2.Test.make ~name:"widening chains stabilize" ~count:500
    QCheck2.Gen.(pair gen_interval (QCheck2.Gen.list_size (QCheck2.Gen.return 8) gen_interval))
    (fun (a0, steps) ->
      (* iterate x <- widen x y over arbitrary y: each widen either
         leaves x fixed or pushes a bound to infinity, so at most two
         strict growths happen *)
      let x = ref a0 and grow = ref 0 in
      List.iter
        (fun y ->
          let x' = Iv.widen !x (Iv.join !x y) in
          if not (Iv.equal x' !x) then incr grow;
          x := x')
        steps;
      (* bot -> finite adoption, lo -> -oo, hi -> +oo *)
      !grow <= 3)

let prop_narrow_between =
  QCheck2.Test.make ~name:"narrow lands between next and old" ~count:500
    QCheck2.Gen.(pair gen_interval gen_interval)
    (fun (a, b) ->
      let old = Iv.join a b in
      (* next <= old by construction *)
      let next = a in
      let n = Iv.narrow old next in
      Iv.leq next n && Iv.leq n old)

let prop_arith_sound =
  QCheck2.Test.make ~name:"abstract add/sub/mul contain concrete results" ~count:500
    QCheck2.Gen.(
      quad gen_interval gen_interval gen_point gen_point)
    (fun (a, b, x, y) ->
      (not (Iv.mem x a && Iv.mem y b))
      || Iv.mem (Int64.add x y) (Iv.add a b)
         && Iv.mem (Int64.sub x y) (Iv.sub a b)
         && Iv.mem (Int64.mul x y) (Iv.mul a b)
         && Iv.mem (Int64.logand x y) (Iv.band a b))

(* ------------------------------------------------------------------ *)
(* qcheck zone laws                                                   *)
(* ------------------------------------------------------------------ *)

(* Random difference constraints over three program variables plus the
   distinguished zero variable, checked against concrete valuations:
   a zone means exactly the valuations satisfying every generating
   constraint, so gamma-soundness is directly testable. *)

module Zn = Absint.Zone

let gen_zvar = QCheck2.Gen.oneofl [ Zn.zero; 1; 2; 3 ]

let gen_con =
  QCheck2.Gen.(
    map3 (fun x y c -> (x, y, Int64.of_int c)) gen_zvar gen_zvar (int_range (-20) 20))

let gen_cons = QCheck2.Gen.(list_size (int_range 0 6) gen_con)

(* [None] = the constraints were already detected as infeasible. *)
let zone_of cons =
  List.fold_left
    (fun acc (x, y, c) ->
      match acc with None -> None | Some t -> Zn.add_le x y c t)
    (Some Zn.top) cons

let gen_val = QCheck2.Gen.(map Int64.of_int (int_range (-25) 25))
let gen_valuation = QCheck2.Gen.(triple gen_val gen_val gen_val)

let value_of (v1, v2, v3) x =
  if x = Zn.zero then 0L else if x = 1 then v1 else if x = 2 then v2 else v3

let sat_cons vl cons =
  List.for_all (fun (x, y, c) -> Int64.sub (value_of vl x) (value_of vl y) <= c) cons

let sat_zone vl t =
  Absint.Dbm.fold
    (fun x y c ok -> ok && Int64.sub (value_of vl x) (value_of vl y) <= c)
    t true

let prop_zone_close_idempotent =
  QCheck2.Test.make ~name:"zone closure is idempotent" ~count:500 gen_cons (fun cons ->
      match zone_of cons with
      | None -> true
      | Some t -> (
          match Zn.close_seeded Zn.no_seeds t with
          | None -> true (* infeasible caught late: fine *)
          | Some c1 -> (
              match Zn.close_seeded Zn.no_seeds c1 with
              | None -> false (* a feasible closed zone cannot become infeasible *)
              | Some c2 -> Zn.equal c1 c2)))

let prop_zone_join_sound =
  QCheck2.Test.make ~name:"zone join over-approximates both sides (gamma-sound)" ~count:500
    QCheck2.Gen.(triple gen_cons gen_cons gen_valuation)
    (fun (ca, cb, vl) ->
      match (zone_of ca, zone_of cb) with
      | Some za, Some zb ->
          let j = Zn.join za zb in
          (not (sat_cons vl ca) || sat_zone vl j)
          && (not (sat_cons vl cb) || sat_zone vl j)
      | _ -> true)

let prop_zone_widen_terminates =
  QCheck2.Test.make ~name:"zone widening chains stabilize" ~count:300
    QCheck2.Gen.(pair gen_cons (list_size (int_range 1 8) gen_cons))
    (fun (c0, steps) ->
      (* widen never adopts from its right argument and surviving
         entries keep their value, so the number of strict changes in
         a chain is bounded by the initial constraint count *)
      match zone_of c0 with
      | None -> true
      | Some z0 ->
          let changes = ref 0 and x = ref z0 in
          List.iter
            (fun cs ->
              match zone_of cs with
              | None -> ()
              | Some y ->
                  let x' = Zn.widen !x (Zn.join !x y) in
                  if not (Zn.equal x' !x) then incr changes;
                  x := x')
            steps;
          !changes <= Zn.cardinal z0)

let prop_zone_reduction_sound =
  QCheck2.Test.make ~name:"seeded closure keeps every point of the product" ~count:500
    QCheck2.Gen.(
      triple gen_cons
        (triple (pair gen_val gen_val) (pair gen_val gen_val) (pair gen_val gen_val))
        gen_valuation)
    (fun (cons, ((a1, b1), (a2, b2), (a3, b3)), vl) ->
      let mk a b = if a <= b then Iv.of_bounds a b else Iv.of_bounds b a in
      let iv1 = mk a1 b1 and iv2 = mk a2 b2 and iv3 = mk a3 b3 in
      let seeds v =
        if v = 1 then iv1 else if v = 2 then iv2 else if v = 3 then iv3 else Iv.top
      in
      match zone_of cons with
      | None -> true
      | Some t ->
          let v1, v2, v3 = vl in
          if
            not (sat_cons vl cons && Iv.mem v1 iv1 && Iv.mem v2 iv2 && Iv.mem v3 iv3)
          then true
          else (
            (* the valuation inhabits both components, so the reduced
               product must keep it: no spurious bottom, and every
               derived unary bound (what tighten_from_zone meets back
               into the intervals) still contains the point *)
            match Zn.close_seeded ~over:[ 1; 2; 3 ] seeds t with
            | None -> false
            | Some c ->
                sat_zone vl c
                && List.for_all
                     (fun v ->
                       let lo, hi = Zn.bounds_of v c in
                       (match lo with None -> true | Some l -> l <= value_of vl v)
                       &&
                       match hi with None -> true | Some h -> value_of vl v <= h)
                     [ 1; 2; 3 ]))

(* ------------------------------------------------------------------ *)
(* Dbm against a reference closure                                     *)
(* ------------------------------------------------------------------ *)

(* A naive reference for [Dbm]: constraints x - y <= c in a table keyed
   by (x, y), absent meaning +oo, closed by textbook Floyd–Warshall in
   ascending variable order with the same overflow rule (a sum that
   wraps is dropped) and the same one-step incremental [add].  The
   generators reach 24 variables and constants at both ends of int64,
   so the overflow-drop and negative-cycle paths run. *)
module Oracle = struct
  let checked_add a b =
    let s = Int64.add a b in
    if Int64.logxor a b >= 0L && Int64.logxor a s < 0L then None else Some s

  let table entries =
    let h = Hashtbl.create 64 in
    List.iter (fun (x, y, c) -> Hashtbl.replace h (x, y) c) entries;
    h

  let get h i j = if i = j then Some 0L else Hashtbl.find_opt h (i, j)
  let to_list h = List.sort compare (Hashtbl.fold (fun (x, y) c acc -> (x, y, c) :: acc) h [])

  let vars h =
    List.sort_uniq compare (Hashtbl.fold (fun (x, y) _ acc -> x :: y :: acc) h [])

  let tighten h i j v =
    match Hashtbl.find_opt h (i, j) with
    | Some c when c <= v -> ()
    | _ -> Hashtbl.replace h (i, j) v

  let close entries =
    let h = table entries in
    let vs = vars h and feasible = ref true in
    List.iter
      (fun k ->
        List.iter
          (fun i ->
            List.iter
              (fun j ->
                match (get h i k, get h k j) with
                | Some a, Some b -> (
                    match checked_add a b with
                    | Some v when i = j -> if v < 0L then feasible := false
                    | Some v -> tighten h i j v
                    | None -> ())
                | _ -> ())
              vs)
          vs)
      vs;
    if !feasible then Some (to_list h) else None

  (* Every candidate reads the table as it was before the constraint. *)
  let add x y c entries =
    if x = y then if c < 0L then None else Some entries
    else
      let before = table entries in
      match Hashtbl.find_opt before (x, y) with
      | Some c0 when c0 <= c -> Some entries
      | _ ->
          Hashtbl.replace before (x, y) c;
          let after = Hashtbl.copy before and vs = vars before and feasible = ref true in
          List.iter
            (fun i ->
              List.iter
                (fun j ->
                  match (get before i x, get before y j) with
                  | Some a, Some b -> (
                      match Option.bind (checked_add a c) (checked_add b) with
                      | Some v when i = j -> if v < 0L then feasible := false
                      | Some v -> tighten after i j v
                      | None -> ())
                  | _ -> ())
                vs)
            vs;
          if !feasible then Some (to_list after) else None
end

let dbm_entries t = List.rev (Absint.Dbm.fold (fun x y c acc -> (x, y, c) :: acc) t [])

let gen_wide_const =
  QCheck2.Gen.(
    frequency
      [
        (3, map Int64.of_int (int_range (-20) 20));
        (2, map (fun d -> Int64.sub Int64.max_int (Int64.of_int d)) (int_range 0 20));
        (2, map (fun d -> Int64.add Int64.min_int (Int64.of_int d)) (int_range 0 20));
        (1, int64);
      ])

let gen_narrow_const = QCheck2.Gen.(map Int64.of_int (int_range (-1000) 1000))

(* A pool of 1 to 24 variable ids (zero's -1 among them), constraints
   over it, and one more constraint to add. *)
let gen_dbm_case gen_const =
  QCheck2.Gen.(
    bind (int_range 1 24) (fun n ->
        let var = oneofl (List.init n (fun i -> (3 * i) - 1)) in
        let con = triple var var gen_const in
        pair (list_size (int_range 0 (3 * n)) con) con))

(* Constraints folded in with [Dbm.add], skipping any that would make
   the system infeasible. *)
let dbm_of cons =
  List.fold_left
    (fun t (x, y, c) -> match Absint.Dbm.add x y c t with Some t' -> t' | None -> t)
    Absint.Dbm.top cons

let same_result a b = Option.map dbm_entries a = b

let prop_dbm_close_oracle =
  QCheck2.Test.make ~name:"dbm closure matches the reference" ~count:300
    (gen_dbm_case gen_wide_const) (fun (cons, _) ->
      let t = dbm_of cons in
      same_result (Absint.Dbm.close_over t) (Oracle.close (dbm_entries t)))

let prop_dbm_seeded_close_oracle =
  QCheck2.Test.make ~name:"dbm closure after adds matches the reference" ~count:300
    (gen_dbm_case gen_wide_const) (fun (cons, extra) ->
      let t = dbm_of cons and adds = extra :: List.filteri (fun i _ -> i mod 3 = 0) cons in
      let expected =
        List.fold_left
          (fun acc (x, y, c) -> Option.bind acc (Oracle.add x y c))
          (Some (dbm_entries t)) adds
      in
      same_result (Absint.Dbm.close_over ~adds t) (Option.bind expected Oracle.close))

let prop_dbm_add_oracle =
  QCheck2.Test.make ~name:"dbm add matches the reference" ~count:300
    (gen_dbm_case gen_wide_const) (fun (cons, (x, y, c)) ->
      let t = dbm_of cons in
      same_result (Absint.Dbm.add x y c t) (Oracle.add x y c (dbm_entries t)))

(* Incremental closure is complete on a closed matrix.  Only where no
   bound sum can wrap: with overflow dropping, [add] sums d(i, x) + c
   first while a closure may reach the same path as d(i, x) + (c +
   d(y, j)), and one of the two can wrap where the other does not. *)
let prop_dbm_add_closed =
  QCheck2.Test.make ~name:"dbm add on a closed matrix equals its closure" ~count:300
    (gen_dbm_case gen_narrow_const) (fun (cons, (x, y, c)) ->
      match Absint.Dbm.close_over (dbm_of cons) with
      | None -> true
      | Some t ->
          let expected =
            if x = y then if c < 0L then None else Some (dbm_entries t)
            else
              Oracle.close
                (List.filter (fun (a, b, _) -> (a, b) <> (x, y)) (dbm_entries t)
                @ [ (x, y, match Absint.Dbm.find_opt x y t with Some c0 -> min c0 c | None -> c) ])
          in
          same_result (Absint.Dbm.add x y c t) expected)

(* ------------------------------------------------------------------ *)
(* End-to-end discharge                                               *)
(* ------------------------------------------------------------------ *)

let deputize_discharge src =
  let prog = parse src in
  let report = Deputy.Dreport.deputize prog in
  let stats = Absint.Discharge.run prog in
  (prog, report, stats)

(* Masked index: Facts cannot bound [n & 7], intervals can. *)
let test_discharge_mask () =
  let src =
    "long f(int n) { long a[8]; int k = n & 7; a[k] = 5; return a[k]; }\n\
     int main(void) { return f(42); }\n"
  in
  let prog, _report, stats = deputize_discharge src in
  Alcotest.(check bool) "facts left residual checks" true (Absint.Discharge.checks_seen stats > 0);
  Alcotest.(check int) "absint proves all residual checks in f"
    (Absint.Discharge.checks_seen stats)
    (Absint.Discharge.checks_proved stats);
  (* semantics preserved *)
  let t = Vm.Builtins.boot prog in
  Alcotest.(check int64) "still computes" 5L (Vm.Interp.run t "main" [])

(* Loop-carried index: needs widening at the loop head, then the
   branch refinement i < 4 inside the body. *)
let test_discharge_loop () =
  let src =
    "int f(void) { long a[4]; int i = 0; long s = 0;\n\
    \  while (i < 4) { a[i] = i; s = s + a[i]; i = i + 1; }\n\
    \  return s; }\n\
     int main(void) { return f(); }\n"
  in
  let prog, _report, stats = deputize_discharge src in
  Alcotest.(check int) "loop body checks all proved"
    (Absint.Discharge.checks_seen stats)
    (Absint.Discharge.checks_proved stats);
  let t = Vm.Builtins.boot prog in
  Alcotest.(check int64) "sum preserved" 6L (Vm.Interp.run t "main" [])

(* Soundness: a genuine out-of-bounds loop keeps its upper check and
   the VM still traps. *)
let test_discharge_keeps_real_oob () =
  let src =
    "int main(void) { long a[4]; int i = 0;\n\
    \  while (i <= 4) { a[i] = i; i = i + 1; }\n\
    \  return 0; }\n"
  in
  let prog, _report, _stats = deputize_discharge src in
  let t = Vm.Builtins.boot prog in
  match Vm.Interp.run t "main" [] with
  | _ -> Alcotest.fail "out-of-bounds write was not caught"
  | exception Vm.Trap.Trap (Vm.Trap.Check_failed, _) -> ()

(* Soundness: bounds proven about a sub-64 signed->unsigned cast must
   not be attributed to the pre-cast variable.  The guard is always
   true at runtime ((unsigned short)sc zero-extends the negative sc to
   a large u16), yet sc itself stays negative, so the lower-bound
   check must survive both the Facts and the absint discharge and the
   deputized VM must trap. *)
let test_discharge_keeps_cast_oob () =
  let src =
    "long f(int n) { long a[4]; signed char sc = n - 9;\n\
    \  if ((unsigned short)sc < 65535) { a[sc] = 1; }\n\
    \  return 0; }\n\
     int main(void) { return f(3); }\n"
  in
  let prog, _report, _stats = deputize_discharge src in
  let t = Vm.Builtins.boot prog in
  match Vm.Interp.run t "main" [] with
  | v -> Alcotest.failf "negative index slipped through (returned %Ld)" v
  | exception Vm.Trap.Trap (Vm.Trap.Check_failed, _) -> ()

(* Interprocedural summary: the callee's constant return bounds the
   caller's index. *)
let test_discharge_summary () =
  let src =
    "int cap(void) { return 3; }\n\
     long g(int n) { long a[4]; int k = cap(); a[k] = n; return a[k]; }\n\
     int main(void) { return g(7); }\n"
  in
  let prog, _report, stats = deputize_discharge src in
  Alcotest.(check int) "summary proves the call-site index"
    (Absint.Discharge.checks_seen stats)
    (Absint.Discharge.checks_proved stats);
  let t = Vm.Builtins.boot prog in
  Alcotest.(check int64) "result preserved" 7L (Vm.Interp.run t "main" [])

(* On the synthetic kernel corpus, Facts+absint discharges strictly
   more than Facts alone (which left these residual checks behind). *)
let test_corpus_strictly_more () =
  let prog = Kernel.Corpus.load () in
  ignore (Deputy.Dreport.deputize prog);
  let stats = Absint.Discharge.run prog in
  Alcotest.(check bool) "absint proves residual corpus checks" true
    (Absint.Discharge.checks_proved stats > 0);
  Alcotest.(check bool) "but not by emptying the program" true
    (Absint.Discharge.checks_proved stats < Absint.Discharge.checks_seen stats)

(* The corpus's discharge set, check by check, as `ivy check` builds
   it: interval summaries over the base program, then every residual
   check of each deputized function in body order, with the product
   component that proved it or "kept".  Per-function counts alone would
   not notice two proofs trading places. *)
let check_text (ck : Kc.Ir.check) =
  let e = Kc.Pretty.exp_to_string in
  match ck with
  | Kc.Ir.Ck_nonnull a -> Printf.sprintf "nonnull(%s)" (e a)
  | Kc.Ir.Ck_le (a, b) -> Printf.sprintf "%s <= %s" (e a) (e b)
  | Kc.Ir.Ck_lt (a, b) -> Printf.sprintf "%s < %s" (e a) (e b)
  | Kc.Ir.Ck_nt_next (a, w) -> Printf.sprintf "nt_next(%s, %d)" (e a) w
  | Kc.Ir.Ck_not_atomic -> "not_atomic"

let corpus_discharge_set () =
  let prog = Kernel.Workloads.load ~fresh:true () in
  let ifaces = Absint.Relsum.compute prog in
  let summaries = Absint.Summary.compute ~ifaces prog in
  let dprog = Kc.Ir.copy_program prog in
  ignore (Deputy.Dreport.deputize dprog);
  List.concat_map
    (fun (fd : Kc.Ir.fundec) ->
      if fd.Kc.Ir.fextern then []
      else
        let r = Absint.Solver.analyze ~summaries ~ifaces fd in
        let proofs = Absint.Discharge.provable_checks ~ifaces ~summaries r in
        let lines = ref [] in
        Kc.Ir.iter_instrs
          (fun i ->
            match i with
            | Kc.Ir.Icheck (ck, _) ->
                let by =
                  match List.assq_opt i proofs with
                  | Some Absint.Transfer.P_interval -> "interval"
                  | Some Absint.Transfer.P_relational -> "relational"
                  | None -> "kept"
                in
                lines := Printf.sprintf "%s: %s -> %s" fd.Kc.Ir.fname (check_text ck) by :: !lines
            | _ -> ())
          fd.Kc.Ir.fbody;
        List.rev !lines)
    dprog.Kc.Ir.funcs

let expected_discharge_set =
  [
    "kstrlen: nt_next(s, 1) -> kept";
    "kstrncpy: (long)(i) < dn -> kept";
    "kstrncpy: nt_next(src, 1) -> kept";
    "kstrncpy: (long)(i) < dn -> kept";
    "kstreq: nt_next(a, 1) -> kept";
    "kstreq: nt_next(b, 1) -> kept";
    "kstrhash: nt_next(s, 1) -> kept";
    "kfifo_alloc: size <= (((*f).data == (char * __count(size) __opt)(0)) ? size : (*f).size) -> kept";
    "kfifo_put: (*f).size <= ((d == (char * __count(sz) __opt)(0)) ? (*f).size : sz) -> kept";
    "kfifo_put: sz <= (*f).size -> kept";
    "kfifo_get: (*f).size <= ((d == (char * __count(sz) __opt)(0)) ? (*f).size : sz) -> kept";
    "kfifo_get: sz <= (*f).size -> kept";
    "htab_insert: 0 <= (long)(b) -> interval";
    "htab_insert: (long)(b) < 64 -> interval";
    "htab_lookup: 0 <= (long)(b) -> interval";
    "htab_lookup: (long)(b) < 64 -> interval";
    "htab_remove: 0 <= (long)(b) -> interval";
    "htab_remove: (long)(b) < 64 -> interval";
    "pgdir_map: nonnull(tab) -> interval";
    "pgdir_map_addr: 0 <= (long)(t) -> interval";
    "pgdir_map_addr: (long)(t) < 64 -> interval";
    "pgdir_map_addr: nonnull(tab) -> interval";
    "pgdir_map_addr: 0 <= (long)(s) -> interval";
    "pgdir_map_addr: (long)(s) < 64 -> interval";
    "pgdir_get_addr: 0 <= (long)(t) -> interval";
    "pgdir_get_addr: (long)(t) < 64 -> interval";
    "pgdir_get_addr: 0 <= (long)(s) -> interval";
    "pgdir_get_addr: (long)(s) < 64 -> interval";
    "pgdir_clone: 0 <= (long)(t) -> interval";
    "pgdir_clone: (long)(t) < 64 -> interval";
    "rq_pick: 0 <= (long)(idx) -> interval";
    "rq_pick: (long)(idx) < 64 -> interval";
    "rq_pick: (long)(best) < 64 -> interval";
    "send_signal: 0 <= (long)(word) -> interval";
    "send_signal: (long)(word) < 4 -> interval";
    "do_fork: (long)(slot) < 8 -> interval";
    "ramfs_write_checked: 4096 <= ((data == (char * __count(psz) __opt)(0)) ? 4096 : psz) -> kept";
    "ramfs_write_checked: nonnull(pg) -> interval";
    "ramfs_read_checked: 4096 <= ((data == (char * __count(psz) __opt)(0)) ? 4096 : psz) -> kept";
    "path_lookup: nt_next(path, 1) -> kept";
    "path_lookup: nt_next(path, 1) -> kept";
    "path_lookup: (long)(len) < 32 -> kept";
    "vfs_close: 0 <= (long)(fd) -> kept";
    "vfs_close: (long)(fd) < 32 -> kept";
    "skb_alloc: size <= (((*skb).data == (char * __count(capacity) __opt)(0)) ? size : (*skb).capacity) -> kept";
    "skb_put: (*skb).capacity <= ((d == (char * __count(cap) __opt)(0)) ? (*skb).capacity : cap) -> kept";
    "skb_put: cap <= (*skb).capacity -> kept";
    "skb_copy_out: (*skb).capacity <= ((d == (char * __count(cap) __opt)(0)) ? (*skb).capacity : cap) -> kept";
    "skb_copy_out: cap <= (*skb).capacity -> kept";
    "ip_checksum: (long)(i) < n -> kept";
    "ip_checksum: 0 <= (long)((i + 1)) -> interval";
    "ip_checksum: (long)((i + 1)) < n -> kept";
    "skb_checksum: (*skb).capacity <= ((d == (char * __count(cap) __opt)(0)) ? (*skb).capacity : cap) -> kept";
    "skb_checksum: cap <= (*skb).capacity -> kept";
    "skb_checksum: (long)(i) < cap -> kept";
    "skb_checksum: 0 <= (long)((i + 1)) -> interval";
    "skb_checksum: (long)((i + 1)) < cap -> kept";
    "ip_build_header: (*skb).capacity <= ((d == (char * __count(cap) __opt)(0)) ? (*skb).capacity : cap) -> kept";
    "ip_build_header: cap <= (*skb).capacity -> kept";
    "ip_parse_header: (*skb).capacity <= ((d == (char * __count(cap) __opt)(0)) ? (*skb).capacity : cap) -> kept";
    "ip_parse_header: cap <= (*skb).capacity -> kept";
    "udp_send: got_n <= 64 -> kept";
    "rd_read_sector: (long)(i) < n -> relational";
    "rd_read_sector: 4096 <= ((data == (char * __count(psz) __opt)(0)) ? 4096 : psz) -> kept";
    "rd_read_sector: (long)(i) < n -> relational";
    "rd_write_sector: 4096 <= ((data == (char * __count(psz) __opt)(0)) ? 4096 : psz) -> kept";
    "rd_write_sector: nonnull(pg) -> interval";
    "rd_write_sector: (long)(i) < n -> relational";
    "load_module: (long)(p) < 8 -> interval";
    "load_module: 4096 <= ((data == (char * __count(psz) __opt)(0)) ? 4096 : psz) -> kept";
    "load_module: (long)(p) < 8 -> kept";
    "load_module: 4096 <= ((data == (char * __count(psz) __opt)(0)) ? 4096 : psz) -> kept";
    "format_long: (long)(out) < n -> relational";
    "run_initcalls: (long)(fd) < 32 -> interval";
    "run_initcalls: (long)(ufd) < 32 -> interval";
    "wl_bw_file_rd: (long)(fd) < 32 -> interval";
    "wl_bw_mmap_rd: 4096 <= ((data == (char * __count(psz) __opt)(0)) ? 4096 : psz) -> kept";
    "wl_bw_mmap_rd: 4096 <= ((data == (char * __count(psz) __opt)(0)) ? 4096 : psz) -> kept";
    "wl_lat_fslayer: (long)(fd) < 32 -> interval";
    "wl_ssh_copy: n <= 512 -> kept";
  ]

let test_corpus_discharge_set () =
  let got = corpus_discharge_set () in
  let count suffix =
    List.length (List.filter (fun l -> String.ends_with ~suffix l) got)
  in
  Alcotest.(check int) "residual checks" 80 (List.length got);
  Alcotest.(check int) "proved by intervals" 33 (count "-> interval");
  Alcotest.(check int) "proved only relationally" 4 (count "-> relational");
  Alcotest.(check (list string)) "discharge set, check by check" expected_discharge_set got

(* The deputized VM executes strictly fewer dynamic checks with the
   absint stage on (instrumentation counters). *)
let test_fewer_dynamic_checks () =
  let checks_run discharge =
    let prog = Kernel.Workloads.load ~fresh:true () in
    ignore (Deputy.Dreport.deputize prog);
    if discharge then ignore (Absint.Discharge.run prog);
    let t = Vm.Builtins.boot prog in
    ignore (Vm.Interp.run t Kernel.Corpus.boot_entry []);
    ignore (Vm.Interp.run t (Kernel.Workloads.find_row "bw_mem_cp").Kernel.Workloads.entry [ 3L ]);
    t.Vm.Interp.m.Vm.Machine.cost.Vm.Cost.checks_executed
  in
  let facts_only = checks_run false and with_absint = checks_run true in
  Alcotest.(check bool)
    (Printf.sprintf "boot executes fewer checks (%d < %d)" with_absint facts_only)
    true
    (with_absint < facts_only)

let () =
  let seed =
    match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> ( match int_of_string_opt (String.trim s) with Some n -> n | None -> 42)
    | None -> 42
  in
  Printf.printf "qcheck seed: %d (set QCHECK_SEED to override)\n%!" seed;
  let rand = Random.State.make [| seed |] in
  Alcotest.run "absint"
    [
      ( "interval",
        [
          Alcotest.test_case "lattice ops" `Quick test_interval_lattice;
          Alcotest.test_case "widen/narrow" `Quick test_interval_widen_narrow;
          Alcotest.test_case "arithmetic" `Quick test_interval_arith;
        ] );
      ( "qcheck",
        List.map (QCheck_alcotest.to_alcotest ~rand)
          [
            prop_join_sound;
            prop_meet_sound;
            prop_widen_upper;
            prop_widen_stabilizes;
            prop_narrow_between;
            prop_arith_sound;
          ] );
      ( "qcheck-zone",
        List.map (QCheck_alcotest.to_alcotest ~rand)
          [
            prop_zone_close_idempotent;
            prop_zone_join_sound;
            prop_zone_widen_terminates;
            prop_zone_reduction_sound;
          ] );
      ( "qcheck-dbm",
        List.map (QCheck_alcotest.to_alcotest ~rand)
          [
            prop_dbm_close_oracle;
            prop_dbm_seeded_close_oracle;
            prop_dbm_add_oracle;
            prop_dbm_add_closed;
          ] );
      ( "discharge",
        [
          Alcotest.test_case "masked index" `Quick test_discharge_mask;
          Alcotest.test_case "loop-carried index" `Quick test_discharge_loop;
          Alcotest.test_case "keeps real OOB" `Quick test_discharge_keeps_real_oob;
          Alcotest.test_case "keeps OOB behind unsigned cast guard" `Quick
            test_discharge_keeps_cast_oob;
          Alcotest.test_case "interprocedural summary" `Quick test_discharge_summary;
          Alcotest.test_case "corpus: strictly more than Facts" `Quick test_corpus_strictly_more;
          Alcotest.test_case "corpus: fewer dynamic checks" `Quick test_fewer_dynamic_checks;
          Alcotest.test_case "corpus: discharge set by check" `Quick test_corpus_discharge_set;
        ] );
    ]
