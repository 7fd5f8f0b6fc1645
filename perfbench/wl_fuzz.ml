(* fuzz-campaign: soundness-campaign throughput at jobs 2. Each batch
   is one Gen.Fuzz.run of [batch] cases (no shrink, no output
   directory) under a campaign seed derived from the benchmark seed;
   one op is one case. Generation, the Par pool and the per-program
   VM boots inside the oracle dominate here.

   The traced run repeats Fuzz.run's own Par.mapi over the case
   indices with spans around its three calls (case_program, render,
   the oracle), then replays the same cases on one domain to measure
   how much the second domain inflates each case. *)

module H = Harness

let span = Trace.span
let batch = 12

let sum_counts l = List.fold_left (fun acc (_, n) -> acc + n) 0 l

(* Campaign seed of batch [b]. *)
let batch_seed root b = Gen.Rng.mix root b

(* One case as Fuzz.run evaluates it, with its three calls spanned
   (generation and rendering both count as gen.generate). Returns the
   verdict and the oracle's and the whole case's durations in ms. *)
let traced_case ~parent ~seed i =
  let t0 = H.now () in
  span ~parent "op.case" (fun () ->
      let p = span "gen.generate" (fun () -> Gen.Fuzz.case_program ~seed i) in
      let src = span "gen.generate" (fun () -> Gen.Prog.render p) in
      let t1 = H.now () in
      let v =
        span "gen.oracle" (fun () -> Gen.Oracle.check_source ~name:"gen.kc" src p.Gen.Prog.faults)
      in
      let t2 = H.now () in
      (p, v, (t2 -. t1) *. 1e3, (t2 -. t0) *. 1e3))

let make h _exp ~seed : H.workload =
  let root = Gen.Rng.mix seed 0x66757a7a in
  let b = ref 0 in
  (* Per (campaign seed, case) oracle time and verdict at jobs 2, for
     the one-domain replay in [finish]. *)
  let traced_cases = ref [] in
  let busy = ref 0.0 and capacity = ref 0.0 in
  let injected_total = ref 0 and detected_total = ref 0 and violations_total = ref 0 in
  let record ~cseed ~cases ~violations ~injected ~detected =
    H.count h (Printf.sprintf "gen.injected@%d" cseed) injected;
    H.count h (Printf.sprintf "gen.detected@%d" cseed) detected;
    injected_total := !injected_total + injected;
    detected_total := !detected_total + detected;
    violations_total := !violations_total + violations;
    h.H.attempted <- h.H.attempted + cases;
    h.H.failed <- h.H.failed + violations;
    if violations > 0 then H.note_error h (Printf.sprintf "campaign %d: %d violating case(s)" cseed violations)
  in
  let step ~traced =
    let cseed = batch_seed root !b in
    incr b;
    let t0 = H.now () in
    if not traced then begin
      let s = Gen.Fuzz.run ~jobs:H.jobs ~seed:cseed ~count:batch () in
      record ~cseed ~cases:batch ~violations:(List.length s.Gen.Fuzz.s_failures)
        ~injected:(sum_counts s.Gen.Fuzz.s_injected) ~detected:(sum_counts s.Gen.Fuzz.s_detected)
    end
    else begin
      let results =
        span "par.batch" (fun () ->
            let parent = Trace.current () in
            Par.mapi ~jobs:H.jobs (fun _ i -> traced_case ~parent ~seed:cseed i) (List.init batch Fun.id))
      in
      List.iteri
        (fun i (_, v, ms, case_ms) ->
          traced_cases := ((cseed, i), (v, ms)) :: !traced_cases;
          busy := !busy +. case_ms)
        results;
      capacity := !capacity +. (float_of_int H.jobs *. (H.now () -. t0) *. 1e3);
      let count f = List.fold_left (fun acc (p, v, _, _) -> acc + List.length (f p v)) 0 results in
      record ~cseed ~cases:batch
        ~violations:(List.length (List.filter (fun (_, v, _, _) -> v.Gen.Oracle.violations <> []) results))
        ~injected:(count (fun p _ -> p.Gen.Prog.faults))
        ~detected:(count (fun _ v -> v.Gen.Oracle.detected))
    end;
    (* A batch stands for [batch] ops: its sample is ms per case. *)
    H.add_sample h "case" ((H.now () -. t0) *. 1e3 /. float_of_int batch)
  in
  {
    H.primary = [ "case" ];
    (* Set-up is one validated warm-up batch off the campaign's seed
       sequence: pool start, generator and oracle initialisation. *)
    setup =
      (fun () ->
        let s = Gen.Fuzz.run ~jobs:H.jobs ~seed:(Gen.Rng.mix root (-1)) ~count:batch () in
        ignore (H.expect h (s.Gen.Fuzz.s_failures = []) "warm-up campaign found violations"));
    step;
    finish =
      (fun () ->
        let cases = List.rev !traced_cases in
        let serial =
          List.map
            (fun ((cseed, i), (v2, _)) ->
              let p = Gen.Fuzz.case_program ~seed:cseed i in
              let src = Gen.Prog.render p in
              let t0 = H.now () in
              let v1 = Gen.Oracle.check_source ~name:"gen.kc" src p.Gen.Prog.faults in
              if v1.Gen.Oracle.detected <> v2.Gen.Oracle.detected
                 || List.length v1.Gen.Oracle.violations <> List.length v2.Gen.Oracle.violations
              then
                h.H.defects <-
                  Printf.sprintf "case %d of campaign %d: verdict differs at jobs 1 and jobs 2" i cseed
                  :: h.H.defects;
              (H.now () -. t0) *. 1e3)
            cases
        in
        let j2 = List.map (fun (_, (_, ms)) -> ms) cases in
        H.set_layer h "par.case_inflation" (H.median j2 /. H.median serial);
        H.set_layer h "par.busy_ratio" (!busy /. !capacity);
        H.set_layer h "gen.cases" (float_of_int h.H.attempted);
        H.set_layer h "gen.injected" (float_of_int !injected_total);
        H.set_layer h "gen.detected" (float_of_int !detected_total);
        H.set_layer h "gen.violations" (float_of_int !violations_total));
  }
