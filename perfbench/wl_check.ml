(* check-cold: one op is one full `ivy check --json` of the corpus —
   frontend on fresh sources, a new engine context, all seven
   analyses, and the diagnostics JSON with the deputy and ccount
   objects. This is the paper's time-to-verdict; the VM and the serve
   daemon are not on its path. *)

module Ctx = Engine.Context
module H = Harness

let span = Trace.span
let analyses = List.map Engine.Analysis.name Ivy.Checks.all

(* Kc.Typecheck.check_sources, split at its parse/typecheck seam so the
   traced run can time the two layers apart. *)
let parse_units sources =
  List.rev
    (snd
       (List.fold_left
          (fun (typedefs, units) (name, src) ->
            let u = Kc.Parser.parse_unit ~typedefs ~name src in
            (typedefs @ Kc.Parser.typedef_names u, u :: units))
          ([], []) sources))

let frontend ~traced sources =
  if traced then
    let units = span "kc.parse" (fun () -> parse_units sources) in
    span "kc.typecheck" (fun () -> Kc.Typecheck.check_units units)
  else Kc.Typecheck.check_sources sources

(* Force every engine getter the analyses read, in dependency order,
   so each span is that artifact's own build rather than a build
   nested inside a later getter. *)
let force_artifacts ctxt =
  let fb = Blockstop.Pointsto.Field_based in
  span "engine.pointsto" (fun () ->
      ignore (Ctx.pointsto ctxt);
      ignore (Ctx.pointsto ~mode:fb ctxt));
  span "engine.callgraph" (fun () ->
      ignore (Ctx.callgraph ctxt);
      ignore (Ctx.callgraph ~mode:fb ctxt));
  span "engine.blocking" (fun () -> ignore (Ctx.blocking ctxt));
  span "engine.irq" (fun () -> ignore (Ctx.irq_handlers ctxt));
  span "engine.cfg" (fun () ->
      List.iter
        (fun (fd : Kc.Ir.fundec) -> ignore (Ctx.cfg ctxt fd.Kc.Ir.fname))
        (Ctx.program ctxt).Kc.Ir.funcs);
  span "absint.relsum" (fun () -> ignore (Ctx.relsum_ifaces ctxt));
  span "absint.summaries" (fun () -> ignore (Ctx.absint_summaries ctxt));
  span "absint.deputized" (fun () -> ignore (Ctx.deputized ctxt));
  span "refsafe.summaries" (fun () -> ignore (Ctx.refsafe_summaries ctxt));
  span "refsafe.ccount" (fun () -> ignore (Ctx.ccount_discharged ctxt))

(* All seven analyses; traced, one [run_all ~only] per analysis over
   the already-warm artifacts. *)
let run_checks ~traced ctxt =
  if traced then
    List.concat_map
      (fun a -> span ("checks." ^ a) (fun () -> Ivy.Checks.run_all ~only:[ a ] ctxt))
      analyses
  else Ivy.Checks.run_all ctxt

let sum f (st : Absint.Discharge.stats) =
  List.fold_left (fun acc fs -> acc + f fs) 0 st.Absint.Discharge.fstats

(* The discharge counts a speed-only change keeps exactly. *)
let absint_counts (st : Absint.Discharge.stats) =
  [
    ("absint.checks_seen", Absint.Discharge.checks_seen st);
    ("absint.proved_iv", Absint.Discharge.checks_proved_iv st);
    ("absint.proved_rel", Absint.Discharge.checks_proved_rel st);
    ("absint.iterations", sum (fun fs -> fs.Absint.Discharge.iterations) st);
    ("absint.widen_points", sum (fun fs -> fs.Absint.Discharge.widen_points) st);
  ]

let check_once ~traced sources =
  let prog = frontend ~traced sources in
  let ctxt = span "engine.create" (fun () -> Ctx.create ~jobs:H.jobs prog) in
  if traced then force_artifacts ctxt;
  let results = run_checks ~traced ctxt in
  let json =
    span "report.render" (fun () ->
        Ivy.Report_fmt.render_diags_json ~deputy:(Ctx.deputized ctxt)
          ~ccount:(Ctx.ccount_discharged ctxt) results)
  in
  (ctxt, results, json)

(* The op's output against the expected file: the digest of the
   diagnostics JSON and the discharge split. *)
let verify h exp (ctxt, _, json) =
  let st = (Ctx.deputized ctxt).Ctx.dstats in
  let got_md5 = Digest.to_hex (Digest.string json) in
  let want key got =
    H.expect h (got = H.expected_int exp key)
      (Printf.sprintf "%s: got %d, expected %d" key got (H.expected_int exp key))
  in
  let digest_ok =
    H.expect h
      (got_md5 = H.expected_str exp "check.diags_md5")
      (Printf.sprintf "check.diags_md5: got %s, expected %s" got_md5
         (H.expected_str exp "check.diags_md5"))
  in
  let seen_ok = want "check.checks_seen" (Absint.Discharge.checks_seen st) in
  let iv_ok = want "check.proved_iv" (Absint.Discharge.checks_proved_iv st) in
  let rel_ok = want "check.proved_rel" (Absint.Discharge.checks_proved_rel st) in
  digest_ok && seen_ok && iv_ok && rel_ok

let record_counts h ~traced (ctxt, results, _) =
  List.iter (fun (k, v) -> H.count h k v) (absint_counts (Ctx.deputized ctxt).Ctx.dstats);
  H.count h "checks.diags" (List.length (Ivy.Checks.diags results));
  (* Forcing the getters turns some of run_all's builds into hits, so
     the engine counts are the untraced op's. *)
  if not traced then begin
    let stats = Ctx.stats ctxt in
    H.count h "engine.builds.check" (Engine.Graph.total_builds stats);
    H.count h "engine.hits.check" (Engine.Graph.total_hits stats);
    H.count h "engine.invalidations.check" (Engine.Graph.total_invalidations stats)
  end

(* Lexing is part of kc.parse; the lexer alone is timed outside any
   op, a few times, with its token count. *)
let lex_probe h sources =
  for _ = 1 to 3 do
    let n =
      span "kc.lex" (fun () ->
          List.fold_left
            (fun acc (file, src) -> acc + Array.length (Kc.Lexer.tokenize ~file src))
            0 sources)
    in
    H.count h "kc.tokens" n
  done

let make h exp ~seed:_ : H.workload =
  let sources = ref [] in
  let op ~traced =
    H.op h "check" (fun () ->
        let r = check_once ~traced !sources in
        record_counts h ~traced r;
        verify h exp r)
  in
  {
    H.primary = [ "check" ];
    (* Set-up is the corpus text plus one validated check, which also
       runs the one-time initialisation of every layer. *)
    setup =
      (fun () ->
        sources := Kernel.Workloads.sources ();
        ignore (verify h exp (check_once ~traced:false !sources)));
    step = (fun ~traced -> op ~traced);
    finish = (fun () -> lex_probe h !sources);
  }
