(* serve-edit: the developer edit loop against an in-process `ivy
   serve` daemon warmed by one cold request. Each round sends four
   check requests, each one op:

   - edit: one of the corpus's `return 0;` sites, drawn from the seed,
     becomes `return 0 + 0;` — Engine.Context.update, invalidation and
     a partial rebuild;
   - touch: a comment appended to the edited sources — same functions,
     so the engine must build nothing;
   - resubmit: the touch request again — the source-digest fast path;
   - revert: back to the base sources — a rebuild whose diagnostics
     must be byte-equal to the cold response's.

   The traced run cannot see inside Serve.handle_line, so it replays
   the same requests on a mirror of the daemon's check path (digest,
   parse, Context.update, the getters in dependency order, run_all,
   render) with a span around each call. *)

module Ctx = Engine.Context
module H = Harness
module J = Ivy.Jsonx

let span = Trace.span
let program = "corpus"
let site_text = "return 0;"
let edit_text = "return 0 + 0;"

let request id sources =
  J.render
    (J.Obj
       [
         ("id", J.Num (float_of_int id));
         ("method", J.Str "check");
         ( "params",
           J.Obj
             [
               ("program", J.Str program);
               ( "files",
                 J.List
                   (List.map
                      (fun (p, s) -> J.Obj [ ("path", J.Str p); ("source", J.Str s) ])
                      sources) );
             ] );
       ])

(* Every (file index, offset) of a `return 0;` site. *)
let all_sites sources =
  List.concat
    (List.mapi
       (fun fi (_, src) ->
         let n = String.length site_text in
         let rec from i acc =
           if i + n > String.length src then List.rev acc
           else if String.sub src i n = site_text then from (i + n) ((fi, i) :: acc)
           else from (i + 1) acc
         in
         from 0 [])
       sources)

let edit_at sources (fi, off) =
  List.mapi
    (fun i (p, s) ->
      if i <> fi then (p, s)
      else
        ( p,
          String.sub s 0 off ^ edit_text
          ^ String.sub s (off + String.length site_text)
              (String.length s - off - String.length site_text) ))
    sources

(* Every (file index, offset) of a `return 0;` site whose edit still
   type-checks: `0 + 0` is no null-pointer constant, so sites in
   pointer-returning functions are left out. *)
let find_sites sources =
  List.filter
    (fun site ->
      match Kc.Typecheck.check_sources (edit_at sources site) with
      | _ -> true
      | exception Kc.Typecheck.Type_error _ -> false)
    (all_sites sources)
  |> Array.of_list

(* A comment-only change at the end of the edited file: no function's
   text or location moves. *)
let touch sources fi round =
  List.mapi
    (fun i (p, s) -> if i = fi then (p, Printf.sprintf "%s\n/* touch %d */\n" s round) else (p, s))
    sources

(* The fields of a check response the op checks read. The report is
   cut from the raw line so that byte equality means byte equality. *)
type reply = { warm : bool; reused : bool; builds : int; hits : int; inval : int; report : string }

let find_sub s sub =
  let n = String.length sub in
  let rec go i = if i + n > String.length s then -1 else if String.sub s i n = sub then i else go (i + 1) in
  go 0

let parse_reply line =
  let j = J.parse line in
  let res =
    match J.member "result" j with
    | Some r -> r
    | None -> failwith ("check request failed: " ^ line)
  in
  let bool k = match J.member k res with Some (J.Bool b) -> b | _ -> failwith ("no " ^ k) in
  let total k =
    match Option.bind (J.member "stats" res) (J.member "totals") with
    | Some t -> Option.get (J.to_int_opt (Option.get (J.member k t)))
    | None -> failwith "no stats totals"
  in
  let a = find_sub line "\"report\":" + String.length "\"report\":" in
  let b = find_sub line ",\"stats\":{\"artifacts\"" in
  {
    warm = bool "warm";
    reused = bool "reused_source";
    builds = total "builds";
    hits = total "hits";
    inval = total "invalidations";
    report = String.sub line a (b - a);
  }

(* The traced mirror of Serve.handle_check for one program. *)
type mirror = { ctxt : Ctx.t; mutable digest : string }

let mirror_check m sources =
  let d = span "serve.digest" (fun () -> Ivy.Serve.src_digest sources) in
  let reused = String.equal d m.digest in
  if not reused then begin
    let prog = Wl_check.frontend ~traced:true sources in
    ignore (span "engine.update" (fun () -> Ctx.update m.ctxt prog));
    m.digest <- d
  end;
  let before = Ctx.stats m.ctxt in
  Wl_check.force_artifacts m.ctxt;
  let results = Wl_check.run_checks ~traced:true m.ctxt in
  let report = span "report.render" (fun () -> String.trim (Ivy.Report_fmt.render_diags_json results)) in
  let delta = Engine.Graph.delta ~before (Ctx.stats m.ctxt) in
  ignore (span "serve.render" (fun () -> Ivy.Report_fmt.render_stats_json delta));
  let builds = Engine.Graph.total_builds delta in
  {
    warm = builds = 0;
    reused;
    builds;
    hits = Engine.Graph.total_hits delta;
    inval = Engine.Graph.total_invalidations delta;
    report;
  }

type state = {
  srv : Ivy.Serve.t;
  base : (string * string) list;
  sites : (int * int) array;
  cold : string;  (** the cold response's report *)
  rng : Random.State.t;
  mutable round : int;
  mutable mirror : mirror option;
}

let make h _exp ~seed : H.workload =
  (* Input generation, before any timing: the valid edit sites. *)
  let sites = find_sites (Kernel.Workloads.sources ()) in
  H.count h "serve.edit_sites" (Array.length sites);
  let st = ref None in
  let get () = Option.get !st in
  let next_id = ref 0 in
  let send s sources =
    incr next_id;
    parse_reply (fst (Ivy.Serve.handle_line s.srv (request !next_id sources)))
  in
  let mirror s =
    match s.mirror with
    | Some m -> m
    | None ->
        (* The mirror's own cold build, before the first traced op. *)
        let m = { ctxt = Ctx.create ~jobs:H.jobs (Kc.Typecheck.check_sources s.base); digest = "" } in
        ignore (mirror_check m s.base);
        s.mirror <- Some m;
        m
  in
  let step ~traced =
    let s = get () in
    s.round <- s.round + 1;
    let k = Random.State.int s.rng (Array.length s.sites) in
    let fi, _ = s.sites.(k) in
    let edited = edit_at s.base s.sites.(k) in
    let touched = touch edited fi s.round in
    let m = if traced then Some (mirror s) else None in
    let submit sources =
      match m with Some m -> mirror_check m sources | None -> send s sources
    in
    (* Engine counts are the daemon's own stats deltas (the mirror
       forces getters, which turns builds into hits). They depend on
       the edited function, so they are compared per site; the
       per-layer values are the first round's. *)
    let counts kind r =
      if not traced then begin
        let key what = Printf.sprintf "engine.%s.%s@site%d" what kind k in
        H.count h (key "builds") r.builds;
        H.count h (key "hits") r.hits;
        H.count h (key "invalidations") r.inval;
        if s.round = 1 then begin
          H.set_layer h ("engine.builds." ^ kind) (float_of_int r.builds);
          H.set_layer h ("engine.hits." ^ kind) (float_of_int r.hits);
          H.set_layer h ("engine.invalidations." ^ kind) (float_of_int r.inval)
        end
      end
    in
    let req kind sources check =
      H.op h kind (fun () ->
          let r = submit sources in
          counts kind r;
          check r)
    in
    let warm kind r =
      H.expect h (r.warm && r.builds = 0) (Printf.sprintf "%s at site %d was not warm" kind k)
    in
    let rebuilt kind r =
      H.expect h (not r.warm) (Printf.sprintf "%s at site %d built nothing" kind k)
    in
    req "edit" edited (rebuilt "edit");
    req "touch" touched (fun r -> warm "touch" r && not r.reused);
    req "resubmit" touched (fun r -> warm "resubmit" r && r.reused);
    req "revert" s.base (fun r ->
        rebuilt "revert" r
        && H.expect h (String.equal r.report s.cold)
             (Printf.sprintf "revert after site %d: diagnostics differ from the cold response" k))
  in
  {
    H.primary = [ "edit"; "revert" ];
    setup =
      (fun () ->
        let base = Kernel.Workloads.sources () in
        let srv = Ivy.Serve.create ~jobs:H.jobs () in
        let s =
          {
            srv;
            base;
            sites;
            cold = "";
            rng = Random.State.make [| seed |];
            round = 0;
            mirror = None;
          }
        in
        let cold = send s base in
        ignore (H.expect h (not cold.warm) "the cold request was served warm");
        st := Some { s with cold = cold.report });
    step;
    finish = (fun () -> Wl_check.lex_probe h (get ()).base);
  }
