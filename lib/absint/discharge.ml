(* Second-stage check discharge: replay each function's abstract
   fixpoint over its instructions and delete every Deputy-inserted
   Icheck the interval facts prove can never fire.

   Soundness: a check is removed only when, at its program point, the
   over-approximated abstract state admits no concrete state in which
   the check's predicate is false (or the point is unreachable, in
   which case the check never executes at all). The CFG shares the
   stmt tree's instr values physically, so removal is by physical
   identity — structurally equal checks at different points are
   treated independently. Runs after Deputy.Optimize, so everything
   the Facts pass discharges is already gone: the combined pipeline
   trivially subsumes Facts alone. *)

module I = Kc.Ir
module Cfg = Dataflow.Cfg

type fstat = {
  fname : string;
  seen : int; (* residual checks entering this pass *)
  proved : int; (* ... removed by the product domain *)
  proved_iv : int; (* ... by the interval component alone *)
  proved_rel : int; (* ... only with the zone's relational facts *)
  iterations : int;
  widen_points : int;
}

type stats = { fstats : fstat list }

let total f stats = List.fold_left (fun acc s -> acc + f s) 0 stats.fstats
let checks_seen = total (fun s -> s.seen)
let checks_proved = total (fun s -> s.proved)
let checks_proved_iv = total (fun s -> s.proved_iv)
let checks_proved_rel = total (fun s -> s.proved_rel)

let rate stats =
  let seen = checks_seen stats in
  if seen = 0 then 0.0 else 100.0 *. float_of_int (checks_proved stats) /. float_of_int seen

let count_checks (b : I.block) : int =
  let n = ref 0 in
  I.iter_instrs (fun i -> match i with I.Icheck _ -> incr n | _ -> ()) b;
  !n

(* Collect the checks provable at their program point by replaying the
   fixpoint through each node's instruction list, tagged with which
   component of the product proved them ({!Transfer.provable_why}
   tries the interval rule first, so [P_relational] counts only
   zone-exclusive proofs). *)
let provable_checks ~summaries (r : Solver.fresult) :
    (I.instr * Transfer.proof) list =
  let removable = ref [] in
  Array.iter
    (fun (node : Cfg.node) ->
      let env = ref r.Solver.before.(node.Cfg.nid) in
      List.iter
        (fun (i, _loc) ->
          (match i with
          | I.Icheck (ck, _) -> (
              match Transfer.provable_why !env ck with
              | Some p -> removable := (i, p) :: !removable
              | None -> ())
          | _ -> ());
          env := Transfer.instr summaries !env i)
        node.Cfg.instrs)
    r.Solver.cfg.Cfg.nodes;
  !removable

let rec filter_block removable (b : I.block) : I.block =
  List.filter_map (filter_stmt removable) b

and filter_stmt removable (s : I.stmt) : I.stmt option =
  match s.I.sk with
  | I.Sinstr (I.Icheck _ as i) when List.memq i removable -> None
  | I.Sinstr _ | I.Sbreak | I.Scontinue | I.Sreturn _ -> Some s
  | I.Sif (c, b1, b2) ->
      Some { s with I.sk = I.Sif (c, filter_block removable b1, filter_block removable b2) }
  | I.Swhile (c, body, step) ->
      Some
        { s with I.sk = I.Swhile (c, filter_block removable body, filter_block removable step) }
  | I.Sdowhile (body, c) -> Some { s with I.sk = I.Sdowhile (filter_block removable body, c) }
  | I.Sswitch (e, cases) ->
      Some
        {
          s with
          I.sk =
            I.Sswitch
              (e, List.map (fun c -> { c with I.cbody = filter_block removable c.I.cbody }) cases);
        }
  | I.Sblock b1 -> Some { s with I.sk = I.Sblock (filter_block removable b1) }
  | I.Sdelayed b1 -> Some { s with I.sk = I.Sdelayed (filter_block removable b1) }
  | I.Strusted b1 -> Some { s with I.sk = I.Strusted (filter_block removable b1) }

let discharge_fundec ~summaries (fd : I.fundec) : fstat =
  let seen = count_checks fd.I.fbody in
  let r = Solver.analyze ~summaries fd in
  let tagged = provable_checks ~summaries r in
  let removable = List.map fst tagged in
  if removable <> [] then fd.I.fbody <- filter_block removable fd.I.fbody;
  let count p = List.length (List.filter (fun (_, q) -> q = p) tagged) in
  {
    fname = fd.I.fname;
    seen;
    proved = List.length removable;
    proved_iv = count Transfer.P_interval;
    proved_rel = count Transfer.P_relational;
    iterations = r.Solver.iterations;
    widen_points = r.Solver.widen_points;
  }

(* Discharge over every defined function of an (already deputized and
   Facts-optimized) program, in place. *)
let run ?summaries (prog : I.program) : stats =
  let summaries = match summaries with Some s -> s | None -> Summary.compute prog in
  {
    fstats =
      List.filter_map
        (fun fd -> if fd.I.fextern then None else Some (discharge_fundec ~summaries fd))
        prog.I.funcs;
  }

let render_stats (stats : stats) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%-24s %8s %8s %8s %8s\n" "function" "checks" "proved" "iters" "widen");
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "%-24s %8d %8d %8d %8d\n" s.fname s.seen s.proved s.iterations
           s.widen_points))
    stats.fstats;
  Buffer.add_string buf
    (Printf.sprintf
       "absint: proved %d of %d residual checks (%.1f%% discharge rate; intervals %d + \
        relational %d)\n"
       (checks_proved stats) (checks_seen stats) (rate stats) (checks_proved_iv stats)
       (checks_proved_rel stats));
  Buffer.contents buf
