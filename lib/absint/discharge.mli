(** Second-stage check discharge: removes Deputy-inserted runtime
    checks the product-domain fixpoint proves can never fire. Runs in
    place over an already deputized (and Facts-optimized) program, so
    the combined pipeline strictly subsumes the Facts pass. *)

type fstat = {
  fname : string;
  seen : int;  (** residual checks entering this pass *)
  proved : int;  (** ... removed by the product domain *)
  proved_iv : int;  (** ... by the interval component alone *)
  proved_rel : int;  (** ... only with the zone's relational facts *)
  iterations : int;
  widen_points : int;
}

type stats = { fstats : fstat list }

val checks_seen : stats -> int
val checks_proved : stats -> int

val checks_proved_iv : stats -> int
(** Checks the interval rule alone discharged. *)

val checks_proved_rel : stats -> int
(** Checks only the relational zone component could discharge. *)

val rate : stats -> float
(** Percentage of residual checks proved (0 when none were seen). *)

val provable_checks :
  ifaces:Transfer.ifaces ->
  summaries:Transfer.summaries ->
  Solver.fresult ->
  (Kc.Ir.instr * Transfer.proof) list
(** The checks of a solved function that its fixpoint proves can never
    fire, each with the product component that proved it. Checks are
    the function body's own [Icheck] values (compare with [==]). *)

val discharge_fundec :
  ?ifaces:Transfer.ifaces -> summaries:Transfer.summaries -> Kc.Ir.fundec -> fstat

val run : ?summaries:Transfer.summaries -> ?ifaces:Transfer.ifaces -> Kc.Ir.program -> stats
(** Under the product domain (the default, see {!Domain}) relational
    interface summaries are computed first ({!Relsum.compute}) and
    feed both the interval summaries and every per-function fixpoint;
    [IVY_ABSINT_DOMAIN=interval] reverts to the interval-only stage. *)

val render_stats : stats -> string
