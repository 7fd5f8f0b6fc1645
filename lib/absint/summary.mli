(** Interprocedural summaries: one abstract return value per defined
    function, computed callees-first over the SCC condensation of the
    direct-call graph. Recursive components degrade to the return
    type's range. The value's nullness component is what tells a
    caller that a function (an allocator wrapper, say) never returns
    null. *)

val direct_callees : Kc.Ir.fundec -> string list

val sccs_of : Kc.Ir.fundec list -> Kc.Ir.fundec list list
(** Tarjan condensation of the direct-call graph, callees first.
    Exposed for tests. *)

val levels_of : Kc.Ir.fundec list list -> Kc.Ir.fundec list list list
(** Group topologically ordered SCCs ({i callees first}) into
    bottom-up dependency levels: every component of a level calls only
    into strictly lower levels, so one level's components can be
    solved in parallel. Exposed for tests. *)

val bottom_up :
  jobs:int ->
  init:'m ->
  add:(string -> 'a -> 'm -> 'm) ->
  solve:('m -> Kc.Ir.fundec -> 'a) ->
  fallback:(Kc.Ir.fundec -> 'a) ->
  Kc.Ir.program ->
  'm
(** The bottom-up summary driver shared by {!compute} and
    [Refsafe.Summary.compute]. Over the defined functions' SCC
    levels, lowest first, each non-recursive singleton component is
    [solve]d — on a {!Par} pool of [jobs] domains — against the
    summaries of strictly lower levels; recursive components get
    [fallback]. Each result is [add]ed by function name to [init], in
    SCC order, so the result does not depend on [jobs]. *)

val compute :
  ?cfg_of:(Kc.Ir.fundec -> Dataflow.Cfg.t) ->
  ?jobs:int ->
  Kc.Ir.program ->
  Transfer.summaries
(** [cfg_of] lets a caller (the engine context) share memoized CFGs;
    defaults to {!Dataflow.Cfg.build}. [jobs] (default 1) solves the
    components of one SCC level on a {!Par} pool — components within a
    level are mutually independent, and levels stay bottom-up, so the
    summaries are identical to the serial computation. With [jobs > 1]
    the caller must pass a [cfg_of] that is safe to call from several
    domains (pure, or fully pre-populated). *)
