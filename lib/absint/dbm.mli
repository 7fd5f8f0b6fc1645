(** Dense difference-bound matrix over integer variable ids: a sorted
    universe of the variables some constraint mentions, and a flat
    row-major matrix over it whose entry [(x, y)] holds the tightest
    known [c] with [x - y <= c] together with an explicit presence flag.
    An absent entry means +oo, so dropping entries is always sound; no
    bound value doubles as +oo. The relational half of the absint
    product domain ({!Zone} wraps this with program variables and the
    distinguished zero var). Values are persistent. *)

type t

val top : t
(** No constraints. *)

val is_top : t -> bool

val equal : t -> t -> bool
(** Same constraints (the representation is canonical). *)

val find_opt : int -> int -> t -> int64 option

val fold : (int -> int -> int64 -> 'a -> 'a) -> t -> 'a -> 'a
(** Over the present entries in ascending [(x, y)] order. *)

val cardinal : t -> int

val vars : t -> int list
(** Every variable id mentioned by some constraint, sorted. *)

val add : int -> int -> int64 -> t -> t option
(** [add x y c t]: record [x - y <= c], propagating one step through
    existing paths (incremental closure — complete when [t] is closed,
    sound otherwise). [None] when the constraint system becomes
    infeasible (negative cycle). *)

val close_over : ?adds:(int * int * int64) list -> t -> t option
(** [close_over ~adds t]: {!add} each [(x, y, c)] of [adds] in turn,
    then take the full shortest-path closure over [vars t] and the
    variables of [adds], all on one copy of [t]. [None] when the
    constraint system is infeasible (negative cycle). *)

val join : t -> t -> t
(** Pointwise max over common entries. Precise when both sides are
    closed; sound regardless. *)

val widen : t -> t -> t
(** [widen old next] keeps entries of [old] that [next] does not
    weaken and never adopts anything from [next]: widening chains are
    finite because entry sets shrink monotonically and surviving values
    never change. Never close a widening result in place. *)

val narrow : t -> t -> t
(** [narrow old next]: all of [old] plus [next]'s entries where [old]
    has none. Sound when [next <= old] (the solver guards this). *)

val forget : int -> t -> t
(** Drop every constraint mentioning the variable. *)

val shift : int -> int64 -> t -> t
(** [shift v k t]: exact translation for [v := v + k]; only sound when
    the concrete addition cannot wrap (callers certify that with an
    interval no-wrap check). *)

val entails_le : int -> int -> int64 -> t -> bool
(** [entails_le x y c t]: does [t] (ideally closed) already record
    [x - y <= c']  with [c' <= c]? *)

