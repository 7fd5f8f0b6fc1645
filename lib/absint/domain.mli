(** Abstract-domain selection: the interval×nullness×zone product is
    the default; [IVY_ABSINT_DOMAIN=interval] opts out of the
    relational component. *)

type t = Product | Interval_only

val relational : unit -> bool
(** Is the zone component enabled? A {!with_domain} override wins over
    the environment; the default is [Product]. *)

val with_domain : t -> (unit -> 'a) -> 'a
(** Run with a forced domain choice, in-process (the interval-only
    corpus test in [test_absint] uses it). *)
