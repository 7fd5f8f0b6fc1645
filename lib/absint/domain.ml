(* Abstract-domain selection for the absint pipeline.

   The product (interval×nullness × zone) domain is the default; the
   [IVY_ABSINT_DOMAIN=interval] environment variable opts out of the
   relational component (useful for triage and for measuring the
   relational gain).  [with_domain] overrides the environment within
   one process; the tests use it to run the interval-only arm. *)

type t = Product | Interval_only

let of_string = function
  | "interval" | "intervals" | "interval-only" -> Some Interval_only
  | "product" | "zone" | "relational" -> Some Product
  | _ -> None

let override : t option ref = ref None

let from_env () =
  match Sys.getenv_opt "IVY_ABSINT_DOMAIN" with
  | Some s -> ( match of_string (String.lowercase_ascii s) with Some d -> d | None -> Product)
  | None -> Product

let current () = match !override with Some d -> d | None -> from_env ()
let relational () = current () = Product

let with_domain d f =
  let saved = !override in
  override := Some d;
  Fun.protect ~finally:(fun () -> override := saved) f
