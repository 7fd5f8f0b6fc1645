(** Content hashing of KC IR for the artifact graph.

    Digests are deterministic across re-parses of the same source
    (names, never [vid]/[fid] counters) and include statement
    locations, so a cached artifact is never reused to report stale
    line numbers. See fingerprint.ml for the exact projections. *)

(** All the digests of one program, computed once per (re)load. *)
type table = {
  t_header : string;  (** structs, enums, globals with initializers *)
  t_fns : (string * string) list;  (** per defined function, program order *)
  t_program : string;  (** header + every function: the widest input hash *)
  t_skeleton : string;
      (** the call / function-pointer projection read by points-to,
          call graph, blocking and irq-handler discovery; arithmetic
          body edits leave it unchanged *)
}

val fn : Kc.Ir.fundec -> string
(** Digest of one function: header, annotations, signature, body with
    statement locations. *)

val header : Kc.Ir.program -> string
val skeleton : Kc.Ir.program -> string
val table_of : Kc.Ir.program -> table

type diff = {
  d_changed : string list;
  d_added : string list;
  d_removed : string list;
  d_header_changed : bool;
}

val diff : old:table -> table -> diff
val unchanged : old:table -> table -> bool
