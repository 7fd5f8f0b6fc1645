(** The [ivy serve] incremental analysis daemon: warm
    {!Engine.Context}s per program in an LRU, newline-delimited
    JSON-RPC over a Unix socket ([check] / [stats] / [invalidate] /
    [shutdown]), per-request stats deltas so clients can assert
    incrementality. See DESIGN.md §14 for the wire format. *)

type t

val create : ?capacity:int -> ?jobs:int -> unit -> t
(** [capacity] (default 8) bounds resident warm programs; [jobs]
    sizes each context's internal {!Par} fan-out. *)

val src_digest : (string * string) list -> string
(** Digest of raw [(path, source)] pairs: a resubmit with the same
    digest skips parsing entirely. *)

val handle_line : t -> string -> string * bool
(** One request line in, one response line out (no trailing newline);
    [true] means the request asked for shutdown. Exposed for tests —
    the socket loop is {!run}. *)

val handle_batch : t -> string list -> string list * bool
(** One poll round's worth of requests, in arrival order; parsing of
    programs the daemon cannot serve warm fans out over {!Par}. *)

val max_line : int
(** Bound, in bytes, on a client's pending input without a newline.
    {!run} answers a client that exceeds it with a JSON-RPC [-32600]
    error and closes that connection only. *)

val run : socket:string -> ?watch:string -> ?poll_ms:int -> ?log:(string -> unit) -> t -> unit
(** Bind [socket], serve until a [shutdown] request. With [watch], the
    directory's [.kc] files are re-checked (as program
    ["watch:<dir>"]) whenever their contents change, polled every
    [poll_ms] (default 500) milliseconds; summaries go to [log].
    Ignores SIGPIPE for the process, so a client that hangs up before
    its reply only loses its own connection. *)

val request : socket:string -> string -> string
(** Client side: send one request line, return the response line. *)
