(* The `ivy serve` incremental analysis daemon.

   Long-running process that keeps one warm {!Engine.Context} per
   program in an {!Engine.Graph.Lru} and answers newline-delimited
   JSON-RPC over a Unix socket:

     {"id":1,"method":"check","params":{"program":"p","files":
       [{"path":"a.kc","source":"..."}],"only":["blockstop"]}}
     {"id":2,"method":"stats"}
     {"id":3,"method":"invalidate","params":{"program":"p",
       "artifact":"cfg","param":"sys_fork"}}
     {"id":4,"method":"shutdown"}

   A [check] of a program the daemon has seen re-fingerprints the
   submitted sources, swaps them in with {!Engine.Context.update}
   (which push-invalidates exactly the artifacts the edit reaches) and
   re-runs the analyses over the warm graph; a resubmit of
   byte-identical sources skips parsing entirely. Every [check]
   response carries [warm] (no artifact was built) and the per-request
   stats delta, so clients and the CI smoke job can assert
   incrementality rather than trust it.

   The wire loop is single-domain (contexts and their graphs are not
   shareable across domains); what a batch of concurrent requests can
   fan out — parsing programs the daemon does not already hold — goes
   through the existing {!Par} pool. Analyses still parallelize
   internally via each context's [jobs]. *)

module J = Jsonx
module Ctx = Engine.Context
module G = Engine.Graph

type entry = { e_ctxt : Ctx.t; mutable e_src : string (* digest of raw sources *) }

type t = {
  lru : entry G.Lru.t;
  jobs : int;
  mutable requests : int;
}

let create ?(capacity = 8) ?(jobs = 1) () : t =
  { lru = G.Lru.create ~capacity; jobs; requests = 0 }

let src_digest (sources : (string * string) list) : string =
  Digest.to_hex
    (Digest.string (String.concat "\x00" (List.concat_map (fun (p, s) -> [ p; s ]) sources)))

(* ------------------------------------------------------------------ *)
(* Requests                                                           *)
(* ------------------------------------------------------------------ *)

type check_req = {
  c_program : string;
  c_sources : (string * string) list;
  c_digest : string;
  c_only : string list;
}

type request =
  | Check of check_req
  | Stats
  | Invalidate of { i_program : string; i_artifact : string option; i_param : string }
  | Shutdown

(* One decoded line: the id to echo, and either a request or an error
   (code, message) in JSON-RPC style. *)
type decoded = { d_id : J.t; d_req : (request, int * string) result }

let e_parse = -32700
let e_invalid = -32600
let e_method = -32601
let e_params = -32602
let e_frontend = 1
let e_unknown_program = 2
let e_unknown_analysis = 3

let decode_check (params : J.t) : (request, int * string) result =
  let program =
    match J.member "program" params with Some (J.Str s) -> s | _ -> "default"
  in
  let only =
    match J.member "only" params with
    | Some (J.List l) -> List.filter_map J.to_string_opt l
    | _ -> []
  in
  match List.find_opt (fun n -> Checks.find n = None) only with
  | Some n -> Error (e_unknown_analysis, Printf.sprintf "unknown analysis %s" n)
  | None -> (
      let sources =
        match J.member "corpus" params with
        | Some (J.Bool true) -> Ok (Kernel.Corpus.sources ())
        | _ -> (
            match J.member "files" params with
            | Some (J.List fs) -> (
                let file f =
                  match (J.member "path" f, J.member "source" f) with
                  | Some (J.Str p), Some (J.Str s) -> Some (p, s)
                  | _ -> None
                in
                match List.map file fs with
                | l when List.for_all Option.is_some l -> Ok (List.filter_map Fun.id l)
                | _ -> Error "files must be [{\"path\":...,\"source\":...}]")
            | _ -> Error "check needs params.files or params.corpus:true")
      in
      match sources with
      | Error msg -> Error (e_params, msg)
      | Ok [] -> Error (e_params, "empty file list")
      | Ok sources ->
          Ok
            (Check
               {
                 c_program = program;
                 c_sources = sources;
                 c_digest = src_digest sources;
                 c_only = only;
               }))

let decode_line (line : string) : decoded =
  match J.parse line with
  | exception J.Parse_error msg ->
      { d_id = J.Null; d_req = Error (e_parse, "bad JSON: " ^ msg) }
  | j -> (
      let id = Option.value (J.member "id" j) ~default:J.Null in
      let params = Option.value (J.member "params" j) ~default:(J.Obj []) in
      match J.member "method" j with
      | Some (J.Str "check") -> { d_id = id; d_req = decode_check params }
      | Some (J.Str "stats") -> { d_id = id; d_req = Ok Stats }
      | Some (J.Str "invalidate") ->
          let program =
            match J.member "program" params with Some (J.Str s) -> s | _ -> "default"
          in
          let artifact =
            match J.member "artifact" params with Some (J.Str s) -> Some s | _ -> None
          in
          let param =
            match J.member "param" params with Some (J.Str s) -> s | _ -> ""
          in
          { d_id = id; d_req = Ok (Invalidate { i_program = program; i_artifact = artifact; i_param = param }) }
      | Some (J.Str "shutdown") -> { d_id = id; d_req = Ok Shutdown }
      | Some (J.Str m) -> { d_id = id; d_req = Error (e_method, "unknown method " ^ m) }
      | _ -> { d_id = id; d_req = Error (e_invalid, "missing method") })

(* ------------------------------------------------------------------ *)
(* Handlers                                                           *)
(* ------------------------------------------------------------------ *)

let parse_sources (sources : (string * string) list) : (Kc.Ir.program, string) result =
  match Kc.Typecheck.check_sources sources with
  | prog -> Ok prog
  | exception e -> ( match Kc.Typecheck.error_message e with Some m -> Error m | None -> raise e)

let update_json (u : Ctx.update) : J.t =
  let names l = J.List (List.map (fun f -> J.Str f) l) in
  J.Obj
    [
      ("unchanged", J.Bool u.Ctx.u_unchanged);
      ("changed", names u.Ctx.u_changed);
      ("added", names u.Ctx.u_added);
      ("removed", names u.Ctx.u_removed);
      ("header_changed", J.Bool u.Ctx.u_header_changed);
      ("dropped", J.Num (float_of_int u.Ctx.u_dropped));
    ]

let no_update : Ctx.update =
  {
    Ctx.u_changed = [];
    u_added = [];
    u_removed = [];
    u_header_changed = false;
    u_unchanged = true;
    u_dropped = 0;
  }

(* [parsed] carries this batch's pre-parsed programs, keyed by source
   digest (see [handle_batch]); a digest not in the table is parsed
   here, serially. *)
let handle_check (t : t) ~(parsed : (string, (Kc.Ir.program, string) result) Hashtbl.t)
    (r : check_req) : (J.t, int * string) result =
  let prog () =
    match Hashtbl.find_opt parsed r.c_digest with
    | Some res -> res
    | None -> parse_sources r.c_sources
  in
  let entry =
    match G.Lru.find t.lru r.c_program with
    | Some e when String.equal e.e_src r.c_digest ->
        (* Byte-identical resubmit: no parse, no fingerprinting. *)
        Ok (e, no_update, true)
    | Some e -> (
        match prog () with
        | Ok p ->
            let u = Ctx.update e.e_ctxt p in
            e.e_src <- r.c_digest;
            Ok (e, u, false)
        | Error msg -> Error (e_frontend, msg))
    | None -> (
        match prog () with
        | Ok p ->
            let e = { e_ctxt = Ctx.create ~jobs:t.jobs p; e_src = r.c_digest } in
            ignore (G.Lru.add t.lru r.c_program e);
            Ok (e, no_update, false)
        | Error msg -> Error (e_frontend, msg))
  in
  match entry with
  | Error e -> Error e
  | Ok (e, update, reused_source) -> (
      let before = Ctx.stats e.e_ctxt in
      match Checks.run_all ~only:r.c_only e.e_ctxt with
      | exception Checks.Unknown_analysis n ->
          Error (e_unknown_analysis, "unknown analysis " ^ n)
      | results ->
          let delta = G.delta ~before (Ctx.stats e.e_ctxt) in
          Ok
            (J.Obj
               [
                 ("program", J.Str r.c_program);
                 ("warm", J.Bool (G.total_builds delta = 0));
                 ("reused_source", J.Bool reused_source);
                 ("update", update_json update);
                 ("report", J.Raw (String.trim (Report_fmt.render_diags_json results)));
                 ("stats", J.Raw (String.trim (Report_fmt.render_stats_json delta)));
               ]))

let handle_stats (t : t) : J.t =
  let programs =
    G.Lru.fold
      (fun id e acc ->
        J.Obj
          [
            ("program", J.Str id);
            ("fingerprint", J.Str (Ctx.program_fingerprint e.e_ctxt));
            ( "stats",
              J.Raw (String.trim (Report_fmt.render_stats_json (Ctx.stats e.e_ctxt))) );
          ]
        :: acc)
      t.lru []
  in
  J.Obj
    [
      ("programs", J.List programs);
      ("resident", J.Num (float_of_int (G.Lru.size t.lru)));
      ("capacity", J.Num (float_of_int (G.Lru.capacity t.lru)));
      ("evictions", J.Num (float_of_int (G.Lru.evictions t.lru)));
      ("requests", J.Num (float_of_int t.requests));
    ]

let handle_invalidate (t : t) ~program ~artifact ~param : (J.t, int * string) result =
  match G.Lru.find t.lru program with
  | None -> Error (e_unknown_program, "unknown program " ^ program)
  | Some e ->
      let dropped =
        match artifact with
        | None -> Ctx.invalidate_all e.e_ctxt
        | Some name -> Ctx.invalidate e.e_ctxt (G.key ~param name)
      in
      Ok (J.Obj [ ("program", J.Str program); ("dropped", J.Num (float_of_int dropped)) ])

let render_ok id body = J.render (J.Obj [ ("id", id); ("result", body) ])

let render_error id code msg =
  J.render
    (J.Obj
       [
         ("id", id);
         ("error", J.Obj [ ("code", J.Num (float_of_int code)); ("message", J.Str msg) ]);
       ])

(* One batch of request lines (everything a poll round drained, in
   arrival order). The parse work of check requests the daemon cannot
   serve warm — distinct source digests only — fans out over the Par
   pool; everything touching contexts stays on this domain. *)
let handle_batch (t : t) (lines : string list) : string list * bool =
  let decoded = List.map decode_line lines in
  let needs_parse =
    List.filter_map
      (fun d ->
        match d.d_req with
        | Ok (Check r) -> (
            match G.Lru.find t.lru r.c_program with
            | Some e when String.equal e.e_src r.c_digest -> None
            | _ -> Some (r.c_digest, r.c_sources))
        | _ -> None)
      decoded
  in
  let distinct =
    List.fold_left
      (fun acc (d, srcs) -> if List.mem_assoc d acc then acc else (d, srcs) :: acc)
      [] needs_parse
    |> List.rev
  in
  let parsed = Hashtbl.create (List.length distinct) in
  List.iter
    (fun (d, res) -> Hashtbl.replace parsed d res)
    (Par.map ~jobs:t.jobs (fun (d, srcs) -> (d, parse_sources srcs)) distinct);
  let shutdown = ref false in
  let responses =
    List.map
      (fun d ->
        t.requests <- t.requests + 1;
        match d.d_req with
        | Error (code, msg) -> render_error d.d_id code msg
        | Ok (Check r) -> (
            match handle_check t ~parsed r with
            | Ok body -> render_ok d.d_id body
            | Error (code, msg) -> render_error d.d_id code msg)
        | Ok Stats -> render_ok d.d_id (handle_stats t)
        | Ok (Invalidate { i_program; i_artifact; i_param }) -> (
            match
              handle_invalidate t ~program:i_program ~artifact:i_artifact ~param:i_param
            with
            | Ok body -> render_ok d.d_id body
            | Error (code, msg) -> render_error d.d_id code msg)
        | Ok Shutdown ->
            shutdown := true;
            render_ok d.d_id (J.Str "bye"))
      decoded
  in
  (responses, !shutdown)

let handle_line (t : t) (line : string) : string * bool =
  match handle_batch t [ line ] with
  | [ resp ], sd -> (resp, sd)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* --watch: poll a directory of .kc files                             *)
(* ------------------------------------------------------------------ *)

let watch_sources (dir : string) : (string * string) list =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter (fun n -> Filename.check_suffix n ".kc")
      |> List.sort String.compare
      |> List.filter_map (fun n ->
             let path = Filename.concat dir n in
             try
               let ic = open_in_bin path in
               let s = really_input_string ic (in_channel_length ic) in
               close_in ic;
               Some (path, s)
             with Sys_error _ -> None)

(* Re-check [dir] when any .kc file changed since last poll; log a
   one-line summary (the daemon's stdout is the watch report). *)
let watch_poll (t : t) ~(log : string -> unit) (dir : string) (last : string ref) : unit =
  let sources = watch_sources dir in
  if sources = [] then ()
  else
    let digest = src_digest sources in
    if String.equal digest !last then ()
    else begin
      last := digest;
      let program = "watch:" ^ dir in
      let parsed = Hashtbl.create 1 in
      match
        handle_check t ~parsed
          { c_program = program; c_sources = sources; c_digest = digest; c_only = [] }
      with
      | Error (_, msg) -> log (Printf.sprintf "[watch] %s: %s" dir msg)
      | Ok body ->
          let warm = match J.member "warm" body with Some (J.Bool b) -> b | _ -> false in
          let diags =
            match J.member "report" body with
            | Some (J.Raw s) -> (
                match J.member "diagnostics" (J.parse s) with
                | Some (J.List l) -> List.length l
                | _ -> 0)
            | _ -> 0
          in
          log
            (Printf.sprintf "[watch] %s: %d diagnostics (%s)" dir diags
               (if warm then "all artifacts warm" else "rebuilt"))
    end

(* ------------------------------------------------------------------ *)
(* Socket loop                                                        *)
(* ------------------------------------------------------------------ *)

(* Bound on a client's pending, not yet newline-terminated input: a
   full-corpus check request is ~80 KiB, so this is ~200x headroom. *)
let max_line = 16 * 1024 * 1024

type client = { fd : Unix.file_descr; buf : Buffer.t }

(* Append the [n] bytes just read and pull off the complete lines.
   The pending buffer never holds a newline, so only the new bytes are
   scanned and a line costs time linear in its length. *)
let drain_lines (c : client) (chunk : bytes) (n : int) : string list =
  match Bytes.rindex_from_opt chunk (n - 1) '\n' with
  | None ->
      Buffer.add_subbytes c.buf chunk 0 n;
      []
  | Some last ->
      Buffer.add_subbytes c.buf chunk 0 last;
      let s = Buffer.contents c.buf in
      Buffer.clear c.buf;
      Buffer.add_subbytes c.buf chunk (last + 1) (n - last - 1);
      String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")

let run ~(socket : string) ?watch ?(poll_ms = 500) ?(log = ignore) (t : t) : unit =
  (* A client that hangs up before its reply must cost only its own
     connection: the write then fails with EPIPE, which closes it,
     instead of SIGPIPE killing the daemon and its warm programs. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX socket);
  Unix.listen srv 16;
  log (Printf.sprintf "ivy serve: listening on %s" socket);
  let clients : (Unix.file_descr, client) Hashtbl.t = Hashtbl.create 8 in
  let stop = ref false in
  let watch_last = ref "" in
  let close_client fd =
    Hashtbl.remove clients fd;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  (* First watch poll runs immediately so a pre-populated directory is
     analyzed at startup, not on first edit. *)
  (match watch with Some dir -> watch_poll t ~log dir watch_last | None -> ());
  while not !stop do
    let fds = srv :: Hashtbl.fold (fun fd _ acc -> fd :: acc) clients [] in
    let timeout = if watch = None then -1.0 else float_of_int poll_ms /. 1000.0 in
    let ready, _, _ =
      try Unix.select fds [] [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    (* Accept new connections, then drain every readable client; one
       poll round's complete lines form one batch. A client whose
       pending line outgrows [max_line] is answered with an error and
       dropped once the batch is written. *)
    let batch = ref [] in
    let overflowed = ref [] in
    List.iter
      (fun fd ->
        if fd == srv then begin
          match Unix.accept srv with
          | c, _ -> Hashtbl.replace clients c { fd = c; buf = Buffer.create 256 }
          | exception Unix.Unix_error _ -> ()
        end
        else
          match Hashtbl.find_opt clients fd with
          | None -> ()
          | Some c -> (
              let chunk = Bytes.create 65536 in
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 -> close_client fd
              | n ->
                  List.iter (fun line -> batch := (c, line) :: !batch) (drain_lines c chunk n);
                  if Buffer.length c.buf > max_line then begin
                    Buffer.reset c.buf;
                    overflowed := c :: !overflowed
                  end
              | exception Unix.Unix_error _ -> close_client fd))
      ready;
    let batch = List.rev !batch in
    if batch <> [] then begin
      let responses, sd = handle_batch t (List.map snd batch) in
      List.iter2
        (fun (c, _) resp ->
          let line = Bytes.of_string (resp ^ "\n") in
          try ignore (Unix.write c.fd line 0 (Bytes.length line))
          with Unix.Unix_error _ -> close_client c.fd)
        batch responses;
      if sd then stop := true
    end;
    List.iter
      (fun c ->
        let msg = Printf.sprintf "request line exceeds %d bytes" max_line in
        let line = Bytes.of_string (render_error J.Null e_invalid msg ^ "\n") in
        (try ignore (Unix.write c.fd line 0 (Bytes.length line)) with Unix.Unix_error _ -> ());
        close_client c.fd)
      !overflowed;
    match watch with Some dir when not !stop -> watch_poll t ~log dir watch_last | _ -> ()
  done;
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) clients;
  (try Unix.close srv with Unix.Unix_error _ -> ());
  try Unix.unlink socket with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Client side (ivy rpc)                                              *)
(* ------------------------------------------------------------------ *)

let request ~(socket : string) (line : string) : string =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let payload = Bytes.of_string (line ^ "\n") in
      let rec write_all off =
        if off < Bytes.length payload then
          write_all (off + Unix.write fd payload off (Bytes.length payload - off))
      in
      write_all 0;
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 65536 in
      let rec read_line () =
        if String.contains (Buffer.contents buf) '\n' then ()
        else
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              read_line ()
      in
      read_line ();
      match String.index_opt (Buffer.contents buf) '\n' with
      | Some i -> String.sub (Buffer.contents buf) 0 i
      | None -> Buffer.contents buf)
