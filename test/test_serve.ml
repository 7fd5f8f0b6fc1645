(* Tests for the serve daemon's JSON framing and request handling,
   exercised in-process through [Serve.handle_line] — no socket needed
   to pin down the protocol. *)

module J = Ivy.Jsonx

(* ------------------------------------------------------------------ *)
(* Jsonx                                                              *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("s", J.Str "a\"b\\c\nd\te");
        ("n", J.Num 42.0);
        ("f", J.Num 1.5);
        ("neg", J.Num (-7.0));
        ("t", J.Bool true);
        ("nil", J.Null);
        ("l", J.List [ J.Num 1.0; J.Str "x"; J.Obj [] ]);
      ]
  in
  let rendered = J.render v in
  Alcotest.(check bool) "round-trips" true (J.parse rendered = v);
  (* Integers render without a fractional part. *)
  Alcotest.(check string) "integer rendering" "[42,1.5]"
    (J.render (J.List [ J.Num 42.0; J.Num 1.5 ]))

let test_json_escapes () =
  Alcotest.(check string) "control chars escaped" "\"a\\nb\\tc\\\"d\\\\e\""
    (J.render (J.Str "a\nb\tc\"d\\e"));
  (match J.parse "\"\\u0041\\u00e9\"" with
  | J.Str s -> Alcotest.(check string) "unicode escapes decode to UTF-8" "A\xc3\xa9" s
  | _ -> Alcotest.fail "expected a string");
  match J.parse "\" spaced \\/ slash \"" with
  | J.Str s -> Alcotest.(check string) "escaped slash" " spaced / slash " s
  | _ -> Alcotest.fail "expected a string"

let test_json_raw_splicing () =
  Alcotest.(check string) "Raw rendered verbatim" "{\"report\":{\"pre\":[1]}}"
    (J.render (J.Obj [ ("report", J.Raw "{\"pre\":[1]}") ]))

let test_json_rejects_malformed () =
  let rejects s =
    Alcotest.(check bool) (Printf.sprintf "rejects %S" s) true
      (match J.parse s with exception J.Parse_error _ -> true | _ -> false)
  in
  rejects "";
  rejects "{";
  rejects "{\"a\":}";
  rejects "[1,]";
  rejects "\"unterminated";
  rejects "tru";
  rejects "{} trailing";
  rejects "1 2"

let test_json_accessors () =
  let j = J.parse "{\"a\":{\"b\":3},\"l\":[1,2],\"s\":\"x\"}" in
  Alcotest.(check (option int)) "nested member" (Some 3)
    (Option.bind (J.member "a" j) (J.member "b") |> Fun.flip Option.bind J.to_int_opt);
  Alcotest.(check (option string)) "string member" (Some "x")
    (Option.bind (J.member "s" j) J.to_string_opt);
  Alcotest.(check (option int)) "list length" (Some 2)
    (Option.map List.length (Option.bind (J.member "l" j) J.to_list_opt));
  Alcotest.(check bool) "missing member" true (J.member "zzz" j = None)

(* ------------------------------------------------------------------ *)
(* handle_line                                                        *)
(* ------------------------------------------------------------------ *)

let preamble =
  "void spin_lock(long *l);\nvoid spin_unlock(long *l);\nvoid schedule(void) __blocking;\n"

let src_v1 =
  preamble
  ^ "long the_lock;\n\
     int helper(int x) { return x + 1; }\n\
     int start_kernel(void) {\n\
     \  spin_lock(&the_lock);\n\
     \  int r = helper(1);\n\
     \  spin_unlock(&the_lock);\n\
     \  return r;\n\
     }\n"

let src_v2 =
  preamble
  ^ "long the_lock;\n\
     int helper(int x) { return x + 2; }\n\
     int start_kernel(void) {\n\
     \  spin_lock(&the_lock);\n\
     \  int r = helper(1);\n\
     \  spin_unlock(&the_lock);\n\
     \  return r;\n\
     }\n"

let check_request ?(id = 1) ?(program = "p") src =
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
                 J.List [ J.Obj [ ("path", J.Str "t.kc"); ("source", J.Str src) ] ] );
             ] );
       ])

let get path j =
  List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) path

let result_bool path j =
  match get ("result" :: path) j with Some (J.Bool b) -> Some b | _ -> None

let error_code j =
  Option.bind (get [ "error"; "code" ] j) J.to_int_opt

let respond t line =
  let resp, sd = Ivy.Serve.handle_line t line in
  (J.parse resp, sd)

let test_serve_cold_then_warm () =
  let t = Ivy.Serve.create ~capacity:2 () in
  let r1, _ = respond t (check_request src_v1) in
  Alcotest.(check (option bool)) "cold check is not warm" (Some false)
    (result_bool [ "warm" ] r1);
  Alcotest.(check (option int)) "id echoed" (Some 1) (get [ "id" ] r1 |> Fun.flip Option.bind J.to_int_opt);
  Alcotest.(check bool) "report present" true (get [ "result"; "report"; "diagnostics" ] r1 <> None);
  (* Byte-identical resubmit: no parse, no builds. *)
  let r2, _ = respond t (check_request ~id:2 src_v1) in
  Alcotest.(check (option bool)) "resubmit is warm" (Some true) (result_bool [ "warm" ] r2);
  Alcotest.(check (option bool)) "source reuse detected" (Some true)
    (result_bool [ "reused_source" ] r2);
  Alcotest.(check bool) "reports byte-identical" true
    (get [ "result"; "report" ] r1 = get [ "result"; "report" ] r2);
  match get [ "result"; "stats"; "totals"; "builds" ] r2 with
  | Some (J.Num n) -> Alcotest.(check int) "zero builds on warm check" 0 (int_of_float n)
  | _ -> Alcotest.fail "stats.totals.builds missing"

let test_serve_edit_rebuilds () =
  let t = Ivy.Serve.create () in
  ignore (respond t (check_request src_v1));
  let r, _ = respond t (check_request ~id:2 src_v2) in
  Alcotest.(check (option bool)) "edited check is not warm" (Some false)
    (result_bool [ "warm" ] r);
  Alcotest.(check (option bool)) "source changed" (Some false)
    (result_bool [ "reused_source" ] r);
  (match get [ "result"; "update"; "changed" ] r with
  | Some (J.List [ J.Str f ]) -> Alcotest.(check string) "only helper changed" "helper" f
  | _ -> Alcotest.fail "update.changed missing");
  (* The edited report matches what a brand-new daemon computes cold. *)
  let fresh = Ivy.Serve.create () in
  let cold, _ = respond fresh (check_request src_v2) in
  Alcotest.(check bool) "incremental report matches cold daemon" true
    (get [ "result"; "report" ] r = get [ "result"; "report" ] cold)

let test_serve_programs_are_isolated () =
  let t = Ivy.Serve.create () in
  ignore (respond t (check_request ~program:"a" src_v1));
  (* A different program with the same sources still parses fresh
     state but does not disturb program a's warmth. *)
  ignore (respond t (check_request ~id:2 ~program:"b" src_v2));
  let r, _ = respond t (check_request ~id:3 ~program:"a" src_v1) in
  Alcotest.(check (option bool)) "program a still warm" (Some true)
    (result_bool [ "warm" ] r)

let test_serve_stats_and_invalidate () =
  let t = Ivy.Serve.create () in
  ignore (respond t (check_request src_v1));
  let s, _ = respond t {|{"id":9,"method":"stats"}|} in
  (match get [ "result"; "resident" ] s with
  | Some (J.Num n) -> Alcotest.(check int) "one resident program" 1 (int_of_float n)
  | _ -> Alcotest.fail "resident missing");
  let inv, _ =
    respond t
      {|{"id":10,"method":"invalidate","params":{"program":"p","artifact":"cfg","param":"helper"}}|}
  in
  (match get [ "result"; "dropped" ] inv with
  | Some (J.Num n) ->
      Alcotest.(check bool) "targeted invalidate drops downstream" true (int_of_float n > 0)
  | _ -> Alcotest.fail "dropped missing");
  (* After invalidation the next check rebuilds. *)
  let r, _ = respond t (check_request ~id:11 src_v1) in
  Alcotest.(check (option bool)) "post-invalidate check rebuilds" (Some false)
    (result_bool [ "warm" ] r);
  let bad, _ = respond t {|{"id":12,"method":"invalidate","params":{"program":"zzz"}}|} in
  Alcotest.(check (option int)) "unknown program error" (Some 2) (error_code bad)

let test_serve_errors () =
  let t = Ivy.Serve.create () in
  let bad_json, _ = respond t "{not json" in
  Alcotest.(check (option int)) "parse error code" (Some (-32700)) (error_code bad_json);
  let no_method, _ = respond t {|{"id":1}|} in
  Alcotest.(check (option int)) "invalid request code" (Some (-32600)) (error_code no_method);
  let bad_method, _ = respond t {|{"id":1,"method":"frobnicate"}|} in
  Alcotest.(check (option int)) "unknown method code" (Some (-32601)) (error_code bad_method);
  let no_files, _ = respond t {|{"id":1,"method":"check","params":{}}|} in
  Alcotest.(check (option int)) "missing files code" (Some (-32602)) (error_code no_files);
  let bad_analysis, _ =
    respond t
      (J.render
         (J.Obj
            [
              ("id", J.Num 1.0);
              ("method", J.Str "check");
              ( "params",
                J.Obj
                  [
                    ( "files",
                      J.List
                        [ J.Obj [ ("path", J.Str "t.kc"); ("source", J.Str src_v1) ] ] );
                    ("only", J.List [ J.Str "nosuch" ]);
                  ] );
            ]))
  in
  Alcotest.(check (option int)) "unknown analysis code" (Some 3) (error_code bad_analysis);
  let syntax_err, _ = respond t (check_request "int f( {") in
  Alcotest.(check (option int)) "frontend error code" (Some 1) (error_code syntax_err);
  match get [ "error"; "message" ] syntax_err with
  | Some (J.Str m) ->
      Alcotest.(check bool) "frontend message names the failure" true
        (String.length m > 0)
  | _ -> Alcotest.fail "error.message missing"

(* A program the frontend rejects gets a JSON-RPC error, and the
   daemon goes on to serve the next request. *)
let test_serve_survives_frontend_error () =
  let t = Ivy.Serve.create () in
  let bad, sd = respond t (check_request "int f(void) { return sizeof(void); }") in
  Alcotest.(check bool) "still serving" false sd;
  Alcotest.(check (option int)) "frontend error code" (Some 1) (error_code bad);
  (match get [ "error"; "message" ] bad with
  | Some (J.Str m) ->
      Alcotest.(check string) "located message" "type error: sizeof(void) at t.kc:1:22" m
  | _ -> Alcotest.fail "error.message missing");
  let ok, _ = respond t (check_request ~id:2 src_v1) in
  Alcotest.(check bool) "next request answered" true (get [ "result" ] ok <> None)

let test_serve_shutdown () =
  let t = Ivy.Serve.create () in
  let resp, sd = Ivy.Serve.handle_line t {|{"id":1,"method":"shutdown"}|} in
  Alcotest.(check bool) "shutdown flag set" true sd;
  Alcotest.(check (option string)) "acknowledged" (Some "bye")
    (Option.bind (get [ "result" ] (J.parse resp)) J.to_string_opt);
  let _, sd' = Ivy.Serve.handle_line t (check_request src_v1) in
  Alcotest.(check bool) "check does not set the flag" false sd'

let test_serve_batch () =
  let t = Ivy.Serve.create () in
  (* Two checks of the same new program in one batch: the batch
     pre-parses each distinct digest once and both succeed. *)
  let responses, sd =
    Ivy.Serve.handle_batch t
      [ check_request ~id:1 src_v1; check_request ~id:2 src_v1; {|{"id":3,"method":"stats"}|} ]
  in
  Alcotest.(check int) "three responses in order" 3 (List.length responses);
  Alcotest.(check bool) "no shutdown" false sd;
  let parsed = List.map J.parse responses in
  (match parsed with
  | [ r1; r2; s ] ->
      Alcotest.(check (option bool)) "first is cold" (Some false)
        (result_bool [ "warm" ] r1);
      Alcotest.(check (option bool)) "second (same digest) is warm" (Some true)
        (result_bool [ "warm" ] r2);
      Alcotest.(check bool) "stats last" true (get [ "result"; "requests" ] s <> None)
  | _ -> Alcotest.fail "expected three responses");
  Alcotest.(check string) "src_digest is deterministic"
    (Ivy.Serve.src_digest [ ("a", "x") ])
    (Ivy.Serve.src_digest [ ("a", "x") ])

(* Run [f socket] against a daemon forked on a temp socket, with
   SIGPIPE at its default action so only the daemon's own handling
   keeps it alive; then a shutdown request must end it with status 0. *)
let with_daemon f =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ivy-test-%d.sock" (Unix.getpid ()))
  in
  match Unix.fork () with
  | 0 ->
      Sys.set_signal Sys.sigpipe Sys.Signal_default;
      (try Ivy.Serve.run ~socket (Ivy.Serve.create ()) with _ -> Unix._exit 2);
      Unix._exit 0
  | pid ->
      let reaped = ref false in
      let reap () =
        reaped := true;
        snd (Unix.waitpid [] pid)
      in
      Fun.protect
        ~finally:(fun () ->
          if not !reaped then begin
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (reap ())
          end;
          try Sys.remove socket with Sys_error _ -> ())
        (fun () ->
          let rec await n =
            if n > 0 && not (Sys.file_exists socket) then begin
              Unix.sleepf 0.02;
              await (n - 1)
            end
          in
          await 500;
          f socket;
          ignore (Ivy.Serve.request ~socket {|{"id":3,"method":"shutdown"}|});
          match reap () with
          | Unix.WEXITED 0 -> ()
          | Unix.WEXITED n -> Alcotest.failf "daemon exited with %d" n
          | Unix.WSIGNALED s | Unix.WSTOPPED s -> Alcotest.failf "daemon killed by signal %d" s)

(* The daemon still answers another client's stats. *)
let check_stats_answered socket =
  let stats =
    match Ivy.Serve.request ~socket {|{"id":2,"method":"stats"}|} with
    | resp -> J.parse resp
    | exception Unix.Unix_error (e, _, _) ->
        Alcotest.failf "daemon gone: %s" (Unix.error_message e)
  in
  Alcotest.(check bool) "second client gets its stats" true
    (get [ "result"; "requests" ] stats <> None)

(* Over a real socket: a client that sends a check and hangs up before
   the reply must not take the daemon down. *)
let test_serve_client_hangup () =
  with_daemon (fun socket ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let line = Bytes.of_string (check_request src_v1 ^ "\n") in
      ignore (Unix.write fd line 0 (Bytes.length line));
      Unix.close fd;
      check_stats_answered socket)

(* A client that sends more than [max_line] bytes without a newline
   gets a -32600 error line and loses only its own connection. *)
let test_serve_oversized_line () =
  let saved = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigpipe saved)
    (fun () ->
      with_daemon (fun socket ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX socket);
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
          let payload = Bytes.make (Ivy.Serve.max_line + 1) 'x' in
          let rec write_all off =
            if off < Bytes.length payload then
              match Unix.write fd payload off (Bytes.length payload - off) with
              | n -> write_all (off + n)
              | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
          in
          write_all 0;
          let buf = Buffer.create 256 in
          let chunk = Bytes.create 4096 in
          let rec read_all () =
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> ()
            | n ->
                Buffer.add_subbytes buf chunk 0 n;
                read_all ()
            | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                Alcotest.fail "no reply to an oversized line within 30 s"
          in
          read_all ();
          Unix.close fd;
          let resp = J.parse (String.trim (Buffer.contents buf)) in
          Alcotest.(check (option (float 0.0))) "invalid-request error" (Some (-32600.0))
            (match get [ "error"; "code" ] resp with Some (J.Num n) -> Some n | _ -> None);
          check_stats_answered socket))

let () =
  Alcotest.run "serve"
    [
      ( "jsonx",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "raw splicing" `Quick test_json_raw_splicing;
          Alcotest.test_case "rejects malformed" `Quick test_json_rejects_malformed;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "cold then warm" `Quick test_serve_cold_then_warm;
          Alcotest.test_case "edit rebuilds" `Quick test_serve_edit_rebuilds;
          Alcotest.test_case "programs isolated" `Quick test_serve_programs_are_isolated;
          Alcotest.test_case "stats and invalidate" `Quick test_serve_stats_and_invalidate;
          Alcotest.test_case "protocol errors" `Quick test_serve_errors;
          Alcotest.test_case "frontend error survived" `Quick test_serve_survives_frontend_error;
          Alcotest.test_case "shutdown" `Quick test_serve_shutdown;
          Alcotest.test_case "batch" `Quick test_serve_batch;
          Alcotest.test_case "client hang-up survived" `Quick test_serve_client_hangup;
          Alcotest.test_case "oversized line rejected" `Quick test_serve_oversized_line;
        ] );
    ]
