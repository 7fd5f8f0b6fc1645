(* The ivy benchmark: one workload per process.

     main.exe --workload W --seed N --seconds S --trace 0|1
              [--expected FILE] [--benchmark FILE] [--out DIR]
     main.exe --self-test [--expected FILE]

   With --trace 0 it times set-up (repeated) and a closed loop of one
   client for S seconds and prints the end-to-end metrics: setup_s, the
   median set-up, and op_p10_ms, the tenth percentile of the op
   latency. Both are scaled to a reference host speed
   (Harness.reference), which the run measures alongside: the hosts
   this runs on are shared, and have slow phases of seconds to minutes
   in which every op takes up to 1.5x as long. Within a run, the tenth
   percentile follows the program through them where the median
   follows the host. Unscaled times, the median and p90 go to stderr;
   the median is also the per-layer op.p50_ms.

   With --trace 1 it runs the loop untraced for S/2 seconds, then with
   spans for S/2, writes the spans as Chrome trace-event JSON under DIR
   and prints the per-layer metrics. The last line of stdout is the
   result object; the human-readable report goes to stderr.
   perfbench/run.py builds this program and runs it. *)

module H = Harness

let workloads =
  [
    ("check-cold", Wl_check.make);
    ("serve-edit", Wl_serve.make);
    ("vm-e2", Wl_vm.make);
    ("fuzz-campaign", Wl_fuzz.make);
  ]

(* glibc malloc settings a run records (perfbench/run.py sets them for
   vm-e2). *)
let malloc_env = [ "MALLOC_MMAP_THRESHOLD_"; "MALLOC_TRIM_THRESHOLD_" ]

(* Switches that change what the measured code does. *)
let refused_env = [ "IVY_ABSINT_DOMAIN"; "IVY_VM_OPT"; "IVY_VM_PROFILE"; "IVY_VM_ENGINE" ]

(* The metrics, with their units, come from BENCHMARK.json: every
   timed run reports all of "end_to_end", every traced run all of
   "per_layer" (0 for a layer its workload does not run). *)
type metric = { m_name : string; m_unit : string }

let read_metrics path key =
  let j = Ivy.Jsonx.parse (In_channel.with_open_text path In_channel.input_all) in
  let str k o = Option.get (Option.bind (Ivy.Jsonx.member k o) Ivy.Jsonx.to_string_opt) in
  match Option.bind (Ivy.Jsonx.member key j) Ivy.Jsonx.to_list_opt with
  | Some ms -> List.map (fun o -> { m_name = str "name" o; m_unit = str "unit" o }) ms
  | None -> failwith (Printf.sprintf "%s: no %s list" path key)

let after prefix name =
  if String.starts_with ~prefix name then
    Some (String.sub name (String.length prefix) (String.length name - String.length prefix))
  else None

(* Op kinds are the ones BENCHMARK.json reports a trace coverage for. *)
let op_kinds per_layer = List.filter_map (fun m -> after "trace.coverage." m.m_name) per_layer

(* ------------------------------------------------------------------ *)
(* Per-layer figures from the spans                                   *)
(* ------------------------------------------------------------------ *)

let is_op (s : Trace.span) = String.starts_with ~prefix:"op." s.Trace.name
let op_kind (s : Trace.span) = Option.get (after "op." s.Trace.name)

type span_view = {
  selfs : (Trace.span * float) list;
  ops : Trace.span list;
  (* op id -> (span name -> summed self ms) *)
  in_op : (int, (string, float) Hashtbl.t) Hashtbl.t;
  (* layer -> summed self ms of its spans outside any op (set-up, probes) *)
  outside : (string, float) Hashtbl.t;
}

let view () =
  let all = Trace.spans () in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun (s : Trace.span) -> Hashtbl.replace by_id s.Trace.id s) all;
  let rec op_of (s : Trace.span) =
    match Hashtbl.find_opt by_id s.Trace.parent with
    | None -> None
    | Some p when is_op p -> Some p
    | Some p -> op_of p
  in
  let selfs = Trace.self_times all in
  let in_op = Hashtbl.create 256 and outside = Hashtbl.create 16 in
  List.iter
    (fun ((s : Trace.span), self) ->
      if not (is_op s) then
        match op_of s with
        | None ->
            let l = Trace.layer s.Trace.name in
            let prev = Option.value ~default:0.0 (Hashtbl.find_opt outside l) in
            Hashtbl.replace outside l (prev +. (self *. 1e3))
        | Some o ->
            let tbl =
              match Hashtbl.find_opt in_op o.Trace.id with
              | Some t -> t
              | None ->
                  let t = Hashtbl.create 16 in
                  Hashtbl.replace in_op o.Trace.id t;
                  t
            in
            let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.Trace.name) in
            Hashtbl.replace tbl s.Trace.name (prev +. (self *. 1e3)))
    selfs;
  { selfs; ops = List.filter is_op all; in_op; outside }

(* Median per op of [kinds] of the self ms of spans matching [pick],
   over the ops that contain any. *)
let per_op_median v kinds pick =
  List.filter_map
    (fun (o : Trace.span) ->
      if not (List.mem (op_kind o) kinds) then None
      else
        match Hashtbl.find_opt v.in_op o.Trace.id with
        | None -> None
        | Some tbl ->
            let total, hit =
              Hashtbl.fold
                (fun name ms (acc, hit) -> if pick name then (acc +. ms, true) else (acc, hit))
                tbl (0.0, false)
            in
            if hit then Some total else None)
    v.ops
  |> function
  | [] -> None
  | xs -> Some (H.median xs)

(* A span name's figure: per primary op if it occurs in one, else the
   median of its own occurrences (set-up and probe spans). *)
let span_ms v primary name =
  match per_op_median v primary (String.equal name) with
  | Some ms -> ms
  | None -> (
      match
        List.filter_map
          (fun ((s : Trace.span), self) ->
            if s.Trace.name = name then Some (self *. 1e3) else None)
          v.selfs
      with
      | [] -> 0.0
      | xs -> H.median xs)

let coverage v kind =
  List.filter_map
    (fun ((s : Trace.span), self) ->
      if is_op s && op_kind s = kind && Trace.dur s > 0.0 then Some (1.0 -. (self /. Trace.dur s))
      else None)
    v.selfs
  |> function
  | [] -> 0.0
  | xs -> H.median xs

(* Rows are the layers BENCHMARK.json names, then any other layer the
   spans show; a named layer without spans prints "-". *)
let layer_table v ~per_layer =
  let kinds = List.filter (fun k -> List.exists (fun o -> op_kind o = k) v.ops) (op_kinds per_layer) in
  let add acc l = if l = "trace" || List.mem l acc then acc else acc @ [ l ] in
  let layers = List.fold_left (fun acc m -> add acc (Trace.layer m.m_name)) [] per_layer in
  let layers = List.fold_left (fun acc ((s : Trace.span), _) -> add acc (Trace.layer s.Trace.name)) layers v.selfs in
  let layers = List.filter (fun l -> l <> "op") layers in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf
    "per-layer self time: median ms per op, and total ms outside ops (- = layer absent)\n%-10s"
    "layer";
  List.iter (fun k -> Printf.bprintf buf " %12s" k) (kinds @ [ "outside-ops" ]);
  Printf.bprintf buf "\n";
  List.iter
    (fun l ->
      Printf.bprintf buf "%-10s" l;
      List.iter
        (fun k ->
          match per_op_median v [ k ] (fun n -> Trace.layer n = l) with
          | Some ms -> Printf.bprintf buf " %12.3f" ms
          | None -> Printf.bprintf buf " %12s" "-")
        kinds;
      (match Hashtbl.find_opt v.outside l with
      | Some ms -> Printf.bprintf buf " %12.3f" ms
      | None -> Printf.bprintf buf " %12s" "-");
      Printf.bprintf buf "\n")
    layers;
  Printf.bprintf buf "%-10s" "coverage";
  List.iter (fun k -> Printf.bprintf buf " %12.3f" (coverage v k)) kinds;
  Printf.bprintf buf "\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Cross-run count ledger                                             *)
(* ------------------------------------------------------------------ *)

(* Deterministic counts are kept per build of this program and per
   workload; a later run that reads another value for a key is a
   benchmark defect. *)
let ledger_compare ~out ~workload (counts : (string * int) list) : string list =
  let exe = Digest.to_hex (Digest.file Sys.executable_name) in
  let path = Filename.concat out (Printf.sprintf "ledger-%s-%s.txt" workload exe) in
  let old =
    if Sys.file_exists path then
      H.read_expected path |> List.map (fun (k, v) -> (k, int_of_string v))
    else []
  in
  let defects =
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k old with
        | Some v0 when v0 <> v ->
            Some (Printf.sprintf "count %s read %d in an earlier run, %d now" k v0 v)
        | _ -> None)
      counts
  in
  let fresh = List.filter (fun (k, _) -> not (List.mem_assoc k old)) counts in
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path (fun oc ->
      List.iter (fun (k, v) -> Printf.fprintf oc "%s %d\n" k v) fresh);
  defects

(* ------------------------------------------------------------------ *)
(* Output                                                             *)
(* ------------------------------------------------------------------ *)

(* The peak resident set of this process, in MB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         Option.map (fun rest -> Scanf.sscanf rest " %d kB" (fun kb -> float_of_int kb /. 1024.0))
           (after "VmHWM:" l))
  |> Option.value ~default:nan

(* Every digit, as measured; a value that is not a number is a bug
   here, not a result. *)
let num f =
  if not (Float.is_finite f) then failwith "metric is not a finite number"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let metrics_json (ms : (metric * float) list) =
  "{"
  ^ String.concat ","
      (List.map
         (fun (m, v) -> Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" m.m_name (num v) m.m_unit)
         ms)
  ^ "}"

(* ------------------------------------------------------------------ *)
(* One run                                                            *)
(* ------------------------------------------------------------------ *)

let run ~workload ~seed ~seconds ~trace ~expected ~benchmark ~out =
  let make =
    match List.assoc_opt workload workloads with
    | Some m -> m
    | None ->
        Printf.eprintf "unknown workload %s (use %s)\n" workload
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  let end_to_end = read_metrics benchmark "end_to_end" in
  let per_layer = read_metrics benchmark "per_layer" in
  let exp = H.read_expected expected in
  (try Sys.mkdir out 0o755 with Sys_error _ -> ());
  let h = H.create () in
  let w = make h exp ~seed in
  let nproc = Domain.recommended_domain_count () in
  Printf.eprintf "perfbench %s: seed %d, %gs, trace %d; OCaml %s, nproc %d, jobs %d; %s\n%!"
    workload seed seconds trace Sys.ocaml_version nproc H.jobs
    (String.concat ", "
       (List.map
          (fun v -> v ^ "=" ^ Option.value ~default:"default" (Sys.getenv_opt v))
          malloc_env));
  let primary phase = H.ms_of h ~phase w.H.primary in
  let metrics =
    if trace = 0 then begin
      (* Set-up runs at least three times and until one second has
         passed (at most 20 times), so that a short set-up still gets a
         steady median; the last state is measured. *)
      let setups = ref [] and refs = ref [] in
      while
        List.length !setups < 3
        || (List.fold_left ( +. ) 0.0 !setups < 1.0 && List.length !setups < 20)
      do
        (* The previous set-up's garbage (VM machine planes included) is
           collected off the clock, so set-up time does not depend on
           when the GC would have got to it. *)
        Gc.full_major ();
        let t0 = H.now () in
        w.H.setup ();
        setups := (H.now () -. t0) :: !setups
      done;
      Gc.full_major ();
      H.loop seconds (fun () ->
          w.H.step ~traced:false;
          refs := H.reference () :: !refs);
      (* One reference after every step; its tenth percentile sets the
         run's scale (see Harness.reference). *)
      let ops = primary "timed" in
      let scale = H.reference_ms /. H.quantile 0.1 !refs in
      Printf.eprintf "unscaled: set-up %d times, median %.3f s; op p10 %.3f ms; reference p10 %.3f ms over %d steps\n"
        (List.length !setups) (H.median !setups) (H.quantile 0.1 ops) (H.quantile 0.1 !refs)
        (List.length !refs);
      let value = function
        | "setup_s" -> H.median !setups *. scale
        | "op_p10_ms" -> H.quantile 0.1 ops *. scale
        | n -> failwith ("no end-to-end metric " ^ n)
      in
      List.map (fun m -> (m, value m.m_name)) end_to_end
    end
    else begin
      Trace.on := true;
      w.H.setup ();
      Trace.on := false;
      H.loop (seconds /. 2.0) (fun () -> w.H.step ~traced:false);
      Trace.on := true;
      h.H.phase <- "traced";
      H.loop (seconds /. 2.0) (fun () -> w.H.step ~traced:true);
      w.H.finish ();
      Trace.on := false;
      let path = Filename.concat out (Printf.sprintf "trace-%s-seed%d.json" workload seed) in
      Trace.write_chrome path;
      Printf.eprintf "trace written to %s\n" path;
      let v = view () in
      prerr_string (layer_table v ~per_layer);
      let timed_median k = match H.ms_of h ~phase:"timed" [ k ] with [] -> 0.0 | xs -> H.median xs in
      let value name =
        match (List.assoc_opt name h.H.layer, List.assoc_opt name h.H.counts) with
        | Some x, _ -> x
        | None, Some n -> float_of_int n
        | None, None -> (
            match name with
            | "trace.overhead_ms" -> H.median (primary "traced") -. H.median (primary "timed")
            | "op.p50_ms" -> H.median (primary "timed")
            | "vm.e2_p90_ms" -> (
                match H.ms_of h ~phase:"timed" [ "e2" ] with [] -> 0.0 | xs -> H.quantile 0.9 xs)
            | _ when not (Filename.check_suffix name "_ms") -> (
                match after "trace.coverage." name with Some k -> coverage v k | None -> 0.0)
            | _ -> (
                let base = Filename.chop_suffix name "_ms" in
                (* serve.<kind>_ms is the daemon's own request latency. *)
                match after "serve." base with
                | Some k when List.mem k (op_kinds per_layer) -> timed_median k
                | _ -> span_ms v w.H.primary base))
      in
      List.map (fun m -> (m, value m.m_name)) per_layer
    end
  in
  (* Samples per op kind: every timing median comes with its count. *)
  List.iter
    (fun phase ->
      List.iter
        (fun k ->
          match H.ms_of h ~phase [ k ] with
          | [] -> ()
          | xs ->
              Printf.eprintf "%-7s %-9s n=%-5d p10 %10.3f ms  p50 %10.3f ms  p90 %10.3f ms%s\n"
                phase k (List.length xs) (H.quantile 0.1 xs) (H.median xs) (H.quantile 0.9 xs)
                (if List.length xs < 100 then " (p90: fewer than 10 samples beyond it)" else ""))
        (op_kinds per_layer))
    [ "timed"; "traced" ];
  let defects = h.H.defects @ ledger_compare ~out ~workload (List.rev h.H.counts) in
  Printf.eprintf "attempted %d, failed %d, fail_ratio %g\n" h.H.attempted h.H.failed
    (float_of_int h.H.failed /. float_of_int (max 1 h.H.attempted));
  (* Logged, not gated: the peak is set by when the GC finalizes dead
     VM machines, so it moves in steps of one machine between runs. *)
  let peak = peak_rss_mb () in
  Printf.eprintf "peak resident set (VmHWM) %.1f MB\n" peak;
  List.iter (fun e -> Printf.eprintf "FAILED: %s\n" e) (List.rev h.H.errors);
  List.iter
    (fun (k, v) -> if not (String.contains k '@') then Printf.eprintf "count %s = %d\n" k v)
    (List.rev h.H.counts);
  List.iter (fun d -> Printf.eprintf "DEFECT: %s\n" d) defects;
  let result =
    Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}"
      (* A failed set-up check leaves an error but no failed op. *)
      (h.H.failed = 0 && h.H.errors = [] && defects = [])
      (max 1 h.H.attempted) h.H.failed (metrics_json metrics)
  in
  Out_channel.with_open_text
    (Filename.concat out (Printf.sprintf "result-%s-seed%d-trace%d.json" workload seed trace))
    (fun oc ->
      Printf.fprintf oc
        "{\"workload\":\"%s\",\"seed\":%d,\"seconds\":%s,\"ocaml\":\"%s\",\"nproc\":%d,\"jobs\":%d,\"peak_rss_mb\":%s,\"result\":%s}\n"
        workload seed (num seconds) Sys.ocaml_version nproc H.jobs (num peak) result);
  flush stderr;
  print_endline result

(* ------------------------------------------------------------------ *)
(* Self-test: a wrong expected value must fail the op                 *)
(* ------------------------------------------------------------------ *)

let self_test ~expected =
  let exp = H.read_expected expected in
  let tamper key v = (key, v) :: List.remove_assoc key exp in
  let failed_ops make exp =
    let h = H.create () in
    let w = make h exp ~seed:1 in
    w.H.setup ();
    w.H.step ~traced:false;
    h.H.failed
  in
  let cases =
    [
      ("check-cold, true expectations", Wl_check.make, exp, 0);
      ("check-cold, wrong diagnostics digest", Wl_check.make,
       tamper "check.diags_md5" (String.make 32 '0'), 1);
      ("check-cold, wrong relational discharge count", Wl_check.make,
       tamper "check.proved_rel" "5", 1);
      ("vm-e2, true expectations", Wl_vm.make, exp, 0);
      ("vm-e2, wrong cycle count", Wl_vm.make,
       tamper "vm.e2_cycles" (string_of_int (H.expected_int exp "vm.e2_cycles" + 1)), 1);
    ]
  in
  let ok =
    List.for_all
      (fun (name, make, exp, want) ->
        let got = failed_ops make exp in
        Printf.printf "%-45s failed ops %d (want %d) %s\n%!" name got want
          (if got = want then "ok" else "WRONG");
        got = want)
      cases
  in
  exit (if ok then 0 else 1)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.0) and trace = ref (-1) in
  let expected = ref "perfbench/expected.txt" and benchmark = ref "BENCHMARK.json" in
  let out = ref ".perfbench" and selftest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 timed run or traced run");
      ("--expected", Arg.Set_string expected, "FILE expected outputs");
      ("--benchmark", Arg.Set_string benchmark, "FILE metric names and units");
      ("--out", Arg.Set_string out, "DIR traces, results and the count ledger");
      ("--self-test", Arg.Set selftest, " check that wrong expectations fail ops");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  (match List.filter (fun v -> Sys.getenv_opt v <> None) refused_env with
  | [] -> ()
  | set ->
      Printf.eprintf "refusing to run with %s set: it changes the measured code\n"
        (String.concat ", " set);
      exit 2);
  if !selftest then self_test ~expected:!expected
  else begin
    if !workload = "" || !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
      exit 2
    end;
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace ~expected:!expected
      ~benchmark:!benchmark ~out:!out
  end
