(* What one workload run collects: latency samples per op kind,
   attempted/failed op counts, deterministic counts, and per-layer
   values that do not come from spans. *)

(* Analysis contexts and the fuzz pool use two domains: the CLI's
   default [--jobs] on the two-core hosts this benchmark was sized on. *)
let jobs = 2

type sample = { phase : string; kind : string; ms : float }

type t = {
  mutable phase : string;  (** "timed" or "traced" *)
  mutable samples : sample list;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable counts : (string * int) list;  (** first value seen per key *)
  mutable defects : string list;
  mutable layer : (string * float) list;
}

let create () =
  {
    phase = "timed";
    samples = [];
    attempted = 0;
    failed = 0;
    errors = [];
    counts = [];
    defects = [];
    layer = [];
  }

let now = Unix.gettimeofday

let note_error h msg =
  if List.length h.errors < 20 then h.errors <- msg :: h.errors

(* An output check of one op: false records why. *)
let expect h cond msg =
  if not cond then note_error h msg;
  cond

let add_sample h kind ms = h.samples <- { phase = h.phase; kind; ms } :: h.samples

(* One op of [kind], as the client sees it: [f] returns whether the
   output was correct; an exception is a failed op. The op span lets
   the traced run attribute the op's time to the layer spans in it. *)
let op h kind (f : unit -> bool) : unit =
  h.attempted <- h.attempted + 1;
  let t0 = now () in
  let ok =
    Trace.span ("op." ^ kind) (fun () ->
        try f ()
        with e ->
          note_error h (Printf.sprintf "%s raised %s" kind (Printexc.to_string e));
          false)
  in
  add_sample h kind ((now () -. t0) *. 1e3);
  if not ok then h.failed <- h.failed + 1

(* A deterministic count. Seeing a key again with another value is a
   benchmark defect: such counts are compared, never averaged. *)
let count h key v =
  match List.assoc_opt key h.counts with
  | None -> h.counts <- (key, v) :: h.counts
  | Some v0 when v0 = v -> ()
  | Some v0 ->
      h.defects <- Printf.sprintf "count %s read %d, then %d in the same run" key v0 v :: h.defects

let set_layer h name v = h.layer <- (name, v) :: List.remove_assoc name h.layer

(* Repeat [step] until [seconds] have passed since the call (at least
   once): the closed loop of the single client. *)
let loop seconds step =
  let t0 = now () in
  step ();
  while now () -. t0 < seconds do
    step ()
  done

(* ---- host speed reference ---- *)

(* The hosts this runs on are shared: for minutes at a time other
   tenants take their last-level cache and memory bandwidth, and then
   every workload here, whose working set is tens of MB, runs up to
   1.5x slower while plain arithmetic does not slow at all. The
   reference is a fixed task of the benchmark's own that slows the same
   way: fill a 45 MiB buffer (the size of one VM machine's planes),
   then read 300,000 random bytes of it. Timed runs time it after every
   step, and scale their end-to-end times to a host on which its tenth
   percentile is [reference_ms]. The buffer is a bigarray, off
   the OCaml heap: a 45 MiB live block on the heap lets the major GC run
   later and the workload's heap grow several times over. *)
let reference_ms = 10.0

let reference_buf = lazy (Bigarray.Array1.create Bigarray.char Bigarray.c_layout (45 lsl 20))

let reference () =
  let b = Lazy.force reference_buf in
  let n = Bigarray.Array1.dim b in
  let t0 = now () in
  Bigarray.Array1.fill b '\001';
  let x = ref 0x2545 and sum = ref 0 in
  for _ = 1 to 300_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    sum := !sum + Char.code (Bigarray.Array1.unsafe_get b (!x mod n))
  done;
  let ms = (now () -. t0) *. 1e3 in
  if !sum <> 300_000 then failwith "reference: read back another value than it wrote";
  ms

(* ---- order statistics ---- *)

(* Linear interpolation between closest ranks; [q] in [0, 1]. *)
let quantile q = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

let ms_of h ~phase kinds =
  List.filter_map
    (fun (s : sample) -> if s.phase = phase && List.mem s.kind kinds then Some s.ms else None)
    h.samples

(* ---- expected outputs ---- *)

(* "key value" lines; blank lines and '#' comments ignored. *)
let read_expected path : (string * string) list =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         let l = String.trim l in
         if l = "" || l.[0] = '#' then None
         else
           match String.index_opt l ' ' with
           | Some i -> Some (String.sub l 0 i, String.trim (String.sub l i (String.length l - i)))
           | None -> failwith ("malformed expected line: " ^ l))

let expected_int exp key =
  match List.assoc_opt key exp with
  | Some v -> int_of_string v
  | None -> failwith ("expected value missing: " ^ key)

let expected_str exp key =
  match List.assoc_opt key exp with
  | Some v -> v
  | None -> failwith ("expected value missing: " ^ key)

(* A workload as main.ml runs it. [setup] builds fresh
   state (timed, repeated for setup_s); [step] is one closed-loop
   iteration, traced or not; [finish] runs once after the traced
   phase for per-layer values that need both phases. *)
type workload = {
  primary : string list;  (** op kinds behind op_p10_ms *)
  setup : unit -> unit;
  step : traced:bool -> unit;
  finish : unit -> unit;
}
