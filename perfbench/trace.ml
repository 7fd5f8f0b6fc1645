(* In-memory spans for the traced run.

   Spans are recorded only from the benchmark's own files, around the
   calls it makes into each library layer; nothing inside lib/ is
   instrumented. A span names its layer before the first dot
   ("absint.summaries" belongs to layer "absint"); spans named "op.*"
   wrap one whole operation of a workload, and "setup.*" spans one
   set-up. With tracing off, [span] is a plain call. *)

type span = {
  id : int;
  name : string;
  t0 : float;
  t1 : float;
  parent : int;  (** -1 for a root span *)
  domain : int;
}

let on = ref false
let next_id = Atomic.make 0
let lock = Mutex.create ()
let recorded : span list ref = ref []

(* Per-domain stack of open span ids: the implicit parent. *)
let stack : int list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let now = Unix.gettimeofday

(* [parent] overrides the implicit one; a span opened on a worker
   domain passes it to hang under a span of the calling domain. *)
let span ?parent name f =
  if not !on then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let st = Domain.DLS.get stack in
    let parent =
      match (parent, !st) with Some p, _ -> p | None, p :: _ -> p | None, [] -> -1
    in
    st := id :: !st;
    let t0 = now () in
    Fun.protect f ~finally:(fun () ->
        let t1 = now () in
        st := List.tl !st;
        let s = { id; name; t0; t1; parent; domain = (Domain.self () :> int) } in
        Mutex.protect lock (fun () -> recorded := s :: !recorded))
  end

(* The id of the innermost open span of this domain (-1 if none). *)
let current () = match !(Domain.DLS.get stack) with p :: _ -> p | [] -> -1

let spans () = List.rev !recorded
let layer name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name
let dur s = s.t1 -. s.t0

(* Self time: the span's duration minus the part of its interval that
   its children cover. Children may run on other domains and overlap,
   so their intervals are merged before they are subtracted. *)
let self_times (all : span list) : (span * float) list =
  let kids = Hashtbl.create 256 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add kids s.parent s) all;
  List.map
    (fun s ->
      let ivs =
        Hashtbl.find_all kids s.id
        |> List.map (fun c -> (Float.max s.t0 c.t0, Float.min s.t1 c.t1))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, hi) (a, b) ->
            let a = Float.max a hi in
            if b > a then (acc +. (b -. a), b) else (acc, hi))
          (0.0, neg_infinity) ivs
      in
      (s, Float.max 0.0 (dur s -. covered)))
    all

(* Chrome trace-event JSON ("X" complete events, microseconds), which
   Perfetto and chrome://tracing open directly. *)
let write_chrome (path : string) : unit =
  let all = spans () in
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity all in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d}}"
        (if i = 0 then "" else ",")
        s.name (layer s.name)
        ((s.t0 -. base) *. 1e6)
        (dur s *. 1e6) s.domain s.id s.parent)
    all;
  output_string oc "\n]}\n";
  close_out oc
