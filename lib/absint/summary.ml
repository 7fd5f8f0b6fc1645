(* Interprocedural function summaries.

   The direct-call graph over defined functions is condensed with
   Tarjan's SCC algorithm, which emits components callees-first.
   Singleton, non-recursive components are solved once with the
   summaries of everything below them already available; recursive
   components fall back to the return type's range (sound, and it
   keeps summary computation a single pass — no global fixpoint). *)

module I = Kc.Ir

let direct_callees (fd : I.fundec) : string list =
  let acc = ref [] in
  I.iter_instrs
    (fun i -> match i with I.Icall (_, I.Direct f, _) -> acc := f :: !acc | _ -> ())
    fd.I.fbody;
  List.sort_uniq compare !acc

(* Tarjan over function names; [sccs] come out in reverse topological
   order of the condensation, i.e. callees before callers. *)
let sccs_of (funcs : I.fundec list) : I.fundec list list =
  let by_name = Hashtbl.create 64 in
  List.iter (fun fd -> Hashtbl.replace by_name fd.I.fname fd) funcs;
  let index = Hashtbl.create 64 in
  let lowlink = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let stack = ref [] in
  let next = ref 0 in
  let out = ref [] in
  let rec strongconnect name =
    Hashtbl.replace index name !next;
    Hashtbl.replace lowlink name !next;
    incr next;
    stack := name :: !stack;
    Hashtbl.replace on_stack name ();
    let fd = Hashtbl.find by_name name in
    List.iter
      (fun callee ->
        if Hashtbl.mem by_name callee then
          if not (Hashtbl.mem index callee) then begin
            strongconnect callee;
            Hashtbl.replace lowlink name
              (min (Hashtbl.find lowlink name) (Hashtbl.find lowlink callee))
          end
          else if Hashtbl.mem on_stack callee then
            Hashtbl.replace lowlink name
              (min (Hashtbl.find lowlink name) (Hashtbl.find index callee)))
      (direct_callees fd);
    if Hashtbl.find lowlink name = Hashtbl.find index name then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | top :: rest ->
            stack := rest;
            Hashtbl.remove on_stack top;
            let acc = Hashtbl.find by_name top :: acc in
            if top = name then acc else pop acc
      in
      out := pop [] :: !out
    end
  in
  List.iter (fun fd -> if not (Hashtbl.mem index fd.I.fname) then strongconnect fd.I.fname) funcs;
  List.rev !out

let is_self_recursive (fd : I.fundec) = List.mem fd.I.fname (direct_callees fd)

(* Group the topologically ordered SCCs into bottom-up levels:
   level(scc) = 1 + max level of its callee SCCs. Every component in a
   level depends only on strictly lower levels, so the components of
   one level are independent of each other — the unit of parallelism.
   Levels come back lowest first, each preserving SCC emission order. *)
let levels_of (sccs : I.fundec list list) : I.fundec list list list =
  let scc_of_fun = Hashtbl.create 64 in
  List.iteri
    (fun idx scc -> List.iter (fun fd -> Hashtbl.replace scc_of_fun fd.I.fname idx) scc)
    sccs;
  let level_of_scc = Hashtbl.create 64 in
  let by_level = Hashtbl.create 16 in
  List.iteri
    (fun idx scc ->
      let lvl =
        List.fold_left
          (fun acc fd ->
            List.fold_left
              (fun acc callee ->
                match Hashtbl.find_opt scc_of_fun callee with
                | Some cidx when cidx <> idx -> max acc (1 + Hashtbl.find level_of_scc cidx)
                | _ -> acc)
              acc (direct_callees fd))
          0 scc
      in
      Hashtbl.replace level_of_scc idx lvl;
      let prev = Option.value (Hashtbl.find_opt by_level lvl) ~default:[] in
      Hashtbl.replace by_level lvl (scc :: prev))
    sccs;
  let max_level = Hashtbl.fold (fun _ l acc -> max l acc) level_of_scc (-1) in
  List.init (max_level + 1) (fun l ->
      List.rev (Option.value (Hashtbl.find_opt by_level l) ~default:[]))

(* The bottom-up driver every summary computation shares. Levels run
   lowest first. Within a level, each non-recursive singleton SCC is
   solved on a {!Par} pool against the summaries of strictly lower
   levels, so the pool members never observe each other; recursive
   components take [fallback]. Externs have no body and get no entry,
   which also keeps the allocator special-case in Transfer.instr in
   charge. Results merge in SCC order, identical to the serial
   computation. *)
let bottom_up ~jobs ~init ~add ~solve ~fallback (prog : I.program) =
  let sccs = sccs_of (List.filter (fun fd -> not fd.I.fextern) prog.I.funcs) in
  List.fold_left
    (fun acc level ->
      let solvable, recursive =
        List.partition
          (fun scc -> match scc with [ fd ] -> not (is_self_recursive fd) | _ -> false)
          level
      in
      let solved =
        Par.map ~jobs
          (fun scc -> match scc with [ fd ] -> (fd.I.fname, solve acc fd) | _ -> assert false)
          solvable
      in
      let acc = List.fold_left (fun acc (name, s) -> add name s acc) acc solved in
      List.fold_left
        (fun acc scc -> List.fold_left (fun acc fd -> add fd.I.fname (fallback fd) acc) acc scc)
        acc recursive)
    init (levels_of sccs)

let solve_one ?(ifaces = Transfer.no_ifaces) ~summaries ~cfg_of (fd : I.fundec) : Aval.t =
  let r = Solver.analyze_cfg ~summaries ~ifaces (cfg_of fd) in
  let ret = Solver.return_aval fd r in
  if Aval.is_bot ret then Transfer.of_ty fd.I.fret else ret

let compute ?(cfg_of = fun fd -> Dataflow.Cfg.build fd) ?(jobs = 1)
    ?(ifaces = Transfer.no_ifaces) (prog : I.program) : Transfer.summaries =
  (* [cfg_of] runs on the pool, so it must be pure or pre-populated
     (the engine context prefetches its CFG cache before going
     parallel). *)
  bottom_up ~jobs ~init:Transfer.no_summaries ~add:Transfer.SM.add
    ~solve:(fun summaries fd -> solve_one ~ifaces ~summaries ~cfg_of fd)
    ~fallback:(fun fd -> Transfer.of_ty fd.I.fret)
    prog
