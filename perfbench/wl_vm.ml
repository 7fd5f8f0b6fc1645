(* vm-e2: the paper's runtime-overhead experiment. Set-up deputizes
   the corpus (Facts-optimized) and compiles it for the VM; one op
   boots a machine on the compiled engine, runs the boot script and
   every Table 1 row for 3 iterations, on one domain. The analysis
   layers run only in set-up. *)

module H = Harness

let span = Trace.span

let cycles (t : Vm.Interp.t) = t.Vm.Interp.m.Vm.Machine.cost.Vm.Cost.cycles
let checks_executed (t : Vm.Interp.t) = t.Vm.Interp.m.Vm.Machine.cost.Vm.Cost.checks_executed

(* One E2 schedule; a trap propagates and fails the op. [inner:false]
   leaves out the boot/exec spans. *)
let e2 ?(inner = true) prog =
  let span name f = if inner then span name f else f () in
  let t = span "vm.boot" (fun () -> Vm.Builtins.boot ~engine:Vm.Interp.Compiled prog) in
  let run entry args = span "vm.exec" (fun () -> ignore (Vm.Interp.run t entry args)) in
  run Kernel.Corpus.boot_entry [];
  List.iter (fun (row : Kernel.Workloads.row) -> run row.Kernel.Workloads.entry [ 3L ])
    Kernel.Workloads.table1;
  t

let verify h exp t =
  let want = H.expected_int exp "vm.e2_cycles" in
  H.count h "vm.cycles" (cycles t);
  H.count h "vm.checks_executed" (checks_executed t);
  H.expect h (cycles t = want) (Printf.sprintf "vm.cycles: got %d, expected %d" (cycles t) want)

let make h exp ~seed:_ : H.workload =
  let prog = ref None in
  {
    H.primary = [ "e2" ];
    setup =
      (fun () ->
        let p = Wl_check.frontend ~traced:true (Kernel.Workloads.sources ()) in
        span "deputy.deputize" (fun () -> ignore (Deputy.Dreport.deputize ~optimize:true p));
        (* Functions compile lazily on first call, so the compile span
           covers Compile.of_program and the first, validated schedule. *)
        Vm.Compile.reset_opt_stats ();
        let code, t =
          span "vm.compile" (fun () ->
              let code = Vm.Compile.of_program p in
              (code, e2 ~inner:false p))
        in
        ignore (verify h exp t);
        H.count h "vm.compiled_functions" (Vm.Compile.compiled_functions code);
        H.count h "vm.opt_sites" (List.fold_left (fun acc (_, n) -> acc + n) 0 (Vm.Compile.opt_stats ()));
        prog := Some p);
    step = (fun ~traced:_ -> H.op h "e2" (fun () -> verify h exp (e2 (Option.get !prog))));
    finish = ignore;
  }
