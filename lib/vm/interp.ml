(* The public interpreter facade.

   The state and the semantics live in {!Vmstate} and the two engines:
   {!Treewalk} (the structural reference evaluator) and {!Compile}
   (the pre-compiled flat engine, the default). This module picks the
   engine at [create] time and dispatches calls through the state's
   [run_fn] hook; everything else delegates.

   The engines are observationally equivalent — identical traps,
   results and cycle counts — so callers never see which one ran,
   except on the wall clock. Set IVY_VM_ENGINE=tree to force the
   reference evaluator (e.g. when bisecting a suspected engine
   divergence). *)

type t = Vmstate.t = {
  prog : Kc.Ir.program;
  m : Machine.t;
  globals_addr : (int, int) Hashtbl.t;
  strings : (string, int) Hashtbl.t;
  mutable rodata_brk : int;
  mutable static_brk : int;
  mutable call_depth : int;
  mutable max_call_depth : int;
  builtins : (string, t -> int64 list -> int64) Hashtbl.t;
  fun_of_id : (int, Kc.Ir.fundec) Hashtbl.t;
  mutable run_fn : (t -> Kc.Ir.fundec -> int64 list -> int64) option;
  mutable scratch : (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t list;
}

type engine = Tree | Compiled

(* Read once at startup, not lazily: Par workers boot VMs
   concurrently, and two domains forcing one lazy value at the same
   time raise CamlinternalLazy.Undefined. *)
let default_engine =
  match Sys.getenv_opt "IVY_VM_ENGINE" with
  | Some ("tree" | "treewalk" | "walk") -> Tree
  | _ -> Compiled

let fptr_encode = Vmstate.fptr_encode
let fptr_decode = Vmstate.fptr_decode
let norm = Vmstate.norm

let create ?engine (prog : Kc.Ir.program) (m : Machine.t) : t =
  let t = Vmstate.create prog m in
  (match Option.value engine ~default:default_engine with
  | Tree -> ()
  | Compiled -> Compile.install t);
  t

let intern_string = Vmstate.intern_string
let read_string = Vmstate.read_string
let register_builtin = Vmstate.register_builtin

let call_function (t : t) (fd : Kc.Ir.fundec) (argv : int64 list) : int64 =
  match t.run_fn with
  | Some f -> f t fd argv
  | None -> Treewalk.call_function t fd argv

let run (t : t) name (argv : int64 list) : int64 =
  match Kc.Ir.find_fun t.prog name with
  | Some fd when not fd.Kc.Ir.fextern -> call_function t fd argv
  | Some _ -> Trap.trap Trap.Unknown_function "%s is extern, cannot run" name
  | None -> Trap.trap Trap.Unknown_function "no function %s" name
