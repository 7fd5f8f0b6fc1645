(* Content hashing of KC IR for the artifact graph.

   The digests here are the [fp] inputs of {!Graph.get}: a cached
   artifact survives exactly as long as the digest of what it reads is
   unchanged. Three granularities:

   - per-function ([fn]): the function's full serialized form,
     statement locations included — an in-place body edit changes only
     that function's digest, while an edit that shifts later functions
     down a line changes theirs too (their cached CFGs carry statement
     locations, so reusing them would report stale lines);
   - whole program ([table_of].t_program): the header (structs, enums,
     globals) plus every function digest in program order — the input
     hash of artifacts that read arbitrary bodies (absint summaries,
     the deputized view, compiled VM code, analysis reports);
   - the call skeleton ([table_of].t_skeleton): the projection of the
     program that the points-to analysis, call graph, blocking
     propagation, irq-handler discovery and the refsafe ownership
     summaries actually read — function signatures and annotations,
     global initializers, every instruction that performs a call,
     mentions a function designator, or assigns to a function-pointer
     lvalue (assignments poison points-to var tracking), plus every
     pointer-relevant instruction (a store or return that moves a
     pointer value, takes an address, or casts a pointer — the flow
     edges the refsafe escape/ownership summaries are built from). An
     arithmetic-only body edit leaves the skeleton unchanged and those
     five artifact families warm.

   Serialization is deterministic across re-parses of the same source:
   it never includes [vid]/[fid] counters, only names (which the
   elaborator derives deterministically from the source text). *)

module I = Kc.Ir

type table = {
  t_header : string;  (** structs, enums, globals (with initializers) *)
  t_fns : (string * string) list;  (** per defined function, program order *)
  t_program : string;  (** header + every function *)
  t_skeleton : string;  (** the call/function-pointer projection *)
}

(* ------------------------------------------------------------------ *)
(* Canonical serialization                                            *)
(* ------------------------------------------------------------------ *)

let add = Buffer.add_string

let rec ser_ty b (ty : I.ty) =
  match ty with
  | I.Tvoid -> add b "v"
  | I.Tint (k, s) ->
      add b
        (Printf.sprintf "i%d%c" (Kc.Layout.int_size k)
           (match s with Kc.Ast.Signed -> 's' | Kc.Ast.Unsigned -> 'u'))
  | I.Tptr (t, a) ->
      add b "p{";
      ser_annots b a;
      ser_ty b t;
      add b "}"
  | I.Tarray (t, n) ->
      add b (Printf.sprintf "a%d:" n);
      ser_ty b t
  | I.Tfun (r, args) ->
      add b "f(";
      List.iter
        (fun t ->
          ser_ty b t;
          add b ",")
        args;
      add b ")";
      ser_ty b r
  | I.Tcomp tag ->
      add b "c:";
      add b tag

and ser_annots b (a : I.annots) =
  (match a.I.a_count with
  | Some e ->
      add b "#";
      ser_exp b e
  | None -> ());
  if a.I.a_nullterm then add b "N";
  if a.I.a_opt then add b "O";
  if a.I.a_trusted then add b "T";
  if a.I.a_user then add b "U"

and ser_exp b (e : I.exp) =
  (match e.I.e with
  | I.Econst n -> add b (Printf.sprintf "k%Ld" n)
  | I.Estr s ->
      add b (Printf.sprintf "s%d:" (String.length s));
      add b s
  | I.Elval lv ->
      add b "l";
      ser_lval b lv
  | I.Eunop (op, e1) ->
      add b (match op with Kc.Ast.Neg -> "u-" | Kc.Ast.Lognot -> "u!" | Kc.Ast.Bitnot -> "u~");
      ser_exp b e1
  | I.Ebinop (op, e1, e2) ->
      let opname =
        match op with
        | Kc.Ast.Add -> "+" | Kc.Ast.Sub -> "-" | Kc.Ast.Mul -> "*" | Kc.Ast.Div -> "/"
        | Kc.Ast.Mod -> "%" | Kc.Ast.Shl -> "<<" | Kc.Ast.Shr -> ">>" | Kc.Ast.Lt -> "<"
        | Kc.Ast.Gt -> ">" | Kc.Ast.Le -> "<=" | Kc.Ast.Ge -> ">=" | Kc.Ast.Eq -> "=="
        | Kc.Ast.Ne -> "!=" | Kc.Ast.Bitand -> "&" | Kc.Ast.Bitor -> "|"
        | Kc.Ast.Bitxor -> "^" | Kc.Ast.Logand -> "&&" | Kc.Ast.Logor -> "||"
      in
      add b ("b" ^ opname ^ "(");
      ser_exp b e1;
      add b ",";
      ser_exp b e2;
      add b ")"
  | I.Econd (c, e1, e2) ->
      add b "?(";
      ser_exp b c;
      add b ",";
      ser_exp b e1;
      add b ",";
      ser_exp b e2;
      add b ")"
  | I.Ecast (ty, e1) ->
      add b "(";
      ser_ty b ty;
      add b ")";
      ser_exp b e1
  | I.Eaddrof lv ->
      add b "&";
      ser_lval b lv
  | I.Estartof lv ->
      add b "&0";
      ser_lval b lv
  | I.Efun f ->
      add b "fn:";
      add b f
  | I.Eself_field (tag, fname) -> add b (Printf.sprintf "self:%s.%s" tag fname));
  add b "@";
  ser_ty b e.I.ety

and ser_lval b ((host, offs) : I.lval) =
  (match host with
  | I.Lvar v ->
      add b (if v.I.vglob then "G:" else "V:");
      add b v.I.vname
  | I.Lmem e ->
      add b "M:";
      ser_exp b e);
  List.iter
    (fun o ->
      match o with
      | I.Ofield fi -> add b (Printf.sprintf ".%s.%s" fi.I.fcomp fi.I.fname)
      | I.Oindex e ->
          add b "[";
          ser_exp b e;
          add b "]")
    offs

let ser_check b (ck : I.check) =
  match ck with
  | I.Ck_nonnull e ->
      add b "nn(";
      ser_exp b e;
      add b ")"
  | I.Ck_le (a, c) ->
      add b "le(";
      ser_exp b a;
      add b ",";
      ser_exp b c;
      add b ")"
  | I.Ck_lt (a, c) ->
      add b "lt(";
      ser_exp b a;
      add b ",";
      ser_exp b c;
      add b ")"
  | I.Ck_nt_next (e, w) ->
      add b (Printf.sprintf "nt%d(" w);
      ser_exp b e;
      add b ")"
  | I.Ck_not_atomic -> add b "na"

let ser_instr b (i : I.instr) =
  match i with
  | I.Iset (lv, e) ->
      add b "set ";
      ser_lval b lv;
      add b "=";
      ser_exp b e
  | I.Icall (lv, target, args) ->
      add b "call ";
      (match lv with
      | Some lv ->
          ser_lval b lv;
          add b "="
      | None -> ());
      (match target with
      | I.Direct f ->
          add b "d:";
          add b f
      | I.Indirect e ->
          add b "i:";
          ser_exp b e);
      add b "(";
      List.iter
        (fun a ->
          ser_exp b a;
          add b ",")
        args;
      add b ")"
  | I.Icheck (ck, reason) ->
      add b "ck ";
      ser_check b ck;
      add b reason
  | I.Irc_inc e ->
      add b "rc+ ";
      ser_exp b e
  | I.Irc_dec e ->
      add b "rc- ";
      ser_exp b e
  | I.Irc_update (lv, e) ->
      add b "rc= ";
      ser_lval b lv;
      add b "<-";
      ser_exp b e

let ser_loc b (l : Kc.Loc.t) = add b (Printf.sprintf "@%s:%d:%d" l.Kc.Loc.file l.Kc.Loc.line l.Kc.Loc.col)

let rec ser_stmt b (s : I.stmt) =
  ser_loc b s.I.sloc;
  match s.I.sk with
  | I.Sinstr i ->
      ser_instr b i;
      add b ";"
  | I.Sif (c, b1, b2) ->
      add b "if(";
      ser_exp b c;
      add b "){";
      ser_block b b1;
      add b "}{";
      ser_block b b2;
      add b "}"
  | I.Swhile (c, body, step) ->
      add b "while(";
      ser_exp b c;
      add b "){";
      ser_block b body;
      add b "}step{";
      ser_block b step;
      add b "}"
  | I.Sdowhile (body, c) ->
      add b "do{";
      ser_block b body;
      add b "}while(";
      ser_exp b c;
      add b ")"
  | I.Sswitch (e, cases) ->
      add b "switch(";
      ser_exp b e;
      add b "){";
      List.iter
        (fun (c : I.case) ->
          List.iter (fun v -> add b (Printf.sprintf "case %Ld:" v)) c.I.cvals;
          if c.I.cdefault then add b "default:";
          add b "{";
          ser_block b c.I.cbody;
          add b "}")
        cases;
      add b "}"
  | I.Sbreak -> add b "break;"
  | I.Scontinue -> add b "continue;"
  | I.Sreturn e -> (
      add b "return";
      match e with
      | Some e ->
          add b " ";
          ser_exp b e;
          add b ";"
      | None -> add b ";")
  | I.Sblock body ->
      add b "{";
      ser_block b body;
      add b "}"
  | I.Sdelayed body ->
      add b "delayed{";
      ser_block b body;
      add b "}"
  | I.Strusted body ->
      add b "trusted{";
      ser_block b body;
      add b "}"

and ser_block b (body : I.block) = List.iter (ser_stmt b) body

let ser_fun_annot b (a : I.fun_annot) =
  match a with
  | Kc.Ast.Fblocking -> add b "blocking"
  | Kc.Ast.Fblocking_if_gfp_wait -> add b "blocking_if_gfp_wait"
  | Kc.Ast.Ftrusted -> add b "trusted"
  | Kc.Ast.Facquires l ->
      add b "acquires:";
      add b l
  | Kc.Ast.Freleases l ->
      add b "releases:";
      add b l
  | Kc.Ast.Freturns_err codes ->
      add b "returns_err:";
      List.iter (fun c -> add b (Printf.sprintf "%Ld," c)) codes
  | Kc.Ast.Fframe_hint n -> add b (Printf.sprintf "frame:%d" n)

(* The parts of a function every artifact can see: name, placement,
   linkage, annotations and signature. *)
let ser_fn_header b (fd : I.fundec) =
  add b "fn ";
  add b fd.I.fname;
  ser_loc b fd.I.floc;
  if fd.I.fstatic then add b " static";
  if fd.I.fextern then add b " extern";
  add b " [";
  List.iter
    (fun a ->
      ser_fun_annot b a;
      add b ",")
    fd.I.fannots;
  add b "] (";
  List.iter
    (fun (v : I.varinfo) ->
      add b v.I.vname;
      add b ":";
      ser_ty b v.I.vty;
      add b ",")
    fd.I.sformals;
  add b ")->";
  ser_ty b fd.I.fret

let fn (fd : I.fundec) : string =
  let b = Buffer.create 1024 in
  ser_fn_header b fd;
  add b "{";
  ser_block b fd.I.fbody;
  add b "}";
  Digest.to_hex (Digest.string (Buffer.contents b))

let rec ser_ginit b (gi : I.ginit) =
  match gi with
  | I.Gi_exp e -> ser_exp b e
  | I.Gi_list items ->
      add b "{";
      List.iter
        (fun i ->
          ser_ginit b i;
          add b ",")
        items;
      add b "}"

let header (prog : I.program) : string =
  let b = Buffer.create 1024 in
  let tags = Hashtbl.fold (fun tag _ acc -> tag :: acc) prog.I.comps [] in
  List.iter
    (fun tag ->
      let c = I.comp_find prog tag in
      add b (if c.I.cstruct then "struct " else "union ");
      add b tag;
      add b "{";
      List.iter
        (fun (f : I.fieldinfo) ->
          add b f.I.fname;
          add b ":";
          ser_ty b f.I.fty;
          add b ";")
        c.I.cfields;
      add b "}")
    (List.sort String.compare tags);
  let enums = Hashtbl.fold (fun k v acc -> (k, v) :: acc) prog.I.enum_items [] in
  List.iter
    (fun (k, v) -> add b (Printf.sprintf "enum %s=%Ld;" k v))
    (List.sort compare enums);
  List.iter
    (fun ((v : I.varinfo), init) ->
      add b "glob ";
      add b v.I.vname;
      add b ":";
      ser_ty b v.I.vty;
      (match init with
      | Some gi ->
          add b "=";
          ser_ginit b gi
      | None -> ());
      add b ";")
    prog.I.globals;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Does an expression move pointer values around — mention a
   pointer-typed subexpression, take an address, or name a function?
   These are exactly the flow edges the refsafe summaries read. *)
let exp_ptr_relevant (e : I.exp) : bool =
  I.fold_exp
    (fun acc sub ->
      acc || I.is_pointer sub.I.ety
      || match sub.I.e with I.Eaddrof _ | I.Estartof _ | I.Efun _ -> true | _ -> false)
    false e

(* Does this instruction belong to the call skeleton? Calls, function
   designators anywhere inside, stores into function-pointer lvalues
   (they poison the points-to variable tracking), and pointer-relevant
   stores (the refsafe summaries read them).  Pure integer arithmetic
   stays out, which is what keeps the skeleton stable across
   arithmetic-only edits. *)
let skeleton_instr (i : I.instr) : bool =
  let is_fptr_ty = function I.Tptr (I.Tfun _, _) -> true | _ -> false in
  match i with
  | I.Icall _ -> true
  | I.Iset ((host, offs), e) ->
      exp_ptr_relevant e
      ||
      let lv_ty =
        (* conservative: the host variable's type for direct stores,
           any field store is included if the RHS is fptr-typed *)
        match (host, offs) with I.Lvar v, [] -> Some v.I.vty | _ -> None
      in
      (match lv_ty with
      | Some ty -> is_fptr_ty ty || I.is_pointer ty
      | None -> is_fptr_ty e.I.ety)
  | I.Icheck _ | I.Irc_inc _ | I.Irc_dec _ | I.Irc_update _ -> false

let skeleton (prog : I.program) : string =
  let b = Buffer.create 4096 in
  add b (header prog);
  List.iter
    (fun (fd : I.fundec) ->
      ser_fn_header b fd;
      add b "{";
      I.iter_stmts
        (fun s ->
          match s.I.sk with
          | I.Sinstr i when skeleton_instr i ->
              ser_loc b s.I.sloc;
              ser_instr b i;
              add b ";"
          | I.Sreturn (Some e) when exp_ptr_relevant e ->
              (* pointer returns feed the summaries' returns_alloc /
                 returns_param facts *)
              ser_loc b s.I.sloc;
              add b "return ";
              ser_exp b e;
              add b ";"
          | _ -> ())
        fd.I.fbody;
      add b "}")
    prog.I.funcs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let table_of (prog : I.program) : table =
  let t_header = header prog in
  let t_fns = List.map (fun (fd : I.fundec) -> (fd.I.fname, fn fd)) prog.I.funcs in
  let b = Buffer.create 1024 in
  add b t_header;
  List.iter
    (fun (name, d) ->
      add b name;
      add b "=";
      add b d;
      add b ";")
    t_fns;
  { t_header; t_fns; t_program = Digest.to_hex (Digest.string (Buffer.contents b));
    t_skeleton = skeleton prog }

type diff = {
  d_changed : string list;  (** defined in both, body or header differs *)
  d_added : string list;
  d_removed : string list;
  d_header_changed : bool;
}

let diff ~(old : table) (fresh : table) : diff =
  let changed =
    List.filter_map
      (fun (name, d) ->
        match List.assoc_opt name old.t_fns with
        | Some d' when String.equal d d' -> None
        | Some _ -> Some name
        | None -> None)
      fresh.t_fns
  in
  let added =
    List.filter_map
      (fun (name, _) -> if List.mem_assoc name old.t_fns then None else Some name)
      fresh.t_fns
  in
  let removed =
    List.filter_map
      (fun (name, _) -> if List.mem_assoc name fresh.t_fns then None else Some name)
      old.t_fns
  in
  {
    d_changed = changed;
    d_added = added;
    d_removed = removed;
    d_header_changed = not (String.equal old.t_header fresh.t_header);
  }

let unchanged ~(old : table) (fresh : table) : bool =
  String.equal old.t_program fresh.t_program
