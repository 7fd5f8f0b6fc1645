(* Tests for the KC frontend: lexer, parser, type checker, layout. *)

let contains_sub ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let parse_program src = Kc.Typecheck.check_sources [ ("test.kc", src) ]

let check_ok name src =
  Alcotest.test_case name `Quick (fun () ->
      try ignore (parse_program src)
      with
      | Kc.Typecheck.Type_error (msg, loc) ->
          Alcotest.failf "type error: %s at %s" msg (Kc.Loc.to_string loc)
      | Kc.Parser.Error (msg, loc) ->
          Alcotest.failf "parse error: %s at %s" msg (Kc.Loc.to_string loc)
      | Kc.Lexer.Error (msg, loc) ->
          Alcotest.failf "lex error: %s at %s" msg (Kc.Loc.to_string loc))

let check_type_error name src =
  Alcotest.test_case name `Quick (fun () ->
      match ignore (parse_program src) with
      | () -> Alcotest.failf "expected a type error, but %s checked" name
      | exception Kc.Typecheck.Type_error _ -> ())

let check_parse_error name src =
  Alcotest.test_case name `Quick (fun () ->
      match ignore (parse_program src) with
      | () -> Alcotest.failf "expected a parse error, but %s parsed" name
      | exception Kc.Parser.Error _ -> ()
      | exception Kc.Lexer.Error _ -> ())

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)
(* ------------------------------------------------------------------ *)

let lex_tokens src =
  Kc.Lexer.tokenize ~file:"t" src |> Array.to_list |> List.map fst

let test_lex_simple () =
  let toks = lex_tokens "int x = 42;" in
  Alcotest.(check int) "token count" 6 (List.length toks);
  match toks with
  | [ Kc.Token.KW_INT; Kc.Token.IDENT "x"; Kc.Token.EQ; Kc.Token.INT_LIT 42L; Kc.Token.SEMI; Kc.Token.EOF ] ->
      ()
  | _ -> Alcotest.fail "unexpected tokens"

let test_lex_operators () =
  let toks = lex_tokens "a <<= b >>= c << >> <= >= == != && || -> ++ -- ..." in
  let has t = List.exists (Kc.Token.equal t) toks in
  List.iter
    (fun t -> Alcotest.(check bool) (Kc.Token.to_string t) true (has t))
    [
      Kc.Token.SHLEQ; Kc.Token.SHREQ; Kc.Token.SHL; Kc.Token.SHR; Kc.Token.LE; Kc.Token.GE;
      Kc.Token.EQEQ; Kc.Token.NE; Kc.Token.ANDAND; Kc.Token.BARBAR; Kc.Token.ARROW;
      Kc.Token.PLUSPLUS; Kc.Token.MINUSMINUS; Kc.Token.ELLIPSIS;
    ]

let test_lex_literals () =
  let toks = lex_tokens "0x1F 'a' '\\n' \"hi\\t\" 100UL" in
  match toks with
  | [ Kc.Token.INT_LIT 31L; Kc.Token.CHAR_LIT 'a'; Kc.Token.CHAR_LIT '\n';
      Kc.Token.STR_LIT "hi\t"; Kc.Token.INT_LIT 100L; Kc.Token.EOF ] ->
      ()
  | _ -> Alcotest.fail "unexpected literal tokens"

let test_lex_comments () =
  let toks = lex_tokens "a /* multi\nline */ b // eol\nc # preproc\nd" in
  Alcotest.(check int) "4 idents + eof" 5 (List.length toks)

let test_lex_locations () =
  let toks = Kc.Lexer.tokenize ~file:"f" "a\n  b" in
  let _, loc_b = toks.(1) in
  Alcotest.(check int) "line of b" 2 loc_b.Kc.Loc.line;
  Alcotest.(check int) "col of b" 3 loc_b.Kc.Loc.col

(* ------------------------------------------------------------------ *)
(* Parser + typechecker acceptance                                    *)
(* ------------------------------------------------------------------ *)

let accept_cases =
  [
    check_ok "minimal function" "int main(void) { return 0; }";
    check_ok "arith and locals"
      "int f(int a, int b) { int c = a * 2 + b % 3; return c - (a << 1); }";
    check_ok "pointers and deref"
      "int g(int *p) { int x = *p; *p = x + 1; return *p; }";
    check_ok "struct def and access"
      "struct point { int x; int y; };\n\
       int norm1(struct point *p) { return p->x + p->y; }";
    check_ok "nested struct"
      "struct inner { int v; };\n\
       struct outer { struct inner in; int tag; };\n\
       int get(struct outer *o) { return o->in.v; }";
    check_ok "arrays"
      "int sum(void) { int a[8]; int i; int s = 0; for (i = 0; i < 8; i++) { a[i] = i; s += a[i]; } return s; }";
    check_ok "typedef" "typedef unsigned long size_t;\nsize_t id(size_t n) { return n; }";
    check_ok "enum" "enum color { RED, GREEN = 5, BLUE };\nint f(void) { return BLUE; }";
    check_ok "function pointers"
      "int add1(int x) { return x + 1; }\n\
       int apply(int (*f)(int), int v) { return f(v); }\n\
       int main(void) { return apply(add1, 41); }";
    check_ok "dispatch table"
      "int r(void) { return 1; } int w(void) { return 2; }\n\
       struct ops { int (*do_read)(void); int (*do_write)(void); };\n\
       struct ops my_ops = { r, w };\n\
       int main(void) { return my_ops.do_read(); }";
    check_ok "while and break"
      "int f(int n) { int i = 0; while (1) { if (i >= n) { break; } i++; } return i; }";
    check_ok "do while" "int f(int n) { int i = 0; do { i++; } while (i < n); return i; }";
    check_ok "switch"
      "int f(int x) { switch (x) { case 0: return 10; case 1: case 2: return 20; default: return 30; } }";
    check_ok "conditional expr" "int max(int a, int b) { return a > b ? a : b; }";
    check_ok "short circuit" "int f(int *p) { if (p != 0 && *p > 0) { return 1; } return 0; }";
    check_ok "string literal" "void puts_(char * __nullterm s);\nvoid f(void) { puts_(\"hello\"); }";
    check_ok "count annotation"
      "int sum(int * __count(n) buf, int n) { int i; int s = 0; for (i = 0; i < n; i++) { s += buf[i]; } return s; }";
    check_ok "count on struct field"
      "struct vec { int len; int * __count(len) data; };\n\
       int first(struct vec *v) { return v->data[0]; }";
    check_ok "nullterm annotation"
      "int my_strlen(char * __nullterm s) { int n = 0; while (*s != 0) { s = s + 1; n++; } return n; }";
    check_ok "opt annotation" "int f(int * __opt p) { if (p == 0) { return -1; } return *p; }";
    check_ok "trusted block" "int f(int *p) { __trusted { return *(p + 100); } }";
    check_ok "function annots"
      "void might_sleep(void) __blocking;\n\
       void *kmalloc_(unsigned long size, int flags) __blocking_if_gfp_wait;\n\
       int f(void) { might_sleep(); return 0; }";
    check_ok "void pointer conversions"
      "void *alloc(unsigned long n);\n\
       int *get(void) { int *p = alloc(4); return p; }";
    check_ok "sizeof"
      "struct s { int a; long b; };\nunsigned long f(void) { return sizeof(struct s) + sizeof(int); }";
    check_ok "casts" "long f(int *p) { return (long)p; }";
    check_ok "delayed free scope"
      "void kfree_(void *p);\n\
       void f(int *a, int *b) { __delayed_free { kfree_(a); kfree_(b); } }";
    check_ok "recursive struct"
      "struct node { int v; struct node *next; };\n\
       int len(struct node *n) { int k = 0; while (n != 0) { k++; n = n->next; } return k; }";
    check_ok "globals with init"
      "int counter = 3;\nint arr[4] = { 1, 2, 3, 4 };\nint get(void) { return counter + arr[2]; }";
    check_ok "unions" "union u { int i; char c; };\nint f(union u *p) { return p->i; }";
    check_ok "compound assign ops"
      "int f(int x) { x += 1; x -= 2; x *= 3; x /= 2; x %= 7; x <<= 1; x >>= 1; x &= 15; x |= 1; x ^= 2; return x; }";
    check_ok "pre/post incr as values"
      "int f(void) { int i = 0; int a = i++; int b = ++i; return a + b + i; }";
    check_ok "address of local" "int f(void) { int x = 5; int *p = &x; return *p; }";
    check_ok "static functions"
      "static int helper(void) { return 1; }\nint main(void) { return helper(); }";
    check_ok "variadic extern"
      "void printk(char * __nullterm fmt, ...);\nvoid f(void) { printk(\"x=%d\", 42); }";
    check_ok "long literals" "long f(void) { return 4294967296; }";
    check_ok "double pointer"
      "int f(int **pp) { int *p = *pp; return *p; }";
    check_ok "array of function pointers"
      "int a1(int x) { return x; } int a2(int x) { return x + x; }\n\
       int (*dispatch[2])(int) = { a1, a2 };\n\
       int call0(void) { return dispatch[0](5); }";
    check_ok "function returning pointer"
      "int g;\nint *addr_of_g(void) { return &g; }\nint f(void) { int *p = addr_of_g(); return *p; }";
    check_ok "pointer to function returning pointer"
      "int g;\nint *getp(void) { return &g; }\n\
       int f(void) { int *(*fp)(void) = getp; int *p = fp(); return *p; }";
    check_ok "nested ternary right assoc"
      "int f(int a) { return a == 0 ? 1 : a == 1 ? 2 : 3; }";
    check_ok "struct containing array of structs"
      "struct cell { int v; };\nstruct grid { struct cell cells[4]; int n; };\n\
       int f(struct grid *g) { return g->cells[2].v + g->n; }";
    check_ok "chained field and index"
      "struct inner2 { int xs[3]; };\nstruct outer2 { struct inner2 in2; };\n\
       int f(struct outer2 *o) { return o->in2.xs[1]; }";
    check_ok "parenthesized declarator no-op" "int f(void) { int (x) = 3; return x; }";
    check_ok "hex and shifts mix" "int f(void) { return (0xFF << 4) | 0x0F; }";
    check_ok "deep expression nesting"
      "int f(int a, int b, int c) { return ((a + b) * (b + c) - (c * a)) % ((a | 1) + (b & 7) + 1); }";
    check_ok "const qualifiers ignored"
      "int f(const int x, const char * __nullterm s) { return x + *s; }";
    check_ok "unsigned comparisons"
      "int f(unsigned int a, unsigned int b) { if (a < b) { return -1; } if (a > b) { return 1; } return 0; }";
    check_ok "empty statement and empty blocks" "int f(void) { ; { } ; return 0; }";
  ]

let reject_cases =
  [
    check_type_error "unknown variable" "int f(void) { return y; }";
    check_type_error "unknown function" "int f(void) { return g(); }";
    check_type_error "wrong arity" "int g(int x) { return x; }\nint f(void) { return g(); }";
    check_type_error "call of non-function" "int f(int x) { return x(); }";
    check_type_error "deref of int" "int f(int x) { return *x; }";
    check_type_error "field on int" "int f(int x) { return x.bad; }";
    check_type_error "unknown field" "struct s { int a; };\nint f(struct s *p) { return p->b; }";
    check_type_error "implicit ptr type mix"
      "struct a { int x; }; struct b { int y; };\n\
       struct a *f(struct b *p) { return p; }";
    check_type_error "void function used as value" "void g(void);\nint f(void) { return g(); }";
    check_type_error "return value from void" "void f(void) { return 3; }";
    check_type_error "count on non-integer"
      "int f(int * __count(p) buf, int *p) { return buf[0]; }";
    check_type_error "call in loop condition"
      "int g(void);\nint f(void) { while (g()) { } return 0; }";
    check_type_error "sizeof void" "int f(void) { return sizeof(void); }";
    check_type_error "sizeof void array bound" "int a[sizeof(void)];";
    Alcotest.test_case "sizeof void message" `Quick (fun () ->
        match parse_program "int f(void) { return sizeof(void); }" with
        | _ -> Alcotest.fail "sizeof(void) checked"
        | exception e ->
            Alcotest.(check (option string))
              "located type error" (Some "type error: sizeof(void) at test.kc:1:22")
              (Kc.Typecheck.error_message e));
    check_parse_error "unterminated block" "int f(void) { return 0;";
    check_parse_error "bad token" "int f(void) { return $; }";
    check_parse_error "missing semicolon" "int f(void) { return 0 }";
  ]

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

let layout_prog =
  "struct padded { char c; long l; int i; };\n\
   struct packed2 { char a; char b; };\n\
   union mix { char c; long l; };\n\
   struct arr { int xs[10]; char tag; };\n"

let test_layout () =
  let prog = parse_program layout_prog in
  let size tag = Kc.Layout.comp_size prog (Kc.Ir.comp_find prog tag) in
  Alcotest.(check int) "padded size" 24 (size "padded");
  Alcotest.(check int) "packed2 size" 2 (size "packed2");
  Alcotest.(check int) "union size" 8 (size "mix");
  Alcotest.(check int) "arr size" 44 (size "arr");
  let off tag f = Kc.Layout.field_offset prog (Kc.Ir.field_find prog tag f) in
  Alcotest.(check int) "c offset" 0 (off "padded" "c");
  Alcotest.(check int) "l offset" 8 (off "padded" "l");
  Alcotest.(check int) "i offset" 16 (off "padded" "i");
  Alcotest.(check int) "union offsets are zero" 0 (off "mix" "l");
  Alcotest.(check int) "tag after array" 40 (off "arr" "tag")

let test_scalar_sizes () =
  let prog = parse_program "int dummy;" in
  let size t = Kc.Layout.size_of prog t in
  Alcotest.(check int) "char" 1 (size Kc.Ir.char_type);
  Alcotest.(check int) "int" 4 (size Kc.Ir.int_type);
  Alcotest.(check int) "long" 8 (size Kc.Ir.long_type);
  Alcotest.(check int) "ptr" 8 (size (Kc.Ir.Tptr (Kc.Ir.int_type, Kc.Ir.no_annots)))

(* ------------------------------------------------------------------ *)
(* Elaboration shape                                                   *)
(* ------------------------------------------------------------------ *)

let find_fun prog name =
  match Kc.Ir.find_fun prog name with
  | Some f -> f
  | None -> Alcotest.failf "function %s not found" name

let test_call_hoisting () =
  let prog = parse_program "int g(int x) { return x; }\nint f(void) { return g(1) + g(2); }" in
  let f = find_fun prog "f" in
  let calls = ref 0 in
  Kc.Ir.iter_instrs (fun i -> match i with Kc.Ir.Icall _ -> incr calls | _ -> ()) f.Kc.Ir.fbody;
  Alcotest.(check int) "two hoisted calls" 2 !calls;
  Alcotest.(check bool) "temps introduced" true (List.length f.Kc.Ir.slocals >= 2)

let test_array_decay_annot () =
  let prog =
    parse_program
      "int take(int * __count(n) p, int n);\nint a[7];\nint f(void) { return take(a, 7); }"
  in
  let f = find_fun prog "f" in
  let saw_count = ref false in
  Kc.Ir.iter_instrs
    (fun i ->
      match i with
      | Kc.Ir.Icall (_, _, args) ->
          List.iter
            (fun (e : Kc.Ir.exp) ->
              Kc.Ir.fold_exp
                (fun () (e : Kc.Ir.exp) ->
                  match e.Kc.Ir.ety with
                  | Kc.Ir.Tptr (_, a) -> (
                      match a.Kc.Ir.a_count with
                      | Some { Kc.Ir.e = Kc.Ir.Econst 7L; _ } -> saw_count := true
                      | _ -> ())
                  | _ -> ())
                () e)
            args
      | _ -> ())
    f.Kc.Ir.fbody;
  Alcotest.(check bool) "array decays with count(7)" true !saw_count

let test_enum_values () =
  let prog = parse_program "enum e { A, B = 10, C };" in
  let v name = Hashtbl.find prog.Kc.Ir.enum_items name in
  Alcotest.(check int64) "A" 0L (v "A");
  Alcotest.(check int64) "B" 10L (v "B");
  Alcotest.(check int64) "C" 11L (v "C")

let test_pretty_roundtrip () =
  let src =
    "struct v { int len; int * __count(len) data; };\n\
     int sum(struct v *p) { int i; int s = 0; for (i = 0; i < p->len; i++) { s += p->data[i]; } return s; }"
  in
  let prog = parse_program src in
  let printed = Kc.Pretty.print_program prog in
  let prog2 = Kc.Typecheck.check_sources [ ("roundtrip.kc", printed) ] in
  Alcotest.(check int) "same number of functions" (List.length prog.Kc.Ir.funcs)
    (List.length prog2.Kc.Ir.funcs)

let test_erasure () =
  let src =
    "int sum(int * __count(n) buf, int n) { int i; int s = 0; for (i = 0; i < n; i++) { s += buf[i]; } return s; }"
  in
  let prog = parse_program src in
  let erased = Kc.Pretty.print_program ~erase:true prog in
  Alcotest.(check bool) "no __count in erased output" false (contains_sub ~affix:"__count" erased)

let () =
  Alcotest.run "kc"
    [
      ( "lexer",
        [
          Alcotest.test_case "simple" `Quick test_lex_simple;
          Alcotest.test_case "operators" `Quick test_lex_operators;
          Alcotest.test_case "literals" `Quick test_lex_literals;
          Alcotest.test_case "comments" `Quick test_lex_comments;
          Alcotest.test_case "locations" `Quick test_lex_locations;
        ] );
      ("accept", accept_cases);
      ("reject", reject_cases);
      ( "layout",
        [
          Alcotest.test_case "structs" `Quick test_layout;
          Alcotest.test_case "scalars" `Quick test_scalar_sizes;
        ] );
      ( "elaboration",
        [
          Alcotest.test_case "call hoisting" `Quick test_call_hoisting;
          Alcotest.test_case "array decay count" `Quick test_array_decay_annot;
          Alcotest.test_case "enum values" `Quick test_enum_values;
          Alcotest.test_case "pretty roundtrip" `Quick test_pretty_roundtrip;
          Alcotest.test_case "erasure" `Quick test_erasure;
        ] );
    ]
