(** Type checking and elaboration: surface AST -> typed IR.

    Elaboration hoists nested calls into temporaries, desugars
    compound assignment / increment / [for] loops, makes conversions
    and array decay explicit, and resolves dependent [__count]
    annotations (to variable references in function scope, to
    {!Ir.Eself_field} inside struct definitions). *)

exception Type_error of string * Loc.t

(** Check a list of already-parsed units into one program. *)
val check_units : Ast.unit_ list -> Ir.program

(** Parse and check (name, source) pairs, threading typedefs through
    in order. *)
val check_sources : (string * string) list -> Ir.program

(** The one-line message for a lex, parse or type error, as [ivy check]
    prints it and [ivy serve] returns it; [None] for any other
    exception. *)
val error_message : exn -> string option
