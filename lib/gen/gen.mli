(** Seeded random VC program generator.

    Builds typed {!Voltron_lang.Ast} programs by construction — never by
    rejection — honouring every elaboration rule the front end enforces:
    scalars are region-local and lexically scoped, loop variables are
    never assignment targets, arrays and scalars are never confused, and
    every array subscript is provably in bounds (array sizes are powers
    of two; subscripts are either mask-anded or affine forms of a loop
    variable whose static range fits the array). Every loop terminates:
    [for] limits are constants read once, and every [do]/[while] counts a
    reserved scalar down to zero.

    The statement mix deliberately steers programs into the compiler's
    ILP/TLP/LLP territory: straight-line arithmetic blocks, bounded loop
    nests with affine and mask-scrambled (non-affine) subscripts,
    reduction ([s = s + a\[i\]]) and recurrence ([x = x*c + a\[i\]])
    idioms, [if]/ternary control flow, and cross-region data flow through
    arrays only.

    Equal seeds generate equal programs (all randomness flows through
    {!Voltron_util.Rng}). *)

val program : ?size:int -> seed:int -> unit -> Voltron_lang.Ast.program
(** Generate one program. [size] is the approximate statement budget
    (default 24). The program is named ["fuzz_s<seed>"]. *)

val render : Voltron_lang.Ast.program -> string
(** Concrete VC syntax (via {!Voltron_lang.Ast.to_string}) — what the
    corpus files contain, and what the harness re-parses so that every
    finding reproduces from its on-disk form. *)

val source_lines : Voltron_lang.Ast.program -> int
(** Non-blank lines of {!render} — the minimality measure shrinking
    reports. *)
