(** Rendering of lowered programs in the style of the paper's generated
    pseudo-code (Fig. 9b), so compiled partitioning plans are inspectable. *)

val pp_aexpr : Format.formatter -> Loop_ir.aexpr -> unit
val pp_rref : Format.formatter -> Loop_ir.rref -> unit
val prog_to_string : Loop_ir.prog -> string
