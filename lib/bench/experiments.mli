(** The paper's evaluation (§7) and the ablation studies called out in
    DESIGN.md: one driver per table, each returning a {!Table.t}. Most
    tables are sweeps (a row per swept value, a column per stack or
    knob) and share one internal runner; [all] runs the full
    evaluation. *)

val all : ?quick:bool -> unit -> Table.t list
(** Run the full evaluation. [quick] shrinks iteration counts and
    message-size sweeps for smoke runs. *)

val by_id : (string * (?quick:bool -> unit -> Table.t)) list
(** Individual drivers by their figure/ablation id (["fig11"],
    ["abl-uq"], ...). *)
