(** Ablation and sensitivity studies for the design choices the paper
    fixes by measurement or assertion:

    - the SW ownership quantum ("results do not appear to be sensitive to
      the exact value", Section 2.3);
    - the WFS+WG write-granularity threshold ("results are not very
      dependent on the exact value", Section 3.2);
    - the network cost model (the paper's tradeoffs are tied to a 1997
      ATM cluster; a modern-network model shifts them);
    - the migratory-detection extension the paper sketches in Section 7;
    - processor-count scaling (the paper reports 8 processors only).

    Each function runs the study and returns a rendered table.  Every
    study is a grid of independent simulations; [jobs] (default 1) fans
    the grid out over that many worker domains via {!Pool} with
    bit-identical tables for any value. *)

val quantum : ?jobs:int -> unit -> string

val threshold : ?jobs:int -> unit -> string

val network : ?jobs:int -> unit -> string

val migratory : ?jobs:int -> unit -> string

val writeranges : ?jobs:int -> unit -> string

val hlrc : ?jobs:int -> unit -> string

val scaling : ?jobs:int -> unit -> string

val names : string list

val run : ?jobs:int -> string -> string option
(** [run name] executes one study by name. *)

val run_all : ?jobs:int -> unit -> string
