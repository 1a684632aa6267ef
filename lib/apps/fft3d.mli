(** NAS 3D-FFT kernel (paper Section 5).

    The complex grid is partitioned into plane bands along the first
    dimension.  Each iteration evolves the local planes (overwriting them
    completely), transposes into a second grid by reading remote planes —
    producer-consumer communication — and runs FFTs along the dimensions
    that are locally contiguous.  Per-processor partial norms share a
    single page, reproducing the paper's one falsely-shared page with
    small (tens of bytes) modifications out of thousands of pages. *)

type params = { n1 : int; n2 : int; n3 : int; iters : int }

(** Scaled-down stand-in for the paper's 64x64x64 input. *)
val default : params

val tiny : params

val data_desc : params -> string

val sync_desc : string

(** Largest supported cluster: one partial-norm slot per node. *)
val max_nprocs : int

(** Raises [Invalid_argument] on a cluster above {!max_nprocs} nodes. *)
val make : Adsm_dsm.Dsm.t -> params -> (Adsm_dsm.Dsm.ctx -> unit) * (unit -> float)
