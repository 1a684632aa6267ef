let band ~n ~nprocs ~me =
  let per = n / nprocs and extra = n mod nprocs in
  let lo = (me * per) + min me extra in
  let hi = lo + per + if me < extra then 1 else 0 in
  (lo, hi)

let fold_range lo hi ~init ~f =
  let rec go acc i = if i >= hi then acc else go (f acc i) (i + 1) in
  go init lo

type checksum = float option ref

let new_checksum () = ref None

let set_checksum c v = c := Some v

let get_checksum c =
  match !c with
  | Some v -> v
  | None -> failwith "checksum: run did not produce a result"

let mix acc v = (acc *. 0.6180339887498949) +. v
