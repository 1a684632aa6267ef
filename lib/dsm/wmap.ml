(* Writer maps: writer id -> int, 0 for a writer the map never heard of.

   A map is one int array whose form follows its population:
   - [[||]] is the empty map;
   - linear: [m.(0) = count lsl 1], the (writer, value) pairs in
     insertion order at [m.(1 + 2i)] and [m.(2 + 2i)], [i < count],
     found by a scan; room for 4 or [linear_max] pairs;
   - hashed: [m.(0) = (count lsl 1) lor 1], a power-of-two number of
     (writer + 1, value) pair slots probed linearly from the writer's
     Fibonacci hash, at most 3/4 full; a zero key marks a free slot,
     whose zero value is exactly what a lookup of an absent writer
     returns;
   - dense: [m.(0) = -1], writer [q]'s value at [m.(q + 1)].
   A map that outgrows its form moves to the smallest sparse form that
   holds it, or to the dense form as soon as that sparse form would not
   be smaller than the dense one ([nprocs + 1] words).  Below 9 nodes
   every non-empty map is dense.  Pairs are never removed: storing 0
   makes a writer read as absent again, and only a rebuild drops it. *)

type t = int array

type form = Empty | Linear | Hashed | Dense

let empty : t = [||]

let linear_max = 8

let form m =
  if Array.length m = 0 then Empty
  else
    let h = m.(0) in
    if h < 0 then Dense else if h land 1 = 0 then Linear else Hashed

(* Fibonacci hashing: multiply by 2^62/phi and keep high bits — writer
   ids are consecutive, and the high bits spread them over the table. *)
let hash q mask = ((q * 0x278DDE6E5FD29F05) lsr 32) land mask

let rec find_linear m q i count =
  if i = count then -1
  else if m.(1 + (2 * i)) = q then i
  else find_linear m q (i + 1) count

(* The slot holding [q] in a hashed map, or the free slot it would take. *)
let rec probe m q mask i =
  let k = m.(1 + (2 * i)) in
  if k = q + 1 || k = 0 then i else probe m q mask ((i + 1) land mask)

let mask_of m = ((Array.length m - 1) / 2) - 1

let get m q =
  if Array.length m = 0 then 0
  else
    let h = m.(0) in
    if h < 0 then m.(q + 1)
    else if h land 1 = 0 then
      let i = find_linear m q 0 (h lsr 1) in
      if i < 0 then 0 else m.(2 + (2 * i))
    else
      let mask = mask_of m in
      m.(2 + (2 * probe m q mask (hash q mask)))

(* A fresh map in the smallest form holding [count > 0] pairs. *)
let alloc ~nprocs count =
  let cap =
    if count <= 4 then 4
    else if count <= linear_max then linear_max
    else begin
      let c = ref (2 * linear_max) in
      while 4 * count > 3 * !c do
        c := 2 * !c
      done;
      !c
    end
  in
  if 2 * cap >= nprocs then begin
    let m = Array.make (nprocs + 1) 0 in
    m.(0) <- -1;
    m
  end
  else begin
    let m = Array.make (1 + (2 * cap)) 0 in
    if cap > linear_max then m.(0) <- 1;
    m
  end

(* Add [q], absent from [m], to a map with room for it. *)
let add m q v =
  let h = m.(0) in
  if h < 0 then m.(q + 1) <- v
  else begin
    let i =
      if h land 1 = 0 then h lsr 1
      else
        let mask = mask_of m in
        probe m q mask (hash q mask)
    in
    m.(1 + (2 * i)) <- (if h land 1 = 0 then q else q + 1);
    m.(2 + (2 * i)) <- v;
    m.(0) <- h + 2
  end

(* Fold [f q v] over every writer with a nonzero value, in slot order. *)
let fold f m acc =
  let acc = ref acc in
  if Array.length m > 0 then begin
    let h = m.(0) in
    if h < 0 then
      for q = 0 to Array.length m - 2 do
        if m.(q + 1) <> 0 then acc := f q m.(q + 1) !acc
      done
    else if h land 1 = 0 then
      for i = 0 to (h lsr 1) - 1 do
        if m.(2 + (2 * i)) <> 0 then
          acc := f m.(1 + (2 * i)) m.(2 + (2 * i)) !acc
      done
    else
      for i = 0 to mask_of m do
        if m.(2 + (2 * i)) <> 0 then
          acc := f (m.(1 + (2 * i)) - 1) m.(2 + (2 * i)) !acc
      done
  end;
  !acc

let set m ~nprocs q v =
  if Array.length m = 0 then
    if v = 0 then m
    else begin
      let m = alloc ~nprocs 1 in
      add m q v;
      m
    end
  else
    let h = m.(0) in
    if h < 0 then begin
      m.(q + 1) <- v;
      m
    end
    else begin
      let count = h lsr 1 in
      let i =
        if h land 1 = 0 then find_linear m q 0 count
        else
          let mask = mask_of m in
          let i = probe m q mask (hash q mask) in
          if m.(1 + (2 * i)) = 0 then -1 else i
      in
      if i >= 0 then begin
        m.(2 + (2 * i)) <- v;
        m
      end
      else if v = 0 then m
      else if
        if h land 1 = 0 then 2 * (count + 1) < Array.length m
        else 4 * (count + 1) <= 3 * (mask_of m + 1)
      then begin
        add m q v;
        m
      end
      else begin
        let m' = alloc ~nprocs (count + 1) in
        fold (fun q v () -> add m' q v) m ();
        add m' q v;
        m'
      end
    end

(* [Array.copy] fills a copy of more than 256 words (a dense map from
   256 nodes up) through [caml_initialize], once per word. *)
let copy = Int_array.copy
