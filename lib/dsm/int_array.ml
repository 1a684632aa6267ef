(* [Array.blit], [Array.copy] and [Array.sub] are type-generic runtime
   calls: the runtime cannot tell an [int array] from an array of
   pointers, so it blits into a major-heap destination through the
   [caml_modify] write barrier, once per element, and fills a fresh copy
   of more than 256 words (allocated directly in the major heap) through
   [caml_initialize], once per element.  Here the element type is [int],
   so each store compiles to a plain move. *)

let[@inline never] invalid fn = invalid_arg ("Int_array." ^ fn)

let blit (src : int array) spos (dst : int array) dpos len =
  if
    len < 0 || spos < 0 || dpos < 0
    || spos > Array.length src - len
    || dpos > Array.length dst - len
  then invalid "blit";
  if src == dst && spos < dpos then
    for i = len - 1 downto 0 do
      Array.unsafe_set dst (dpos + i) (Array.unsafe_get src (spos + i))
    done
  else
    for i = 0 to len - 1 do
      Array.unsafe_set dst (dpos + i) (Array.unsafe_get src (spos + i))
    done

(* Up to the runtime's largest minor-heap block (256 words) [Array.sub]
   allocates young and fills by memcpy, which beats the loop. *)
let sub (a : int array) pos len =
  if len <= 256 then Array.sub a pos len
  else begin
    if pos < 0 || pos > Array.length a - len then invalid "sub";
    let b = Array.make len 0 in
    blit a pos b 0 len;
    b
  end

let copy a = sub a 0 (Array.length a)
