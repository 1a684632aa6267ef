let size = 4096

let shift = 12 (* log2 size: byte lsr shift = page, byte land mask = offset *)

let mask = size - 1

type t = Bytes.t

let create () = Bytes.make size '\000'

let copy t = Bytes.copy t

let blit ~src ~dst = Bytes.blit src 0 dst 0 size

let equal = Bytes.equal

let get_byte t i = Char.code (Bytes.get t i)

let set_byte t i v = Bytes.set t i (Char.chr (v land 0xff))

(* Bounds-checked native-endian word accessors.  [Bytes.get_int64_le]
   hides a [Sys.big_endian] branch that blocks the compiler's unboxing
   pass, costing a boxed float (and int64) per word in the accessor hot
   loops.  The simulated memory is little-endian by contract, so require
   a little-endian host and use the native primitives directly. *)
let () = if Sys.big_endian then failwith "Page: little-endian host required"

external get_32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"

external set_32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

external get_64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"

external set_64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let[@inline] get_i32 t i = get_32 t i

let[@inline] set_i32 t i v = set_32 t i v

let[@inline] get_f64 t i = Int64.float_of_bits (get_64 t i)

let[@inline] set_f64 t i v = set_64 t i (Int64.bits_of_float v)

(* Word runs by one memcpy (page_stubs.c).  The stubs copy raw 8-byte
   patterns into and out of a float array's storage, which is what
   [get_f64]/[set_f64] produce word by word only when float arrays are
   flat (unboxed doubles; the compiler's default) — the same host
   contract as the little-endian check above.  Every bound is checked
   here, before the call: the stubs trust their arguments. *)
let () =
  if Obj.tag (Obj.repr (Array.make 1 0.)) <> Obj.double_array_tag then
    failwith "Page: flat float arrays required"

external get_f64s :
  Bytes.t -> (int[@untagged]) -> float array -> (int[@untagged]) ->
  (int[@untagged]) -> unit = "adsm_page_get_f64s_byte" "adsm_page_get_f64s"
  [@@noalloc]

external set_f64s :
  Bytes.t -> (int[@untagged]) -> float array -> (int[@untagged]) ->
  (int[@untagged]) -> unit = "adsm_page_set_f64s_byte" "adsm_page_set_f64s"
  [@@noalloc]

let[@inline never] bad_run fn raw off a pos len =
  invalid_arg
    (Printf.sprintf
       "Page.%s: %d words at byte %d of %d, array range [%d,%d) of %d" fn len
       off (Bytes.length raw) pos (pos + len) (Array.length a))

let[@inline] check_run fn raw off a pos len =
  if
    off < 0 || len < 0
    || off > Bytes.length raw
    || len > (Bytes.length raw - off) lsr 3
    || pos < 0
    || pos > Array.length a - len
  then bad_run fn raw off a pos len

let get_f64_run raw off dst pos len =
  check_run "get_f64_run" raw off dst pos len;
  get_f64s raw off dst pos len

let set_f64_run raw off src pos len =
  check_run "set_f64_run" raw off src pos len;
  set_f64s raw off src pos len

let raw t = t

let of_bytes b =
  if Bytes.length b <> size then
    invalid_arg
      (Printf.sprintf "Page.of_bytes: expected %d bytes, got %d" size
         (Bytes.length b));
  b

let fill_zero t = Bytes.fill t 0 size '\000'
