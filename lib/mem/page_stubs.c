/* Word-run copies between a page frame and a flat float array.

   The OCaml wrappers in page.ml check every bound before calling in:
   these stubs trust their arguments, never allocate and never raise.
   The simulated memory is little-endian and page.ml requires a
   little-endian host whose float arrays are unboxed doubles, so one
   memcpy moves the same 64-bit patterns the word-at-a-time loop moves
   through [Int64.float_of_bits] / [Int64.bits_of_float] (NaN payloads
   included: nothing here does float arithmetic). */

#include <string.h>
#include <caml/mlvalues.h>

/* dst.(pos .. pos+len-1) <- the [len] words of [raw] at byte [off]. */
value adsm_page_get_f64s(value raw, intnat off, value dst, intnat pos,
                         intnat len)
{
  memcpy((double *) dst + pos, Bytes_val(raw) + off, (size_t) len * 8);
  return Val_unit;
}

value adsm_page_get_f64s_byte(value raw, value off, value dst, value pos,
                              value len)
{
  return adsm_page_get_f64s(raw, Long_val(off), dst, Long_val(pos),
                            Long_val(len));
}

/* The [len] words of [raw] at byte [off] <- src.(pos .. pos+len-1). */
value adsm_page_set_f64s(value raw, intnat off, value src, intnat pos,
                         intnat len)
{
  memcpy(Bytes_val(raw) + off, (const double *) src + pos, (size_t) len * 8);
  return Val_unit;
}

value adsm_page_set_f64s_byte(value raw, value off, value src, value pos,
                              value len)
{
  return adsm_page_set_f64s(raw, Long_val(off), src, Long_val(pos),
                            Long_val(len));
}
