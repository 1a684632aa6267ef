(* The envelope is a mutable record rather than an immutable variant so
   the hot path can recycle envelopes through a free pool: the send path
   allocates one envelope per message — millions per run at large n —
   and every one of them dies at delivery, pure minor-heap churn.  [Rpc]
   takes envelopes from its pool at send time and releases them after
   extracting the payload at dispatch. *)

type tag = Request | Reply | Oneway

type 'msg t = {
  mutable tag : tag;
  mutable id : int;  (* correlation id; meaningless for [Oneway] *)
  mutable payload : 'msg;
}

(* Array-backed free stack.  Slots at or beyond [len] may retain stale
   references to envelopes (and through them, their last payloads) until
   overwritten by a later release — bounded by the in-flight high-water
   mark, which is also the pool's natural size. *)
type 'msg pool = { mutable slots : 'msg t array; mutable len : int }

let create_pool () = { slots = [||]; len = 0 }

(* Retaining arbitrarily many dead envelopes (each pinning its last
   payload) would turn the pool into a leak; past this point released
   envelopes are simply dropped for the GC. *)
let pool_cap = 4096

let payload t = t.payload

let make p tag ~id payload =
  if p.len = 0 then { tag; id; payload }
  else begin
    let n = p.len - 1 in
    p.len <- n;
    let e = p.slots.(n) in
    e.tag <- tag;
    e.id <- id;
    e.payload <- payload;
    e
  end

let release p e =
  if p.len < pool_cap then begin
    if p.len = Array.length p.slots then begin
      let grown = Array.make (max 64 (2 * p.len)) e in
      Array.blit p.slots 0 grown 0 p.len;
      p.slots <- grown
    end;
    p.slots.(p.len) <- e;
    p.len <- p.len + 1
  end
