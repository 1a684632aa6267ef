(** Wire envelope used by {!Rpc} to correlate requests with replies.

    A mutable record plus a free pool rather than an immutable variant:
    one envelope is allocated per message sent, and all of them die at
    delivery, so the hot path recycles them.  {!Rpc} is the only
    producer and consumer — it takes envelopes from its pool on send and
    releases them after extracting the payload at dispatch. *)

type tag = Request | Reply | Oneway

type 'msg t = {
  mutable tag : tag;
  mutable id : int;  (** correlation id; meaningless for [Oneway] *)
  mutable payload : 'msg;
}

type 'msg pool

val create_pool : unit -> 'msg pool

(** Take an envelope from the pool (or allocate one) and fill it. *)
val make : 'msg pool -> tag -> id:int -> 'msg -> 'msg t

(** Return a dispatched envelope to the pool.  The caller must have
    extracted everything it needs: the fields may be overwritten by the
    next {!make}.  Each envelope is released at most once, by the
    dispatch path of its own delivery. *)
val release : 'msg pool -> 'msg t -> unit

val payload : 'msg t -> 'msg
