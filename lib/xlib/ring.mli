(** A circular buffer, in one of two modes.

    {b Growable} ({!create}) backs the per-connection event queues in
    {!Server}: events are enqueued at the back, delivered from the front,
    and the batched delivery path ({!Server.read_events}) drains a
    contiguous run per call instead of one element at a time.  The buffer
    doubles in place when full, so steady state allocates nothing per
    event.  The back of the queue is also mutable ({!peek_back},
    {!replace_back}), which is what X-style event compression needs: a new
    MotionNotify replaces the MotionNotify already sitting at the tail
    rather than enqueueing behind it.

    {b Bounded} ({!bounded}) is the single substrate of every diagnostic
    log: the flight recorder and its replay journal, the trace events and
    slow-op log, the metrics sampler, the ledger's recent fates and the
    WM's per-dispatch records.  A bounded ring is preallocated, never
    grows and holds exactly [capacity] entries; {!push} onto a full one
    overwrites the oldest entry and counts it in {!dropped}, so the cost
    of keeping a log armed never depends on how long the program has been
    up. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** A growable ring; [capacity] is the initial size (default 16, rounded
    up to a power of two). *)

val bounded : int -> 'a t
(** [bounded capacity]: a bounded ring of exactly [capacity] entries (at
    least 1). *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val capacity : 'a t -> int
(** The bound of a bounded ring; the current buffer size of a growable
    one. *)

val push : 'a t -> 'a -> unit
(** Append at the back.  A full growable ring grows; a full bounded ring
    overwrites its oldest entry. *)

val total : 'a t -> int
(** {!push}es since creation or the last {!clear}, including entries
    since overwritten. *)

val dropped : 'a t -> int
(** Entries a bounded ring has overwritten since creation or the last
    {!clear}; always 0 for a growable ring. *)

val push_front : 'a t -> 'a -> unit
(** Prepend at the front (used to return the unconsumed remainder of a
    partially-expanded entry).  Raises [Invalid_argument] on a full
    bounded ring. *)

val pop : 'a t -> 'a option
(** Remove and return the front element. *)

val peek : 'a t -> 'a option
val peek_back : 'a t -> 'a option

val replace_back : 'a t -> 'a -> unit
(** Overwrite the back element; raises [Invalid_argument] when empty. *)

val get : 'a t -> int -> 'a option
(** Logical-index read: [get t 0] is the front (oldest) element; [None]
    out of range. *)

val set : 'a t -> int -> 'a -> unit
(** Overwrite the element at a logical index; raises [Invalid_argument]
    out of range.  With {!get}, lets the overload shed policy fold an
    event into an entry anywhere in the queue. *)

val remove : 'a t -> int -> 'a option
(** Remove and return the element at a logical index, preserving the order
    of the rest.  O(i) shift — meant for the rare at-cap shed path, not
    steady-state delivery. *)

val clear : 'a t -> unit
(** Empty the ring and reset {!total} and {!dropped}. *)

val high_water : 'a t -> int
(** The largest length the ring has ever reached. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Front-to-back (oldest first), without consuming. *)

val to_list : 'a t -> 'a list
(** The contents, oldest first. *)
