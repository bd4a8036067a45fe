(** Fixed-capacity ring buffer.

    Used for bounded histories everywhere state must not grow without
    bound (a monitor's state flips, recent-latency features, violation
    logs). Pushing into a full ring evicts the oldest element.
    Feature-store sample windows use {!Sample_ring} instead. *)

type 'a t

val create : capacity:int -> 'a t
(** Requires [capacity > 0]. *)

val length : 'a t -> int
val is_empty : 'a t -> bool
val clear : 'a t -> unit

val push : 'a t -> 'a -> unit
(** Appends newest element, evicting the oldest if full. *)

val get : 'a t -> int -> 'a
(** [get t i] is the [i]-th oldest element, [0 <= i < length t].
    @raise Invalid_argument if out of range. *)

val newest : 'a t -> 'a option
val oldest : 'a t -> 'a option

val to_list : 'a t -> 'a list
(** Oldest to newest. *)

val drop_while_oldest : ('a -> bool) -> 'a t -> unit
(** Evicts oldest elements while the predicate holds; used to expire
    samples that fell out of a time window. *)
