(** Bounded ring of timestamped float samples, stored as two flat
    arrays.

    The feature store keeps one per key. Timestamps live in an
    [int array] and values in a [Float.Array.t], so a push writes two
    unboxed slots: nothing is allocated per sample and nothing the
    ring holds points into the minor heap, which keeps a hot key's
    history out of the garbage collector's way. The arrays start small
    and grow by doubling up to the capacity, so a key saved a handful
    of times costs a few words rather than a full-capacity buffer.

    Indices are logical: [0] is the oldest retained sample and
    [length t - 1] the newest. Pushing into a ring at capacity evicts
    the oldest sample. *)

type t

val create : capacity:int -> t
(** An empty ring that retains at most [capacity] samples. Requires
    [capacity > 0]. *)

val length : t -> int
val is_full : t -> bool

val push : t -> Time_ns.t -> float -> unit
(** Appends the newest sample, evicting the oldest at capacity. *)

val time : t -> int -> Time_ns.t
(** [time t i] is the [i]-th oldest sample's timestamp.
    @raise Invalid_argument unless [0 <= i < length t]. *)

val value : t -> int -> float
(** [value t i] is the [i]-th oldest sample's value.
    @raise Invalid_argument unless [0 <= i < length t]. *)

val first_after : t -> Time_ns.t -> int
(** [first_after t cutoff] is the smallest index whose timestamp is
    greater than [cutoff], or [length t] if there is none: where a
    time window [(cutoff, now]] starts. Requires timestamps pushed in
    non-decreasing order. O(log length). *)

val blit_values : t -> int -> float array -> int -> int -> unit
(** [blit_values t i dst pos n] copies the values at indices
    [i .. i + n - 1] into [dst] from [pos].
    @raise Invalid_argument if either range is out of bounds. *)
