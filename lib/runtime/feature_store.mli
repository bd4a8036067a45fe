(** The global feature store (§4.3).

    Guardrails aggregate system-wide metrics "over time or across many
    function invocations" without ad-hoc kernel data structures; the
    store is the single state channel between kernel instrumentation,
    learned-policy bookkeeping and monitors.

    Each key holds a bounded ring of timestamped samples, the newest
    of which is its latest value (bounded memory is non-negotiable
    in-kernel; the oldest samples are evicted first). The ring
    ({!Gr_util.Sample_ring}) keeps times and values in flat arrays, so
    a steady-state save stores nothing boxed. Windowed aggregates are
    computed over the samples whose timestamp falls within
    [(now - window, now]].

    {b Incremental aggregation.} Monitors run at nanosecond budgets,
    so re-scanning a window on every check is not affordable. At
    install time the runtime registers each aggregate it will ask for
    as a {e demand} ({!register_demand}); the store then maintains
    streaming per-demand state — running count/sum/sum-of-squares for
    COUNT/SUM/RATE/AVG/STDDEV, a monotonic deque for MIN/MAX, window
    head/tail tracking for DELTA — updated O(1) amortized on every
    {!save} and expired lazily against the clock on read. QUANTILE
    has no exact O(1) summary and instead binary-searches the
    time-ordered ring for the window cutoff, ranking only the
    in-window suffix. Aggregates without a registered demand fall
    back to the naive full scan, which is also kept as the oracle
    path for equivalence testing ({!set_force_naive}). *)

type t

(** {1 Scoped keys}

    Keys are scoped. The flat string namespace every existing caller
    uses is {e node-local sugar}: a plain key names state in this
    store instance. A key carrying the canonical ["global::"] encoding
    (what the DSL's [GLOBAL(key)] qualifier lowers to, see
    {!Gr_dsl.Ast.global_key}) is routed to the fleet-wide tier set
    with {!set_global_tier}. A standalone store is its own global
    tier, so single-node behaviour is bit-for-bit unchanged. *)

module Key : sig
  type t = Node of int * string | Global of string

  val of_id : node_id:int -> string -> t
  (** Structured view of an encoded key, attributing plain keys to
      [node_id]. *)

  val id : t -> string
  (** The encoded string form the store's flat API takes. *)

  val node_id : t -> int option
  (** [None] for global keys. *)

  val to_string : t -> string
  (** Display form: [node3::key] or [GLOBAL(key)] — what lint
      diagnostics print when scoping matters. *)
end

val create : clock:(unit -> Gr_util.Time_ns.t) -> ?capacity_per_key:int -> unit -> t
(** [capacity_per_key] defaults to 4096 samples. *)

val node_id : t -> int
(** Which fleet node this store shard belongs to; 0 for a standalone
    store. *)

val set_node_id : t -> int -> unit

val set_global_tier : t -> t -> unit
(** Route ["global::"]-scoped keys to the given fleet-tier store.
    Saves, loads, demand registrations and aggregates on global keys
    all forward there, and its {!on_save} subscribers see the save —
    the cross-node signalling channel. Passing the store itself resets
    to standalone behaviour. *)

val global_tier : t -> t
(** The store global keys resolve to; the store itself when
    standalone. *)

val set_shards : t -> t array -> unit
(** Declare this store the fleet tier over the given node shards.
    Plain keys then read as the {e merged} view: loads answer the
    newest sample across all members, windowed aggregates fold every
    member's streaming state with {!Merge.union}, and
    {!window_samples} is the timestamp-sorted concatenation. The
    store's own table still participates (member 0), so fleet-level
    saves of plain keys stay visible. Register demands after the
    shards are set so the registration fans out. *)

val shards : t -> t array

val set_tracer : t -> Gr_trace.Tracer.t -> unit
(** Attach a tracer. When tracing is enabled, every SAVE emits a
    counter event (["store:<key>"], so Chrome plots each key as a
    time series) and every windowed aggregate an instant event
    carrying the scan size and whether the incremental path served
    it. Individual LOADs are counted ({!load_count}) but not traced
    per-call — they are the hottest operation in the system and
    per-load events would be all volume, no signal; the per-check
    trace events already carry the VM's dynamic cost. *)

val clear_tracer : t -> unit
(** Detach the tracer; subsequent store activity is untraced. *)

val save : t -> string -> float -> unit
(** Appends a timestamped sample, updates the latest value and every
    registered demand on the key. Notifies {!on_save} subscribers
    after the write. *)

val load : t -> string -> float
(** Latest value; 0. for a key never saved (LOAD's semantics). *)

val mem : t -> string -> bool
val keys : t -> string list

(** {1 Aggregate demands} *)

val register_demand :
  t -> key:string -> fn:Gr_dsl.Ast.agg -> window_ns:float -> param:float -> unit
(** Declare that [aggregate] will be asked for this exact
    [(key, fn, window_ns, param)] shape, switching it to the
    streaming path. Demands are refcounted: registering the same
    shape twice (two monitors sharing a rule term) takes one slot,
    and the demand survives until released as many times. A demand
    registered mid-run replays the key's retained samples, so its
    first read already agrees with the scan. *)

val release_demand :
  t -> key:string -> fn:Gr_dsl.Ast.agg -> window_ns:float -> param:float -> unit
(** Drops one reference; the streaming state is freed when the count
    reaches zero. Releasing an unregistered demand is a no-op. *)

val demand_count : t -> int
(** Distinct demands currently registered (not counting refs). *)

val demand_shapes : t -> (string * Gr_dsl.Ast.agg * float * float) list
(** Every registered [(key, fn, window_ns, param)] shape, in a
    deterministic (sorted) order — the enumeration a fault soak walks
    to cross-check the streaming path against the naive oracle. *)

val set_force_naive : t -> bool -> unit
(** When set, every aggregate takes the naive full-scan path even if
    a demand is registered — the oracle mode the equivalence property
    test runs both sides of. Default false. *)

(** {1 Windowed reads} *)

type agg_result = {
  value : float;
  scanned : int;
      (** samples touched by this call: the full window population on
          the naive path; on the incremental path only the samples
          expired now (amortized O(1)) plus, for QUANTILE, the
          in-window suffix it ranked *)
  incremental : bool;  (** whether a registered demand served it *)
}

val aggregate_result :
  t -> key:string -> fn:Gr_dsl.Ast.agg -> window_ns:float -> param:float -> agg_result
(** Windowed aggregate with cost accounting — the VM's entry point.
    Empty windows yield 0 for every function, so rules are total.
    RATE is the sample {e sum} divided by the window in seconds —
    saving 0/1 event markers gives events per second. DELTA is the
    newest sample minus the oldest in the window (a trend signal). *)

val aggregate :
  t -> key:string -> fn:Gr_dsl.Ast.agg -> window_ns:float -> param:float -> float
(** [aggregate t ~key ~fn ~window_ns ~param =
    (aggregate_result t ...).value]. *)

(** {1 Pre-resolved handles}

    Read and write handles resolve a key once instead of on every
    access. No handle creates an entry before the key is written, so
    {!mem} and {!keys} cannot tell that one exists.

    {b Read handles.} The JIT tier resolves a read's store routing,
    entry, and streaming demand once at monitor install, reducing the
    per-check read to a few loads and generation compares. Every key
    has a handle. Handle reads are observationally identical to
    {!load}/{!aggregate_result}: same counters, same trace instants,
    same values. A key that reads as a cross-shard merge on the fleet
    tier has no single entry to pin, so its handle always takes that
    generic path. Handles self-invalidate — any later
    {!set_global_tier}/{!set_shards}, a [set_force_naive true], or a
    released demand degrades the read to the exact slow path rather
    than returning stale state.

    {b Write handles.} A {!writer} pins {!save}'s routing for one key
    and, from its first write on, the key's entry: callers that save
    the same key over and over (hook forwarders, periodic derivations,
    a monitor's SAVE action) skip the scope test and the hash lookup.
    {!write} is observationally identical to {!save}: same counters,
    same demand updates, same [store:<key>] counter event, same
    subscriber order. A routing change ({!set_global_tier} or
    {!set_shards} on the writer's store or the store it resolved to)
    re-pins the writer and sends that write through {!save}; so does
    any write a {!set_global_publish} hook would intercept. *)

type load_handle

val load_handle : t -> string -> load_handle

val handle_load : load_handle -> float
(** Same result and counter effects as [load] on the handle's store. *)

type agg_handle

val agg_handle :
  t -> key:string -> fn:Gr_dsl.Ast.agg -> window_ns:float -> param:float -> agg_handle

val handle_aggregate : agg_handle -> agg_result
(** Same result, counter effects and trace instant as
    [aggregate_result] with the handle's shape. *)

type writer

val writer : t -> string -> writer
(** A write handle for [key] on [t]. Creating one has no effect on the
    store. *)

val write : writer -> float -> unit
(** [write (writer t key) v] has the same effects as [save t key v]. *)

val window_samples : t -> key:string -> window_ns:float -> float array
(** The raw samples inside the window, oldest first. For
    instrumentation that needs more than the built-in aggregates
    (e.g. a two-sample KS statistic against a training set). *)

val samples_in_window : t -> key:string -> window_ns:float -> int
(** How many samples a naive aggregate over this window would scan;
    O(log window) by binary search. *)

(** {1 Cross-shard merge}

    Fleet-wide aggregation composes per-shard streaming state instead
    of re-scanning every shard: each shard {e exports} a mergeable
    summary of one (key, fn, window, param) shape — the running
    count/sum/sum-of-squares, the front of the monotonic deque, the
    window head/tail, or the in-window value multiset for QUANTILE —
    and the fleet tier folds them with {!Merge.union}. The merged
    result is verified against the naive concat-and-scan oracle by the
    equivalence property tests and the fleet soak. *)

module Merge : sig
  type state = {
    count : int;
    sum : float;
    sumsq : float;
    nans : int;  (** NaN samples in window; MIN/MAX answer NaN while > 0 *)
    minv : float option;  (** min over non-NaN in-window samples *)
    maxv : float option;
    oldest : (Gr_util.Time_ns.t * float) option;
    newest : (Gr_util.Time_ns.t * float) option;
    samples : float array;  (** in-window values (QUANTILE exports only) *)
  }

  val empty : state
  (** Unit of {!union}: the state of an empty window. *)

  val union : state -> state -> state
  (** Associative merge; the left argument is the earlier shard
      position, which decides timestamp ties for DELTA's window
      head/tail exactly like the stable merged-window sort. *)

  val value : fn:Gr_dsl.Ast.agg -> window_ns:float -> param:float -> state -> float
  (** The aggregate a merged state answers — same empty-window and NaN
      semantics as {!aggregate}. *)
end

val export_state :
  ?now:Gr_util.Time_ns.t ->
  t ->
  key:string ->
  fn:Gr_dsl.Ast.agg ->
  window_ns:float ->
  param:float ->
  Merge.state
(** One shard's mergeable summary for the shape, after lazy expiry —
    O(1) amortized when the shape has a registered demand (QUANTILE
    pays its in-window suffix), a window scan otherwise. On a
    fleet-tier store this already folds all members. [?now] overrides
    the window cutoff clock (default: the store's own) — parallel
    fleets pass the reading store's clock so shards whose clocks sit
    at the epoch boundary are cut consistently with the merged naive
    scan. *)

val set_global_publish : t -> (string -> float -> unit) option -> unit
(** Parallel-fleet interception hook (docs/PARALLEL.md): when set, a
    {!save} of a global-scoped key that would cross into a {e foreign}
    global tier calls the hook instead of writing the tier directly.
    Node stores in a parallel fleet use it to buffer cross-domain
    GLOBAL saves as intents replayed deterministically at the epoch
    barrier. Saves that resolve to the store itself are never
    intercepted; [None] (the default) restores direct writes. *)

val on_save : t -> (string -> float -> unit) -> unit
(** Global subscription used by the runtime's ON_CHANGE dispatch and
    by policies that watch control keys (e.g. [ml_enabled]).
    Registration is O(1); subscribers are notified in registration
    order. *)

val save_count : t -> int
(** Total saves since creation. *)

val load_count : t -> int
(** Total loads since creation. *)

val agg_hit_count : t -> int
(** Aggregate reads served by a registered demand. *)

val agg_miss_count : t -> int
(** Aggregate reads that fell back to the naive scan (no demand
    registered, or {!set_force_naive}). *)

val expired_count : t -> int
(** Samples retired from demand windows so far, by lazy expiry or
    capacity eviction — the amortized cost the streaming path pays
    instead of re-scanning. *)
