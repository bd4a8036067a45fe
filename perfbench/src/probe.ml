(* Measurement primitives shared by every workload: a monotonic
   nanosecond clock, growable unboxed sample buffers, and the
   out-of-band recorder that captures a store's save stream so it can
   be replayed into a fresh store and timed in isolation. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ms_of_ns ns = float_of_int ns /. 1e6
let s_of_ns ns = float_of_int ns /. 1e9

(* Growable float buffer: slice and push latencies, one per sample. *)
module Floats = struct
  type t = { mutable data : Float.Array.t; mutable len : int }

  let create () = { data = Float.Array.create 1024; len = 0 }

  let push t x =
    if t.len = Float.Array.length t.data then begin
      let bigger = Float.Array.create (2 * t.len) in
      Float.Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    Float.Array.unsafe_set t.data t.len x;
    t.len <- t.len + 1

  let length t = t.len
  let to_list t = List.init t.len (fun i -> Float.Array.get t.data i)

  let sum t =
    let s = ref 0. in
    for i = 0 to t.len - 1 do
      s := !s +. Float.Array.get t.data i
    done;
    !s
end

(* A fixed, allocation-free computation timed at every barrier,
   outside the timed slice and push: a dependent-load walk over a
   32KB random cycle with integer mixing and a float accumulator. One
   untimed lap first brings the table back into cache after the
   slice, so the two timed laps move only with the speed the host
   gives this core, which on a shared VM drifts by up to 1.6x over
   seconds to minutes. run.py scales the run's timings by it. *)
module Host_speed = struct
  let size = 4096

  (* Sattolo's shuffle: one cycle through every slot, fixed seed. *)
  let next =
    let a = Array.init size (fun i -> i) in
    let s = ref 12345 in
    for i = size - 1 downto 1 do
      s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
      let j = !s mod i in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a

  let sink = ref 0

  let lap ~round =
    let p = ref 0 and h = ref 0 and f = ref 0. in
    for _ = 1 to size do
      p := Array.unsafe_get next !p;
      h := ((!h lxor !p) * 31) + round;
      if !h land 1 = 0 then f := !f +. float_of_int (!p land 255)
    done;
    sink := !sink + !h + int_of_float !f

  (* Records one sample; returns the host ns the call took, warm-up
     lap included, so callers can keep it out of their wall time. *)
  let sample (into : Floats.t) =
    let start = now_ns () in
    lap ~round:0;
    let t0 = now_ns () in
    lap ~round:1;
    lap ~round:2;
    let t1 = now_ns () in
    Floats.push into (ms_of_ns (t1 - t0));
    t1 - start
end

(* Growable int buffer. *)
module Ints = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 1024 0; len = 0 }

  let push t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    Array.unsafe_set t.data t.len x;
    t.len <- t.len + 1
end

(* A store's save stream, recorded by an [on_save] subscriber. Keys
   are interned and packed with the save's timestamp into one int
   (timestamp << 16 | key id), so a multi-million-save stream costs
   two words per save instead of a tuple, a string and a boxed float. *)
module Save_log = struct
  type t = {
    keys : (string, int) Hashtbl.t;
    mutable names : string array;
    stamps : Ints.t;
    values : Floats.t;
  }

  let key_bits = 16

  let create () =
    { keys = Hashtbl.create 64; names = [||]; stamps = Ints.create (); values = Floats.create () }

  let intern t key =
    match Hashtbl.find_opt t.keys key with
    | Some id -> id
    | None ->
      let id = Hashtbl.length t.keys in
      if id >= 1 lsl key_bits then failwith "save log: too many distinct keys";
      Hashtbl.add t.keys key id;
      t.names <- Array.append t.names [| key |];
      id

  let record t ~at key value =
    Ints.push t.stamps ((at lsl key_bits) lor intern t key);
    Floats.push t.values value

  let attach t ~clock store =
    Gr_runtime.Feature_store.on_save store (fun key value -> record t ~at:(clock ()) key value)

  let length t = t.stamps.Ints.len
end

(* Replays a recorded save stream into a fresh store that carries the
   live store's demand shapes, timing the saves as one batch. Windowed
   reads (aggregate_result and export_state on each shape) are timed
   three quarters of the way through the stream, where windows hold a
   steady-state population; at the stream's end the workload has
   already stopped feeding some keys. *)
module Replay = struct
  type read_cost = { fn : Gr_dsl.Ast.agg; agg_ns : float; export_ns : float }

  type t = {
    saves : int;
    save_ns : float;  (** total host ns over the whole replay *)
    save_minor_words : float;
    reads : read_cost list;  (** one per demand shape *)
  }

  let reads_per_shape = 64

  let run (log : Save_log.t) ~shapes ~capacity =
    let module S = Gr_runtime.Feature_store in
    let now = ref 0 in
    let store = S.create ~clock:(fun () -> !now) ~capacity_per_key:capacity () in
    List.iter
      (fun (key, fn, window_ns, param) -> S.register_demand store ~key ~fn ~window_ns ~param)
      shapes;
    let n = Save_log.length log in
    let stamps = log.stamps.Ints.data and values = log.values.Floats.data in
    let names = log.names in
    let mask = (1 lsl Save_log.key_bits) - 1 in
    let save_ns = ref 0 and save_minor_words = ref 0. in
    let replay lo hi =
      let w0 = Gc.minor_words () in
      let t0 = now_ns () in
      for i = lo to hi - 1 do
        let packed = Array.unsafe_get stamps i in
        now := packed lsr Save_log.key_bits;
        S.save store (Array.unsafe_get names (packed land mask)) (Float.Array.get values i)
      done;
      save_ns := !save_ns + (now_ns () - t0);
      save_minor_words := !save_minor_words +. (Gc.minor_words () -. w0)
    in
    let mid = 3 * n / 4 in
    replay 0 mid;
    let time_reads f =
      ignore (f () : float);
      let t0 = now_ns () in
      for _ = 1 to reads_per_shape do
        ignore (f () : float)
      done;
      float_of_int (now_ns () - t0) /. float_of_int reads_per_shape
    in
    let reads =
      List.map
        (fun (key, fn, window_ns, param) ->
          let agg_ns =
            time_reads (fun () -> (S.aggregate_result store ~key ~fn ~window_ns ~param).S.value)
          in
          let export_ns =
            time_reads (fun () -> (S.export_state store ~key ~fn ~window_ns ~param).S.Merge.sum)
          in
          { fn; agg_ns; export_ns })
        shapes
    in
    replay mid n;
    { saves = n; save_ns = float_of_int !save_ns; save_minor_words = !save_minor_words; reads }
end

(* GC counters around a run phase. *)
type gc_delta = { minor_words : float; promoted_words : float; major_collections : int }

let gc_snapshot () = Gc.quick_stat ()

let gc_since (s0 : Gc.stat) =
  let s1 = Gc.quick_stat () in
  {
    minor_words = s1.minor_words -. s0.minor_words;
    promoted_words = s1.promoted_words -. s0.promoted_words;
    major_collections = s1.major_collections - s0.major_collections;
  }

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. (1024. *. 1024.)
