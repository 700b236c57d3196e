(* Plumbing shared by the benchmark workloads: a monotonic clock, seed
   derivation, sample statistics, output checks and metric records. *)

(* Monotonic nanosecond clock: tier-1 events take about a microsecond, below
   the resolution of [Unix.gettimeofday]. *)
let now_ns () = Monotonic_clock.now ()

let now () = Int64.to_float (now_ns ()) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* One independent sub-seed per input stream, derived from the workload seed
   with a splitmix64 finalizer, so neighbouring seeds give unrelated churn,
   failure, resize and event streams.

   The region and its capacity requests are part of a workload's definition
   and stay fixed across seeds (the presets' own seeds, recorded in every
   run's output): with a seeded region the plan objective of two seeds
   differs by 30-100%, which would hide any change in plan quality. *)
let derive seed stream =
  let open Int64 in
  let z = add (mul (of_int seed) 0x9E3779B97F4A7C15L) (mul (of_int stream) 0xD1B54A32D192ED03L) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  to_int (logand z 0x3FFF_FFFFL)

let region_seed_large = 6
let region_seed_medium = 3
let requests_seed = 11
let seed_churn = 3
let seed_events = 4
let seed_failures = 5
let seed_arrivals = 6
let seed_resizes = 7

(* ---- samples ---- *)

module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    Array.unsafe_set t.data t.len x;
    t.len <- t.len + 1

  let length t = t.len

  let sorted t =
    let a = Array.sub t.data 0 t.len in
    Array.sort Float.compare a;
    a
end

(* Linear-interpolated quantile of an ascending array; 0 when empty. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  quantile_sorted a 0.5

(* ---- checks ---- *)

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Check_failed msg)) fmt

(* ---- GC ---- *)

let bytes_per_word = float_of_int (Sys.word_size / 8)

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. bytes_per_word /. 1e6

(* Allocation and collection counters around a piece of work. *)
type gc_delta = { alloc_bytes : float; minor_words : float; major_collections : int }

let gc_mark () = (Gc.allocated_bytes (), Gc.minor_words (), (Gc.quick_stat ()).Gc.major_collections)

let gc_since (a0, w0, m0) =
  let a1, w1, m1 = gc_mark () in
  { alloc_bytes = a1 -. a0; minor_words = w1 -. w0; major_collections = m1 - m0 }

(* ---- results ---- *)

(* What a workload hands back: end-to-end metrics, per-layer metrics (traced
   runs only), operation counts, a description of the generated inputs and
   the per-round / per-event-kind records of a traced run. *)
type result = {
  attempted : int;
  failed : int;
  end_to_end : (string * float) list;
  per_layer : (string * float) list;
  info : (string * string) list;  (** seed and generated sizes, as JSON values *)
  records : string list;  (** one JSON object per round or event kind *)
}

let jf x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

let ji = string_of_int

(* ---- machine-speed reference ----

   On a shared machine a core's speed changes within a run and between
   runs: the scale factor below ranged 0.69-0.90 over consecutive
   tenth-of-a-second epochs of one events-large run (the [speed_factor] of
   its traced records), and between two sets of ten runs half an hour
   apart the raw time medians of every workload moved by 21-41% while the
   scaled ones moved by at most 8%.  That swamps the differences a
   benchmark exists to show.  So around each
   timed operation (a set-up, a round, an hour, an epoch of events) a run
   times a fixed reference kernel — sorting, random table access and float
   work on preallocated arrays, independent of the program under test and
   allocation-free, so the program's heap cannot slow it — and scales its
   end-to-end times by [reference_s / kernel time], with the kernel runs
   right around that operation: times read as seconds on a machine that
   runs the kernel in [reference_s].  Scaling by the run's median kernel
   time instead tracked the speed of the timed work worse: over eight
   sim-medium seeds its hour median spread 19% (interquartile range over
   median), raw 9%, scaled by the kernel runs around each hour 9%.
   Per-layer times in traced runs stay raw. *)

let reference_s = 0.016

let kernel_times = Samples.create ()

let kernel_keys = Array.make 20_000 0
let kernel_table = Array.make (1 lsl 20) 0
let kernel_floats = Array.init 100_000 (fun i -> float_of_int (i + 1))

let kernel () =
  let t0 = now () in
  let x = ref 12345 in
  Array.iteri
    (fun i _ ->
      x := ((!x * 1103515245) + 12345) land 0x3FFF_FFFF;
      kernel_keys.(i) <- !x)
    kernel_keys;
  Array.sort (fun (a : int) b -> compare a b) kernel_keys;
  let mask = Array.length kernel_table - 1 in
  for _ = 1 to 300_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFF_FFFF;
    let j = !x land mask in
    kernel_table.(j) <- kernel_table.(j) + kernel_table.((j * 7) land mask) + 1
  done;
  let s = ref 0.0 in
  for _ = 1 to 4 do
    Array.iter (fun v -> s := !s +. sqrt v) kernel_floats
  done;
  ignore (Sys.opaque_identity !s);
  let dt = now () -. t0 in
  Samples.add kernel_times dt;
  dt

let mean_kernel samples =
  let acc = ref 0.0 in
  for _ = 1 to samples do
    acc := !acc +. kernel ()
  done;
  !acc /. float_of_int samples

(* Runs [f] between [samples] kernel runs before and after it; returns its
   result, its raw time and the speed factor [reference_s / kernel time]
   of the kernel runs around it, by which its time is scaled. *)
let calibrated ~samples f =
  let k0 = mean_kernel samples in
  let r, dt = timed f in
  let k1 = mean_kernel samples in
  (r, dt, reference_s /. ((k0 +. k1) /. 2.0))

let median_kernel_s () = quantile_sorted (Samples.sorted kernel_times) 0.5

(* The timed end-to-end metrics of a run as measured, for its info line,
   so raw and scaled figures can be compared. *)
let raw_times ~setup_s ~p50_ms ~p99_ms ~ops_per_s =
  ( "raw",
    json_obj
      [ ("setup_s", jf setup_s); ("op_p50_ms", jf p50_ms); ("op_p99_ms", jf p99_ms); ("ops_per_s", jf ops_per_s) ]
  )

(* Runs [setup] [times] times, each on a freshly compacted heap, and keeps
   the last result; returns it with the median set-up time, raw and
   scaled. *)
let repeated_setup ~times setup =
  let raw = ref [] and scaled = ref [] and last = ref None in
  for _ = 1 to times do
    last := None;
    Gc.compact ();
    let s, dt, speed = calibrated ~samples:8 setup in
    raw := dt :: !raw;
    scaled := (dt *. speed) :: !scaled;
    last := Some s
  done;
  (Option.get !last, median !raw, median !scaled)
