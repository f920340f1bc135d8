(* Work counts over a window of a run: deltas of the program's metrics
   registry, its network's message census, the trace's event count and
   the GC's allocation counter, taken from outside at two marks. *)

open Workload

let twopc_kinds =
  [ "prepare"; "prepared"; "refused"; "commit"; "committed"; "abort"; "aborted"; "query" ]

let counter_names =
  [
    "disk.writes";
    "disk.reads";
    "stable_store.logical_puts";
    "stable_store.logical_gets";
    "stable_store.write_rounds";
    "slog.forces";
    "slog.writes";
    "slog.cache_hits";
    "slog.cache_misses";
    "hybrid_rs.entries_written";
    "hybrid_rs.prepares";
    "hybrid_rs.housekeepings";
    "hybrid_rs.recovery_entries";
    "hybrid_rs.recoveries";
    "heap.lock_waits";
    "heap.wait_timeouts";
    "mvcc.snap_reads";
    "mvcc.snapshots";
    "sim.events";
    "guardian.housekeeping_runs";
    "twopc.retries";
    "repl.ships";
    "repl.ship_bytes";
    "repl.applies";
  ]
  @ List.map (fun k -> "twopc.send." ^ k) twopc_kinds

(* Sums of these histograms: bytes per force, tokens per group force. *)
let histogram_names = [ "slog.force_bytes"; "slog.batch_entries" ]

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type mark = {
  words : float;
  counts : (string * int) list;
  net_msgs : int;
  trace_events : int;
}

let mark w =
  let words = alloc_words () in
  let hist n =
    let h = Metrics.histogram n in
    [ (n ^ ".sum", Metrics.histogram_sum h); (n ^ ".count", Metrics.histogram_count h) ]
  in
  {
    words;
    counts = List.map (fun n -> (n, counter n)) counter_names @ List.concat_map hist histogram_names;
    net_msgs = Rs_sim.Net.messages_sent (System.net w.sys);
    trace_events = Rs_obs.Trace.total ();
  }

type t = {
  ops : int;  (** completed operations *)
  commits : int;  (** committed updates *)
  words : float;
  net_msgs : int;
  trace_events : int;
  counts : (string * int) list;
}

let between (m0 : mark) (m1 : mark) ~ops ~commits =
  {
    ops;
    commits;
    words = m1.words -. m0.words;
    net_msgs = m1.net_msgs - m0.net_msgs;
    trace_events = m1.trace_events - m0.trace_events;
    counts = List.map2 (fun (n, a) (_, b) -> (n, b - a)) m0.counts m1.counts;
  }

let count t n = match List.assoc_opt n t.counts with Some v -> v | None -> 0
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let per_op t n = ratio (count t n) t.ops
let per_commit t n = ratio (count t n) t.commits

(* One reported metric; [samples] is stated for quantiles. *)
type metric = { name : string; unit_ : string; value : float; samples : int option }

let metric name unit_ value = { name; unit_; value; samples = None }
