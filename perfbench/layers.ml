(* Per-layer metrics of the traced pass, from three sources:

   1. work counts — [Window] deltas of the metrics registry over the
      traced window (deterministic for a seed);
   2. the virtual-time split — lock waits and 2PC prepare rounds of the
      window's actions, read off the program's own trace ring;
   3. wall time and words per call — inputs captured in the run (the live
      log entries, the committed values, the stable-variable names) are
      replayed against each layer's public functions on fresh instances.

   A layer's self time per operation is its replayed time per call times
   its calls per operation, minus the same for the layer beneath it
   (disk < crc32 < stable store < stable log < hybrid recovery system);
   [layer.coverage] is the sum of the self times over the timed run's
   wall time per operation. *)

open Workload
module Disk = Rs_storage.Disk
module Store = Rs_storage.Stable_store
module Log = Rs_slog.Stable_log
module Log_dir = Rs_slog.Log_dir
module Rs = Core.Hybrid_rs
module Trace = Rs_obs.Trace

(* ---- virtual-time split ---------------------------------------------- *)

let aid_of_msg msg =
  match (String.index_opt msg '(', String.index_opt msg ')') with
  | Some i, Some j when j > i -> Some (String.sub msg 0 i, String.sub msg (i + 1) (j - i - 1))
  | _ -> None

type split = { lock_wait_per_commit : float; prepare_round : float }

(* Lock waits: [Lock_wait] to the matching grant, summed per action and
   averaged over the window's committed actions. Prepare round: first
   prepare sent to last prepared reply received, averaged over committed
   actions that ran one. *)
let vt_split (records : Trace.record list) =
  let waits = Hashtbl.create 64 and wait_sum = Hashtbl.create 64 in
  let first_prepare = Hashtbl.create 1024 and last_prepared = Hashtbl.create 1024 in
  let committed = Hashtbl.create 1024 in
  List.iter
    (fun (r : Trace.record) ->
      match r.event with
      | Trace.Lock_wait { heap; aid; addr; _ } -> Hashtbl.replace waits (heap, aid, addr) r.time
      | Trace.Lock_acquire { heap; aid; addr; _ } -> (
          match Hashtbl.find_opt waits (heap, aid, addr) with
          | Some t0 ->
              Hashtbl.remove waits (heap, aid, addr);
              let prev = Option.value ~default:0.0 (Hashtbl.find_opt wait_sum aid) in
              Hashtbl.replace wait_sum aid (prev +. (r.time -. t0))
          | None -> ())
      | Trace.Twopc_send { msg; _ } -> (
          match aid_of_msg msg with
          | Some ("prepare", aid) when not (Hashtbl.mem first_prepare aid) ->
              Hashtbl.replace first_prepare aid r.time
          | _ -> ())
      | Trace.Twopc_recv { msg; _ } -> (
          match aid_of_msg msg with
          | Some ("prepared", aid) -> Hashtbl.replace last_prepared aid r.time
          | _ -> ())
      | Trace.Handle_resolve { aid; committed = true; _ } -> Hashtbl.replace committed aid ()
      | _ -> ())
    records;
  let commits = Hashtbl.length committed in
  let waited = Hashtbl.fold (fun aid v acc -> if Hashtbl.mem committed aid then acc +. v else acc) wait_sum 0.0 in
  let rounds, n =
    Hashtbl.fold
      (fun aid t0 (acc, n) ->
        match Hashtbl.find_opt last_prepared aid with
        | Some t1 when Hashtbl.mem committed aid -> (acc +. (t1 -. t0), n + 1)
        | _ -> (acc, n))
      first_prepare (0.0, 0)
  in
  {
    lock_wait_per_commit = (if commits = 0 then 0.0 else waited /. float_of_int commits);
    prepare_round = (if n = 0 then 0.0 else rounds /. float_of_int n);
  }

(* ---- replays ----------------------------------------------------------- *)

(* Median µs and mean words per call of [f i] over [n] calls, in [trials]
   timed passes. *)
let time_calls ?(trials = 5) n f =
  let us = Samples.create () and words = ref 0.0 in
  for _ = 1 to trials do
    let w0 = Window.alloc_words () and t0 = wall () in
    for i = 0 to n - 1 do
      f i
    done;
    let dt = wall () -. t0 in
    words := !words +. (Window.alloc_words () -. w0);
    Samples.add us (dt *. 1e6 /. float_of_int n)
  done;
  (Option.get (Samples.median us), !words /. float_of_int (trials * n))

type replay = {
  page_bytes : float;  (** mean bytes of the captured store pages *)
  disk_write_us : float;
  disk_read_us : float;
  put_us : float;
  put_words : float;
  get_us : float;
  crc_us_per_kib : float;
  crc_words_per_kib : float;
  encode_us : float;
  force_us : float;
  flatten_us : float;
  stable_var_us : float;
  snapshot_us : float;
  prepare_us : float;
  commit_us : float;
  recover_us : float;
}

(* The newest [n] live entries of shard 0's log, oldest first. *)
let capture_entries w n =
  let log = Log_dir.current (Rs.dir (Guardian.rs (System.guardian w.sys w.gids.(0)))) in
  match Log.get_top log with
  | None -> []
  | Some top -> List.rev (List.of_seq (Seq.map snd (Seq.take n (Log.read_backward log top))))

(* Force the captured entries, [group] per force, into a fresh log and
   record every careful put the forces make: the disk write hook names
   each physical page written, and the page is read back through its
   store once the force is done. *)
let forced_pages ~page_size ~group entries =
  let dir = Log_dir.create ~page_size () in
  let log = Log_dir.current dir in
  let written = ref [] and pages = ref [] in
  Disk.set_write_hook (Some (fun d i -> written := (d, i) :: !written));
  let flush () =
    List.iter
      (fun (d, i) ->
        List.iter
          (fun st ->
            if fst (Store.disks st) == d then
              match Store.get st i with Some p when p <> "" -> pages := p :: !pages | _ -> ())
          (Log_dir.stores dir))
      (List.rev !written);
    written := []
  in
  List.iteri
    (fun k e ->
      ignore (Log.write log e);
      if (k + 1) mod group = 0 then begin
        Log.force log;
        flush ()
      end)
    entries;
  Log.force log;
  flush ();
  Disk.set_write_hook None;
  Array.of_list (List.rev !pages)

let replay w ~entries_per_force =
  let page_size = Log_dir.page_size (Rs.dir (Guardian.rs (System.guardian w.sys w.gids.(0)))) in
  let entries = capture_entries w 2000 in
  let entries = if entries = [] then [ String.make 64 'x' ] else entries in
  let group = max 1 (int_of_float (Float.round entries_per_force)) in
  let pages = forced_pages ~page_size ~group entries in
  let pages = Array.sub pages 0 (min 512 (Array.length pages)) in
  let np = Array.length pages in
  let page_bytes =
    float_of_int (Array.fold_left (fun acc p -> acc + String.length p) 0 pages) /. float_of_int np
  in
  (* Disk: physical page writes and reads. *)
  let disk = Disk.create ~pages:np () in
  let disk_write_us, _ = time_calls (8 * np) (fun i -> Disk.write disk (i mod np) pages.(i mod np)) in
  let disk_read_us, _ = time_calls (8 * np) (fun i -> ignore (Disk.read disk (i mod np))) in
  (* Stable store: careful put (two replicas, verify) and careful get. *)
  let store = Store.create ~pages:np () in
  let put_us, put_words = time_calls (2 * np) (fun i -> Store.put store (i mod np) pages.(i mod np)) in
  let get_us, _ = time_calls (2 * np) (fun i -> ignore (Store.get store (i mod np))) in
  (* CRC-32, per KiB. *)
  let kib = String.init 1024 (fun k -> pages.(k mod np).[k mod String.length pages.(k mod np)]) in
  let crc_us_per_kib, crc_words_per_kib = time_calls (4 * np) (fun _ -> ignore (Rs_util.Crc32.string kib)) in
  (* Codec: re-encode the captured entries. *)
  let decoded = Array.of_list (List.map Core.Log_entry.decode entries) in
  let nd = Array.length decoded in
  let encode_us, _ = time_calls nd (fun i -> ignore (Core.Log_entry.encode decoded.(i))) in
  (* Stable log: the captured entries in force groups of the run's size. *)
  let earr = Array.of_list entries in
  let force_us =
    let fresh () = Log_dir.current (Log_dir.create ~page_size ()) in
    let log = ref (fresh ()) in
    let forces = (Array.length earr + group - 1) / group in
    fst
      (time_calls ~trials:3 forces (fun i ->
           if i = 0 then log := fresh ();
           for k = i * group to min (Array.length earr) ((i + 1) * group) - 1 do
             ignore (Log.write !log earr.(k))
           done;
           Log.force !log))
  in
  (* Object layer: the live heap of shard 0. *)
  let heap = Guardian.heap (System.guardian w.sys w.gids.(0)) in
  let objs = w.cfg.objects in
  let addrs = Array.init objs (fun i -> obj_addr heap i) in
  let values = Array.map (fun a -> Heap.committed_read heap a) addrs in
  let flatten_us, _ =
    time_calls objs (fun i -> ignore (Rs_objstore.Flatten.flatten heap values.(i)))
  in
  let names = Array.init objs name in
  let stable_var_us, _ = time_calls objs (fun i -> ignore (Heap.get_stable_var heap names.(i))) in
  let snapshot_us, _ =
    time_calls objs (fun i ->
        Heap.with_snapshot heap (fun s -> ignore (Heap.snapshot_read heap s addrs.(i))))
  in
  (* Hybrid recovery system: prepare and commit two-object actions on a
     fresh heap and log holding the same objects, with the workload's
     checkpoint threshold; then recover the log. *)
  let rheap = Heap.create () in
  let rdir = Log_dir.create ~page_size () in
  let rs = Rs.create rheap rdir in
  let seq = ref 0 in
  let aid () =
    incr seq;
    Rs_util.Aid.make ~coordinator:(Gid.of_int 0) ~seq:!seq
  in
  let finish a =
    Rs.prepare rs a (Heap.mos rheap a);
    Rs.commit rs a;
    Heap.commit_action rheap a
  in
  let a0 = aid () in
  let raddrs =
    Array.mapi
      (fun i v ->
        let a = Heap.alloc_atomic rheap ~creator:a0 v in
        Heap.set_stable_var rheap a0 names.(i) (Value.Ref a);
        a)
      values
  in
  finish a0;
  let rng = Rng.create 5 in
  let n_actions = 1000 in
  let prep = Samples.create () and comm = Samples.create () in
  for _ = 1 to n_actions do
    let a = aid () in
    let i = Rng.int rng objs in
    let j = (i + 1 + Rng.int rng (objs - 1)) mod objs in
    List.iter (fun k -> Heap.set_current rheap a raddrs.(k) values.(k)) [ i; j ];
    let t0 = wall () in
    Rs.prepare rs a (Heap.mos rheap a);
    let t1 = wall () in
    Rs.commit rs a;
    let t2 = wall () in
    Heap.commit_action rheap a;
    Samples.add prep ((t1 -. t0) *. 1e6);
    Samples.add comm ((t2 -. t1) *. 1e6);
    if Log.stream_bytes (Rs.log rs) > hk_threshold then Rs.housekeep rs Rs.Snapshot
  done;
  let recover_us, _ = time_calls ~trials:3 1 (fun _ -> ignore (Rs.recover_parallel rdir)) in
  let median s = Option.get (Samples.median s) in
  {
    page_bytes;
    disk_write_us;
    disk_read_us;
    put_us;
    put_words;
    get_us;
    crc_us_per_kib;
    crc_words_per_kib;
    encode_us;
    force_us;
    flatten_us;
    stable_var_us;
    snapshot_us;
    prepare_us = median prep;
    commit_us = median comm;
    recover_us;
  }

(* ---- the per-layer report --------------------------------------------- *)

type inputs = {
  win : Window.t;  (** the traced window *)
  split : split;
  replay : replay;
  lookups_per_op : float;  (** stable-variable lookups the workload makes *)
  wall_us_per_op : float;  (** the untraced run's, over the same window *)
  overhead : float;  (** traced / untraced wall time per op, minus one *)
  ring_cost : float;  (** untraced / ring-disabled wall time per op, minus one *)
  header_bytes : int;
  live_segments : int;
  chain_len_max : int;
  applied_entries : int;
  recovery_entries : float;  (** per cold restart *)
  promote_us : float;
  read_action_us : float;  (** median wall µs per read-only action *)
}

let report i =
  let open Window in
  let win = i.win and r = i.replay in
  let m = metric in
  let puts = per_op win "stable_store.logical_puts" and gets = per_op win "stable_store.logical_gets" in
  let forces = count win "slog.forces" in
  (* Page bytes through the careful put/get, each checksummed at least
     once; the checksum's own time is part of the store's self time. *)
  let crc_bytes_per_op = (puts +. gets) *. r.page_bytes in
  let disk_t = (r.disk_write_us *. per_op win "disk.writes") +. (r.disk_read_us *. per_op win "disk.reads") in
  let store_t = (r.put_us *. puts) +. (r.get_us *. gets) in
  let slog_t = r.force_us *. per_op win "slog.forces" in
  let hybrid_t =
    (r.prepare_us +. r.commit_us) *. per_op win "hybrid_rs.prepares"
  in
  let recover_t = r.recover_us *. per_op win "hybrid_rs.recoveries" in
  let heap_t =
    (r.stable_var_us *. i.lookups_per_op) +. (r.snapshot_us *. per_op win "mvcc.snapshots")
  in
  let self =
    [
      ("disk", disk_t);
      ("stable_store", Float.max 0.0 (store_t -. disk_t));
      ("slog", Float.max 0.0 (slog_t -. store_t));
      ("hybrid", Float.max 0.0 (hybrid_t -. slog_t));
      ("recover", recover_t);
      ("heap", heap_t);
    ]
  in
  let covered = List.fold_left (fun acc (_, t) -> acc +. t) 0.0 self in
  let twopc_msgs = List.fold_left (fun acc k -> acc + count win ("twopc.send." ^ k)) 0 twopc_kinds in
  [
    m "disk.writes_per_op" "count" (per_op win "disk.writes");
    m "disk.reads_per_op" "count" (per_op win "disk.reads");
    m "disk.write_us" "us" r.disk_write_us;
    m "disk.read_us" "us" r.disk_read_us;
    m "stable_store.puts_per_op" "count" puts;
    m "stable_store.gets_per_op" "count" gets;
    m "stable_store.rounds_per_put" "count"
      (ratio (count win "stable_store.write_rounds") (count win "stable_store.logical_puts"));
    m "stable_store.put_us" "us" r.put_us;
    m "stable_store.get_us" "us" r.get_us;
    m "stable_store.put_words" "words" r.put_words;
    m "crc32.us_per_kib" "us" r.crc_us_per_kib;
    m "crc32.words_per_kib" "words" r.crc_words_per_kib;
    m "crc32.bytes_per_op" "bytes" crc_bytes_per_op;
    m "codec.encode_us_per_entry" "us" r.encode_us;
    m "slog.forces_per_commit" "count" (per_commit win "slog.forces");
    m "slog.entries_per_force" "count" (ratio (count win "slog.writes") forces);
    m "slog.force_bytes_per_force" "bytes" (ratio (count win "slog.force_bytes.sum") forces);
    m "slog.header_bytes" "bytes" (float_of_int i.header_bytes);
    m "slog.force_us" "us" r.force_us;
    m "slog.cache_hit_ratio" "ratio"
      (ratio (count win "slog.cache_hits")
         (count win "slog.cache_hits" + count win "slog.cache_misses"));
    m "slog.live_segments" "count" (float_of_int i.live_segments);
    m "fsched.tokens_per_force" "count"
      (ratio (count win "slog.batch_entries.sum") (count win "slog.batch_entries.count"));
    m "hybrid.entries_per_commit" "count" (per_commit win "hybrid_rs.entries_written");
    m "hybrid.log_bytes_per_commit" "bytes" (per_commit win "slog.force_bytes.sum");
    m "hybrid.prepare_us" "us" r.prepare_us;
    m "hybrid.commit_us" "us" r.commit_us;
    m "hybrid.checkpoints" "count" (float_of_int (count win "hybrid_rs.housekeepings"));
    m "hybrid.recovery_entries" "count" i.recovery_entries;
    m "hybrid.recover_us" "us" r.recover_us;
    m "flatten.us_per_value" "us" r.flatten_us;
    m "heap.stable_var_us" "us" r.stable_var_us;
    m "heap.lock_waits_per_op" "count" (per_op win "heap.lock_waits");
    m "heap.wait_timeouts_per_op" "count" (per_op win "heap.wait_timeouts");
    m "mvcc.snap_reads_per_op" "count" (per_op win "mvcc.snap_reads");
    m "mvcc.snapshot_us" "us" r.snapshot_us;
    m "mvcc.read_action_us" "us" i.read_action_us;
    m "mvcc.chain_len_max" "count" (float_of_int i.chain_len_max);
    m "twopc.msgs_per_commit" "count" (ratio twopc_msgs win.commits);
    m "twopc.vt_prepare_round" "vt" i.split.prepare_round;
    m "twopc.retries_per_commit" "count" (per_commit win "twopc.retries");
    m "guardian.vt_lock_wait_per_commit" "vt" i.split.lock_wait_per_commit;
    m "guardian.housekeeping_runs" "count" (float_of_int (count win "guardian.housekeeping_runs"));
    m "sim.events_per_op" "count" (per_op win "sim.events");
    m "net.msgs_per_op" "count" (ratio win.net_msgs win.ops);
    m "repl.ships_per_commit" "count" (per_commit win "repl.ships");
    m "repl.ship_bytes_per_commit" "bytes" (per_commit win "repl.ship_bytes");
    m "repl.promote_us" "us" i.promote_us;
    m "repl.applied_entries" "count" (float_of_int i.applied_entries);
    m "trace.events_per_op" "count" (ratio win.trace_events win.ops);
    m "trace.overhead" "ratio" i.overhead;
    m "trace.ring_cost" "ratio" i.ring_cost;
  ]
  @ List.map (fun (l, t) -> m ("self." ^ l ^ "_us_per_op") "us" t) self
  @ [
      m "e2e.wall_us_per_op" "us" i.wall_us_per_op;
      m "layer.coverage" "ratio" (covered /. i.wall_us_per_op);
    ]
