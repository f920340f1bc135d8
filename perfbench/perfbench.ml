(* Repository benchmark: one workload per invocation.

     perfbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

   [--trace 0] is the timed run and prints every end-to-end metric;
   [--trace 1] is the traced run and prints every per-layer metric. Both
   end with the correctness gate. The last line of standard output is one
   JSON object {correct, attempted, failed, metrics}. README.md in this
   directory defines the workloads and the metrics. *)

open Workload

type args = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable tiny : bool;
}

let parse_args () =
  let a = { workload = ""; seed = 1; seconds = 10.0; trace = false; tiny = false } in
  let specs =
    [
      ("--workload", Arg.String (fun s -> a.workload <- s), "NAME workload to run");
      ("--seed", Arg.Int (fun n -> a.seed <- n), "N input seed");
      ("--seconds", Arg.Float (fun f -> a.seconds <- f), "S measured wall seconds");
      ("--trace", Arg.Int (fun n -> a.trace <- n <> 0), "0|1 traced per-layer run");
      ("--tiny", Arg.Unit (fun () -> a.tiny <- true), " tiny sizes, for the self-check");
      ( "--incremental-housekeeping",
        Arg.Set incremental_housekeeping,
        " checkpoint in background slices (known-defect probe)" );
    ]
  in
  Arg.parse specs (fun s -> raise (Arg.Bad ("unexpected argument " ^ s))) "perfbench [options]";
  a

(* ---- drills ------------------------------------------------------------ *)

type drills = {
  recover_ms : Samples.t;  (** crash → cold restart → first new commit *)
  recover_reads : Samples.t;  (** disk page reads per cold restart *)
  recover_entries : Samples.t;  (** log entries replayed per cold restart *)
  failover_ms : Samples.t;  (** crash → promotion → first new commit *)
  promote_us : Samples.t;  (** [Pair.promote] alone *)
}

let drills () =
  {
    recover_ms = Samples.create ();
    recover_reads = Samples.create ();
    recover_entries = Samples.create ();
    failover_ms = Samples.create ();
    promote_us = Samples.create ();
  }

(* Drill times are in reference milliseconds (Hostspeed). *)
let cold_restart w d ~s ~restart =
  let before = Hostspeed.probe () in
  let r0 = counter "disk.reads" and e0 = counter "hybrid_rs.recovery_entries" in
  let t0 = wall () in
  restart ();
  let r1 = counter "disk.reads" and e1 = counter "hybrid_rs.recovery_entries" in
  await_commit w [ (s, Samples.count d.recover_reads mod w.cfg.objects) ];
  let dt = wall () -. t0 in
  Samples.add d.recover_ms (Hostspeed.to_reference ~before ~after:(Hostspeed.probe ()) dt *. 1e3);
  Samples.add d.recover_reads (float_of_int (r1 - r0));
  Samples.add d.recover_entries (float_of_int (e1 - e0));
  System.quiesce w.sys

(* Crash → promote the warm standby → first new commit. The pair swaps
   roles; [rejoin] makes the dead primary the next standby. *)
let failover w d p =
  let before = Hostspeed.probe () in
  let t0 = wall () in
  Pair.crash p (Pair.primary p);
  System.quiesce w.sys;
  if not (Pair.promotable p) then Gate.fail "standby not promotable";
  let t1 = wall () in
  ignore (Pair.promote p);
  Samples.add d.promote_us ((wall () -. t1) *. 1e6);
  w.gids.(0) <- Pair.primary p;
  await_commit w [ (0, Samples.count d.promote_us mod w.cfg.objects) ];
  let dt = wall () -. t0 in
  Samples.add d.failover_ms (Hostspeed.to_reference ~before ~after:(Hostspeed.probe ()) dt *. 1e3);
  Pair.rejoin p;
  System.quiesce w.sys

(* The drill world of the update workloads (both have two shards): a
   second world, set up from the same seed on gids past the main one's,
   that runs nothing but the drills. Every drill thus starts from a state
   fixed by the seed and the drills before it, and promotion cost, which
   follows the promoted state (2.5 to 10 ms at the end of runs of
   different lengths, against ±10% on equal states), stays comparable.
   Shard 1 takes the cold restarts, from a fresh checkpoint plus
   [restart_tail] commits — about half the commits between two
   checkpoints; shard 0 gets a warm standby for the promotions. *)
let restart_tail = 400

let drill_world cfg ~seed =
  let w = setup ~base:(cfg.shards + 1) cfg ~seed in
  let s = cfg.shards - 1 and rng = Rng.create (seed + 29) in
  Guardian.housekeep (System.guardian w.sys w.gids.(s)) Core.Hybrid_rs.Snapshot;
  for _ = 1 to restart_tail do
    let i = Rng.int rng cfg.objects in
    await_commit w [ (s, i); (s, (i + 1 + Rng.int rng (cfg.objects - 1)) mod cfg.objects) ]
  done;
  w.pair <- Some (Pair.create ~system:w.sys ~primary:w.gids.(0) ~standby:w.spare ());
  System.quiesce w.sys;
  w

(* Drill [k]: even ones cold-restart shard 1, odd ones promote shard 0's
   standby. *)
let drill dw d k =
  if k mod 2 = 0 then
    let s = dw.cfg.shards - 1 in
    cold_restart dw d ~s ~restart:(fun () ->
        System.crash dw.sys dw.gids.(s);
        ignore (System.restart dw.sys dw.gids.(s)))
  else failover dw d (Option.get dw.pair)

(* ---- traffic ----------------------------------------------------------- *)

type run = {
  world : world;
  tally : tally;
  streams : (unit -> op) array;
  d : drills;
  mutable cycles : int;
  rates : Samples.t;  (** operations per reference second, one per slice *)
  mutable slice_wall : float;  (** start of the open slice *)
  mutable slice_spent : float;  (** [Hostspeed.spent] at its start *)
  mutable slice_probe : float;  (** the probe just before it *)
  mutable slice_ops : int;
}

let new_run w ~seed =
  {
    world = w;
    tally = tally ();
    streams = Array.init w.cfg.clients (fun k -> op_stream w.cfg ~seed ~client:k);
    d = drills ();
    cycles = 0;
    rates = Samples.create ~capacity:4096 ();
    slice_wall = 0.0;
    slice_spent = 0.0;
    slice_probe = 0.0;
    slice_ops = 0;
  }

(* Throughput is sampled in slices of the measured window, each
   bracketed by two probes of the host's speed, so [ops_per_s] can be
   the median of the slices' operations per reference second. Probes and
   drills between slices are not counted; probes inside a slice are
   taken out of its time. *)
let slice_start r ~probe =
  r.slice_wall <- wall ();
  r.slice_spent <- !Hostspeed.spent;
  r.slice_probe <- probe;
  r.slice_ops <- r.tally.completed

(* Close the open slice; returns the probe that closed it. *)
let slice_close r =
  let dt = wall () -. r.slice_wall -. (!Hostspeed.spent -. r.slice_spent) in
  let p = Hostspeed.probe () in
  if dt > 0.0 then
    Samples.add r.rates
      (float_of_int (r.tally.completed - r.slice_ops)
      /. Hostspeed.to_reference ~before:r.slice_probe ~after:p dt);
  p

(* Closed-loop traffic for [vt] virtual time units, then drain. *)
let traffic_for r ~vt =
  let sim = System.sim r.world.sys in
  let stop_at = Sim.now sim +. vt in
  start_clients r.world r.streams r.tally ~continue:(fun () -> Sim.now sim < stop_at);
  System.quiesce r.world.sys

(* The measured window of the update workloads: closed-loop traffic for
   [seconds] wall seconds, then drain. The drill world's
   [2 * drill_pairs] drills are spread evenly over it, between slices;
   the main world stands still while one runs. *)
let traffic_until r dw ~seconds =
  let w = r.world in
  let n = 2 * w.cfg.drill_pairs and k = ref 0 in
  let stopped = ref false in
  start_clients w r.streams r.tally ~continue:(fun () -> not !stopped);
  let t0 = wall () in
  slice_start r ~probe:(Hostspeed.probe ());
  while wall () -. t0 < seconds do
    ignore (System.run ~until:(Sim.now (System.sim w.sys) +. 1.0) w.sys);
    if wall () -. r.slice_wall >= w.cfg.slice_s then begin
      let p = slice_close r in
      if float_of_int !k < float_of_int n *. (wall () -. t0) /. seconds then begin
        drill dw r.d !k;
        incr k;
        slice_start r ~probe:(Hostspeed.probe ())
      end
      else slice_start r ~probe:p
    end
  done;
  stopped := true;
  System.quiesce w.sys;
  while !k < n do
    drill dw r.d !k;
    incr k
  done

(* One restart-failover cycle: a checkpoint, a burst of replicated
   commits, a primary crash, then a cold restart (odd cycles) or a
   promotion and rejoin (even cycles). The recovery's first commit counts
   as an operation. The checkpoint makes every recovery start from a log
   of one burst: without it the log left behind the last checkpoint
   swings between 2100 and 4500 entries over some forty cycles, so the
   cold restarts a run gets to time depend on how far it gets. *)
let cycle r =
  let w = r.world and t = r.tally in
  let p = Option.get w.pair in
  Guardian.housekeep (System.guardian w.sys (Pair.primary p)) Core.Hybrid_rs.Snapshot;
  let quota = t.attempted + w.cfg.burst in
  start_clients w r.streams t ~continue:(fun () -> t.attempted < quota);
  System.quiesce w.sys;
  r.cycles <- r.cycles + 1;
  if r.cycles mod 2 = 1 then
    cold_restart w r.d ~s:0 ~restart:(fun () ->
        Pair.crash p (Pair.primary p);
        System.quiesce w.sys;
        ignore (Pair.restart_primary p))
  else failover w r.d p;
  t.attempted <- t.attempted + 1;
  t.completed <- t.completed + 1;
  t.commits <- t.commits + 1

(* The measured window of restart-failover: pairs of cycles (one cold
   restart, one promotion) for [seconds] wall seconds; a slice is a
   pair. *)
let cycles_until r ~seconds =
  let t0 = wall () in
  slice_start r ~probe:(Hostspeed.probe ());
  while wall () -. t0 < seconds do
    cycle r;
    cycle r;
    slice_start r ~probe:(slice_close r)
  done

(* The deterministic window: fixed virtual time, or fixed cycles. *)
let det_window r ~scale =
  match r.world.cfg.kind with
  | Update_2pc | Read_mostly -> traffic_for r ~vt:(r.world.cfg.det_vt *. scale)
  | Restart_failover ->
      for _ = 1 to max 2 (int_of_float (float_of_int r.world.cfg.det_cycles *. scale)) do
        cycle r
      done

let window_of r m0 = Window.between m0 (Window.mark r.world) ~ops:r.tally.completed ~commits:r.tally.commits

(* End of every run: read everything back, crash and restart every
   guardian, then the final gate. Returns the read-back timings. *)
let finish r =
  let w = r.world in
  let read_back = Gate.read_back w in
  Gate.crash_restart_all w;
  Gate.image_matches_model w ~where:"end of run";
  Gate.no_unresolved w r.tally;
  Gate.storage_ok w;
  Gate.monitors_ok ();
  read_back

(* The drill world ends with the same checks but the read-back. *)
let finish_drills dw =
  Gate.crash_restart_all dw;
  Gate.image_matches_model dw ~where:"drill world";
  Gate.storage_ok dw;
  Gate.monitors_ok ()

(* ---- the timed run ----------------------------------------------------- *)

let quantile ?(tiny = false) name unit_ s q =
  let min_beyond = if q > 0.5 && not tiny then 10 else 0 in
  match Samples.quantile ~min_beyond s q with
  | Some value -> { Window.name; unit_; value; samples = Some (Samples.count s) }
  | None -> Gate.fail "%s: %d samples leave fewer than ten beyond it" name (Samples.count s)

let timed w ~seed ~seconds ~setup_s ~tiny =
  let cfg = w.cfg in
  let r = new_run w ~seed in
  let t = r.tally in
  let m0 = Window.mark w in
  det_window r ~scale:1.0;
  let det = window_of r m0 in
  let det_commit_vt = Samples.copy t.commit_vt in
  let heap_peak = (Gc.quick_stat ()).Gc.top_heap_words in
  let det_reads = Samples.copy r.d.recover_reads in
  let recover_reads =
    match cfg.kind with
    | Update_2pc | Read_mostly ->
        let dw = drill_world cfg ~seed in
        traffic_until r dw ~seconds;
        finish_drills dw;
        r.d.recover_reads
    | Restart_failover ->
        cycles_until r ~seconds;
        det_reads
  in
  ignore (finish r);
  let q = quantile ~tiny in
  let m = Window.metric in
  let open Window in
  Printf.printf "host probe: median %.1f us over %d probes; reference %.1f us\n"
    (Option.get (Samples.median Hostspeed.probes) *. 1e6)
    (Samples.count Hostspeed.probes) (Hostspeed.reference *. 1e6);
  ( r,
    [
      m "setup_s" "s" setup_s;
      q "ops_per_s" "ops/s" r.rates 0.5;
      q "commit_vt_p50" "vt" det_commit_vt 0.5;
      q "commit_vt_p99" "vt" det_commit_vt 0.99;
      m "words_per_op" "words" (det.words /. float_of_int (max 1 det.ops));
      m "completed_ratio" "ratio" (ratio t.completed t.attempted);
      m "disk_writes_per_commit" "count" (per_commit det "disk.writes");
      m "log_bytes_per_user_byte" "ratio"
        (ratio (count det "slog.force_bytes.sum") (det.commits * 2 * cfg.record));
      q "recover_ms_p50" "ms" r.d.recover_ms 0.5;
      q "failover_ms_p50" "ms" r.d.failover_ms 0.5;
      q "recover_page_reads" "count" recover_reads 0.5;
      m "heap_peak_mb" "MiB" (float_of_int (heap_peak * (Sys.word_size / 8)) /. 1048576.0);
    ] )

(* ---- the traced run ---------------------------------------------------- *)

let trace_capacity = 1 lsl 19

let traced ~cfg ~seed =
  (* The same window three times on fresh systems: with the trace ring
     switched off, untraced (the default ring), then traced with a ring
     that holds the whole window. *)
  let window_wall ~ring =
    let w = setup cfg ~seed in
    let r = new_run w ~seed in
    Rs_obs.Trace.set_enabled ring;
    let t0 = wall () in
    det_window r ~scale:cfg.trace_scale;
    let dt = wall () -. t0 in
    Rs_obs.Trace.set_enabled true;
    (r, dt)
  in
  let _, ring_off_wall = window_wall ~ring:false in
  let r1, untraced_wall = window_wall ~ring:true in
  let w = setup cfg ~seed in
  let r = new_run w ~seed in
  Rs_obs.Trace.set_capacity trace_capacity;
  let m0 = Window.mark w and t0 = wall () in
  det_window r ~scale:cfg.trace_scale;
  let traced_wall = wall () -. t0 in
  let win = window_of r m0 in
  let split = Layers.vt_split (Rs_obs.Trace.events ()) in
  Rs_obs.Trace.set_capacity 8192;
  if r.tally.completed <> r1.tally.completed then
    Gate.fail "same seed, different work: %d vs %d operations" r.tally.completed r1.tally.completed;
  let g0 = System.guardian w.sys w.gids.(0) in
  let dir = Core.Hybrid_rs.dir (Guardian.rs g0) in
  let log = Rs_slog.Log_dir.current dir in
  let header_bytes =
    match Rs_storage.Stable_store.get (Rs_slog.Stable_log.store log) 0 with
    | Some h -> String.length h
    | None -> 0
  in
  let live_segments = Rs_slog.Log_dir.live_segments dir in
  let applied_entries =
    match Option.bind w.pair Pair.replica with
    | Some rep -> Rs_repl.Repl.Replica.applied_entries rep
    | None -> 0
  in
  let replay =
    Layers.replay w ~entries_per_force:(Window.ratio (Window.count win "slog.writes") (Window.count win "slog.forces"))
  in
  if cfg.kind <> Restart_failover then begin
    let dw = drill_world cfg ~seed in
    drill dw r.d 0;
    drill dw r.d 1;
    finish_drills dw
  end;
  let read_back = finish r in
  let t = r.tally in
  let lookups =
    (* Every update looks up 2 objects, every read [read_width]. *)
    let reads = Samples.count t.read_us in
    float_of_int ((2 * (t.completed - reads)) + (read_width * reads))
    /. float_of_int (max 1 t.completed)
  in
  let per_op wall_s = wall_s *. 1e6 /. float_of_int (max 1 win.Window.ops) in
  let median s = Option.value ~default:0.0 (Samples.median s) in
  ( r,
    Layers.report
      {
        Layers.win;
        split;
        replay;
        lookups_per_op = lookups;
        wall_us_per_op = per_op untraced_wall;
        overhead = (traced_wall /. untraced_wall) -. 1.0;
        ring_cost = (untraced_wall /. ring_off_wall) -. 1.0;
        header_bytes;
        live_segments;
        chain_len_max = Metrics.gauge_value (Metrics.gauge "mvcc.chain_len");
        applied_entries;
        recovery_entries = median r.d.recover_entries;
        promote_us = median r.d.promote_us;
        read_action_us = median (if Samples.count t.read_us > 0 then t.read_us else read_back);
      } )

(* ---- output ------------------------------------------------------------ *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed (metrics : Window.metric list) =
  List.iter
    (fun (m : Window.metric) ->
      Printf.printf "%-34s %18.6f %-6s%s\n" m.name m.value m.unit_
        (match m.samples with Some n -> Printf.sprintf "  (n=%d)" n | None -> ""))
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (m : Window.metric) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let () =
  let a = parse_args () in
  let cfg =
    match config ~tiny:a.tiny a.workload with
    | Some c -> c
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ a.workload);
        exit 2
  in
  match
    if a.trace then traced ~cfg ~seed:a.seed
    else begin
      (* Set up [setups] times; [setup_s] is the median, in reference
         seconds. *)
      let times = Samples.create () in
      let w = ref None in
      for _ = 1 to setups do
        w := None;
        Gc.full_major ();
        let before = Hostspeed.probe () in
        let t0 = wall () in
        let x = setup cfg ~seed:a.seed in
        let dt = wall () -. t0 in
        Samples.add times (Hostspeed.to_reference ~before ~after:(Hostspeed.probe ()) dt);
        w := Some x
      done;
      timed (Option.get !w) ~seed:a.seed ~seconds:a.seconds
        ~setup_s:(Option.get (Samples.median times)) ~tiny:a.tiny
    end
  with
  | r, metrics when List.exists (fun (m : Window.metric) -> not (Float.is_finite m.value)) metrics ->
      let m = List.find (fun (m : Window.metric) -> not (Float.is_finite m.value)) metrics in
      Printf.printf "VIOLATION: %s is not a finite number\n" m.name;
      print_result ~correct:false ~attempted:(max 1 r.tally.attempted) ~failed:r.tally.failed [];
      exit 1
  | r, metrics ->
      print_result ~correct:true ~attempted:r.tally.attempted ~failed:r.tally.failed metrics
  | exception e ->
      (* A gate violation, or any exception out of the system under test:
         either way the run's outputs are not known to be correct. *)
      let why = match e with Gate.Violation why -> why | e -> Printexc.to_string e in
      Printf.printf "VIOLATION: %s\n" why;
      print_result ~correct:false ~attempted:1 ~failed:1 [];
      exit 1
