(* The three benchmark workloads, driven from outside the program through
   its public entry points: [System.submit] with [Action.on_resolve],
   read-only snapshot actions, [System.crash]/[restart],
   [Repl.Pair.promote]/[rejoin] and [Guardian.set_auto_housekeeping].

   Every object is a stable variable "o<i>" bound to an atomic object
   holding [Tup [| Int count; Str payload |]]. An update increments the
   count and installs the payload drawn for the new count, so the
   benchmark's model (the number of committed updates per object) fixes
   the whole committed image, payload bytes included. *)

module System = Rs_guardian.System
module Guardian = Rs_guardian.Guardian
module Action = Rs_guardian.Action
module Heap = Rs_objstore.Heap
module Value = Rs_objstore.Value
module Sim = Rs_sim.Sim
module Metrics = Rs_obs.Metrics
module Gid = Rs_util.Gid
module Rng = Rs_util.Rng
module Pair = Rs_repl.Repl.Pair

(* Wall-clock seconds from the monotonic clock, with nanosecond grain. *)
let wall () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ---- configuration ---------------------------------------------------- *)

type kind = Update_2pc | Read_mostly | Restart_failover

type config = {
  kind : kind;
  shards : int;  (** guardians holding objects *)
  objects : int;  (** per shard *)
  record : int;  (** payload bytes per object *)
  clients : int;
  read_frac : float;  (** share of read-only actions *)
  det_vt : float;
      (** virtual time of the deterministic window (update workloads) *)
  burst : int;  (** commits per cycle (restart-failover) *)
  det_cycles : int;  (** cycles in the deterministic window *)
  trace_scale : float;  (** traced window, as a share of the deterministic one *)
  history : int;  (** warm-up commits before measuring *)
  slice_s : float;  (** wall seconds per throughput slice *)
  drill_pairs : int;
      (** cold restarts, and as many promotions, spread over the measured
          window of the update workloads *)
}

let hk_threshold = 1 lsl 20
let think = 1.0
let read_width = 8 (* objects per read-only action *)
let setups = 5 (* set-ups per timed run; [setup_s] is a median of them *)

(* Message latency is 1.0 time unit plus up to [jitter]: enough spread
   that virtual-time latencies are not a handful of exact values. *)
let jitter = 0.25
let payload_pool = 64

let base =
  {
    kind = Update_2pc;
    shards = 2;
    objects = 256;
    record = 512;
    clients = 16;
    read_frac = 0.0;
    det_vt = 0.0;
    burst = 0;
    det_cycles = 0;
    trace_scale = 0.25;
    history = 0;
    slice_s = 0.1;
    drill_pairs = 32;
  }

let config ~tiny name =
  let tiny_trace c = if tiny then { c with trace_scale = 1.0; slice_s = 0.02; drill_pairs = 4 } else c in
  Option.map tiny_trace
  @@
  match name with
  | "update-2pc" ->
      Some { base with det_vt = (if tiny then 20.0 else 2000.0); history = (if tiny then 50 else 2000) }
  | "read-mostly" ->
      Some
        {
          base with
          kind = Read_mostly;
          objects = (if tiny then 128 else 2048);
          record = 64;
          clients = 32;
          read_frac = 0.95;
          det_vt = (if tiny then 20.0 else 850.0);
          trace_scale = 0.2;
          history = (if tiny then 20 else 500);
        }
  | "restart-failover" ->
      Some
        {
          base with
          kind = Restart_failover;
          shards = 1;
          objects = (if tiny then 64 else 1024);
          burst = (if tiny then 20 else 200);
          det_cycles = (if tiny then 2 else 10);
          trace_scale = 0.4;
          history = (if tiny then 50 else 1000);
        }
  | _ -> None

(* ---- inputs ----------------------------------------------------------- *)

type op = Update of (int * int) list | Read of (int * int) list
(* (shard, object index) pairs, sorted: every action takes its locks in one
   global order, so closed-loop clients never deadlock and no operation
   aborts on a wait timeout. *)

let payloads ~seed ~record =
  let rng = Rng.create (seed * 7919 + 1) in
  Array.init payload_pool (fun _ -> String.init record (fun _ -> Char.chr (97 + Rng.int rng 26)))

let payload_for pool ~idx ~count = pool.((count + idx) mod Array.length pool)

let name i = "o" ^ string_of_int i
let value pool ~idx ~count = Value.Tup [| Value.Int count; Value.Str (payload_for pool ~idx ~count) |]

(* One client's input stream: a function of the workload seed and the
   client number only. *)
let op_stream cfg ~seed ~client =
  let rng = Rng.create ((seed * 1_000_003) + client) in
  let draw () = (Rng.int rng cfg.shards, Rng.int rng cfg.objects) in
  let rec distinct n acc =
    if n = 0 then List.sort compare acc
    else
      let o = draw () in
      if List.mem o acc then distinct n acc else distinct (n - 1) (o :: acc)
  in
  fun () ->
    if cfg.read_frac > 0.0 && Rng.bool rng cfg.read_frac then
      let per = read_width / cfg.shards in
      Read
        (List.concat_map
           (fun s ->
             let rec pick k acc =
               if k = 0 then acc
               else
                 let i = Rng.int rng cfg.objects in
                 if List.mem (s, i) acc then pick k acc else pick (k - 1) ((s, i) :: acc)
             in
             List.sort compare (pick per []))
           (List.init cfg.shards Fun.id))
    else Update (distinct 2 [])

(* ---- samples ---------------------------------------------------------- *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create ?(capacity = 256) () = { a = Array.make capacity 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n
  let copy t = { a = Array.sub t.a 0 (max 1 t.n); n = t.n }

  (* Exact nearest-rank quantile over the raw samples. [None] when fewer
     than [min_beyond] samples lie above the quantile's rank, so a tail
     quantile is never read off a handful of points. *)
  let quantile ?(min_beyond = 0) t q =
    if t.n = 0 then None
    else begin
      let s = Array.sub t.a 0 t.n in
      Array.sort Float.compare s;
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.n))) in
      if t.n - rank < min_beyond then None else Some s.(rank - 1)
    end

  let median t = quantile t 0.5
end

(* ---- the system under test ------------------------------------------- *)

type world = {
  cfg : config;
  sys : System.t;
  pool : string array;
  model : int array array;  (** committed updates per (shard, object) *)
  gids : Gid.t array;  (** shard -> current serving guardian *)
  spare : Gid.t;  (** the guardian past the shards: a warm standby *)
  mutable pair : Pair.t option;
}

let counter name = Option.value ~default:0 (Metrics.find_counter Metrics.default name)

let obj_addr heap i =
  match Heap.get_stable_var heap (name i) with
  | Some (Value.Ref a) -> a
  | Some _ | None -> failwith ("perfbench: missing object " ^ name i)

let count_of pool ~idx = function
  | Value.Tup [| Value.Int c; Value.Str p |] when String.equal p (payload_for pool ~idx ~count:c)
    ->
      c
  | v -> failwith (Format.asprintf "perfbench: object o%d holds %a" idx Value.pp v)

let update_work pool idxs : System.work =
 fun heap aid ->
  List.iter
    (fun idx ->
      let a = obj_addr heap idx in
      Heap.write_lock heap aid a;
      let c = count_of pool ~idx (Heap.read_atomic heap aid a) in
      Heap.set_current heap aid a (value pool ~idx ~count:(c + 1)))
    idxs

let read_work pool s idxs check : System.work =
 fun heap aid ->
  match Heap.read_only_of heap aid with
  | None -> failwith "perfbench: read step outside a read-only action"
  | Some snap ->
      List.iter
        (fun idx ->
          match Heap.snapshot_var heap snap (name idx) with
          | Some (Value.Ref a) -> check s idx (count_of pool ~idx (Heap.read_atomic heap aid a))
          | Some _ | None -> failwith ("perfbench: snapshot lost " ^ name idx))
        idxs

let group objs =
  let shards = List.sort_uniq compare (List.map fst objs) in
  List.map (fun s -> (s, List.filter_map (fun (s', i) -> if s = s' then Some i else None) objs)) shards

let steps w objs mk = List.map (fun (s, idxs) -> (w.gids.(s), mk s idxs)) (group objs)

let submit_update w objs =
  let st = steps w objs (fun _ idxs -> update_work w.pool idxs) in
  System.submit w.sys ~coordinator:(fst (List.hd st)) ~steps:st

let commit_model w objs = List.iter (fun (s, i) -> w.model.(s).(i) <- w.model.(s).(i) + 1) objs

let await_commit w objs =
  match System.await w.sys (submit_update w objs) with
  | System.Committed -> commit_model w objs
  | System.Aborted -> failwith "perfbench: a serial update aborted"

(* A read-only snapshot action over [objs]; returns its wall time in µs. *)
let read_action w objs check =
  let st = steps w objs (fun s idxs -> read_work w.pool s idxs check) in
  let t0 = wall () in
  let h = System.submit ~mode:System.Read_only w.sys ~coordinator:(fst (List.hd st)) ~steps:st in
  let dt = wall () -. t0 in
  if Action.outcome h <> Some Action.Committed then failwith "perfbench: read-only action failed";
  dt *. 1e6

let populate w s =
  let batch = 32 in
  let g = w.gids.(s) in
  let i = ref 0 in
  while !i < w.cfg.objects do
    let lo = !i and hi = min w.cfg.objects (!i + batch) in
    let work : System.work =
     fun heap aid ->
      for idx = lo to hi - 1 do
        let a = Heap.alloc_atomic heap ~creator:aid (value w.pool ~idx ~count:0) in
        Heap.set_stable_var heap aid (name idx) (Value.Ref a)
      done
    in
    (match System.await w.sys (System.submit w.sys ~coordinator:g ~steps:[ (g, work) ]) with
    | System.Committed -> ()
    | System.Aborted -> failwith "perfbench: populate aborted");
    i := hi
  done;
  (* Participants install the last batch when its commit message lands. *)
  System.quiesce w.sys

(* Checkpoints run in the triggering commit. The incremental mode (a
   background fiber of slices) writes logs that [Core.Log_check] rejects
   — see "Known defect" in README.md — so it is only a self-check probe. *)
let incremental_housekeeping = ref false

let housekeeping sys g =
  let slice = if !incremental_housekeeping then Some (64, 0.5) else None in
  Guardian.set_auto_housekeeping (System.guardian sys g) ~threshold_bytes:hk_threshold ?slice
    (Some Core.Hybrid_rs.Snapshot)

(* Build, populate and warm up. Every world gets one spare guardian past
   the shards; restart-failover makes it the primary's warm standby.
   Shard [s] lives on gid [base + s]: a second world in the same process
   takes gids past the first one's, so the trace labels of the two never
   meet in the ring the spec monitors read. *)
let setup ?(base = 0) cfg ~seed =
  let n = base + cfg.shards + 1 in
  let sys = System.create ~seed ~jitter ~n () in
  List.iter (fun g -> housekeeping sys (Guardian.gid g)) (System.guardians sys);
  let w =
    {
      cfg;
      sys;
      pool = payloads ~seed ~record:cfg.record;
      model = Array.init cfg.shards (fun _ -> Array.make cfg.objects 0);
      gids = Array.init cfg.shards (fun s -> Gid.of_int (base + s));
      spare = Gid.of_int (base + cfg.shards);
      pair = None;
    }
  in
  for s = 0 to cfg.shards - 1 do
    populate w s
  done;
  if cfg.kind = Restart_failover then
    w.pair <- Some (Pair.create ~system:sys ~primary:w.gids.(0) ~standby:w.spare ());
  let warm = Rng.create (seed + 17) in
  for _ = 1 to cfg.history do
    let draw () = (Rng.int warm cfg.shards, Rng.int warm cfg.objects) in
    let rec two () =
      let a = draw () and b = draw () in
      if a = b then two () else List.sort compare [ a; b ]
    in
    await_commit w (two ())
  done;
  System.quiesce sys;
  w

(* ---- closed-loop traffic --------------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable completed : int;
  mutable commits : int;
  commit_vt : Samples.t;
  read_us : Samples.t;
}

let tally () =
  {
    attempted = 0;
    failed = 0;
    completed = 0;
    commits = 0;
    commit_vt = Samples.create ();
    read_us = Samples.create ();
  }

(* Start [cfg.clients] closed-loop clients. Each submits its next action
   [think] time units after the previous one resolved, until [continue]
   says stop (checked before every submission). Aborts and refusals count
   as failures and are not retried. *)
let start_clients w streams (t : tally) ~continue =
  let sim = System.sim w.sys in
  let check s idx c =
    if c < 0 || c > w.model.(s).(idx) + w.cfg.clients then
      failwith (Printf.sprintf "perfbench: read o%d = %d, model %d" idx c w.model.(s).(idx))
  in
  let rec loop k () =
    if continue () then begin
      t.attempted <- t.attempted + 1;
      let next () = Sim.schedule sim ~delay:think (loop k) in
      match streams.(k) () with
      | Read objs ->
          (* Snapshot reads see only committed counts; a count may run
             ahead of the model by the updates whose verdicts are still
             travelling to their clients. *)
          Samples.add t.read_us (read_action w objs check);
          t.completed <- t.completed + 1;
          next ()
      | Update objs -> (
          match submit_update w objs with
          | h ->
              Action.on_resolve h (fun h outcome ->
                  (match outcome with
                  | Action.Committed ->
                      commit_model w objs;
                      t.completed <- t.completed + 1;
                      t.commits <- t.commits + 1;
                      Samples.add t.commit_vt (Option.get (Action.latency h))
                  | Action.Aborted -> t.failed <- t.failed + 1);
                  next ())
          | exception (System.Overloaded _ | System.Guardian_down _) ->
              t.failed <- t.failed + 1;
              next ())
    end
  in
  for k = 0 to w.cfg.clients - 1 do
    Sim.schedule sim ~delay:(float_of_int k *. 0.01) (loop k)
  done
