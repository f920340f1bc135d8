(* The correctness gate every run passes through. Any violation raises
   [Violation]; the run then reports [correct = false]. *)

open Workload

exception Violation of string

let fail fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

(* The committed image of [shard], read through one snapshot. *)
let image w s =
  let heap = Guardian.heap (System.guardian w.sys w.gids.(s)) in
  Heap.with_snapshot heap (fun snap ->
      Array.init w.cfg.objects (fun idx ->
          match Heap.snapshot_var heap snap (name idx) with
          | Some (Value.Ref a) -> count_of w.pool ~idx (Heap.snapshot_read heap snap a)
          | Some _ | None -> fail "shard %d lost %s" s (name idx)))

let image_matches_model w ~where =
  for s = 0 to w.cfg.shards - 1 do
    let img = image w s in
    Array.iteri
      (fun idx c ->
        if c <> w.model.(s).(idx) then
          fail "%s: shard %d %s = %d, model says %d" where s (name idx) c w.model.(s).(idx))
      img
  done

(* Read every object back through read-only snapshot actions of
   [read_width] objects, each compared exactly with the model. Returns the
   wall µs of each action. *)
let read_back w =
  let us = Samples.create () in
  let check s idx c =
    if c <> w.model.(s).(idx) then
      fail "read-back: shard %d %s = %d, model says %d" s (name idx) c w.model.(s).(idx)
  in
  let per = max 1 (read_width / w.cfg.shards) in
  let lo = ref 0 in
  while !lo < w.cfg.objects do
    let hi = min w.cfg.objects (!lo + per) in
    let objs =
      List.concat_map
        (fun s -> List.init (hi - !lo) (fun k -> (s, !lo + k)))
        (List.init w.cfg.shards Fun.id)
    in
    Samples.add us (read_action w objs check);
    lo := hi
  done;
  us

let no_unresolved w (t : tally) =
  List.iter
    (fun g ->
      let n = System.in_flight w.sys (Guardian.gid g) in
      if n <> 0 then fail "%d unresolved handles on G%d" n (Gid.to_int (Guardian.gid g)))
    (System.guardians w.sys);
  if t.attempted <> t.completed + t.failed then
    fail "%d operations attempted, %d completed, %d failed" t.attempted t.completed t.failed

(* Log structure and two-copy agreement on every guardian that is up. The
   directory is the recovery system's: a restart reopens it, and only the
   reopened handle knows the segments allocated since. *)
let storage_ok w =
  List.iter
    (fun g ->
      let gid = Gid.to_int (Guardian.gid g) in
      let dir = Core.Hybrid_rs.dir (Guardian.rs g) in
      if Guardian.is_up g then begin
        (match
           try Core.Log_check.check_log (Rs_slog.Log_dir.current dir)
           with e -> fail "G%d log unreadable: %s" gid (Printexc.to_string e)
         with
        | [] -> ()
        | i :: _ -> fail "G%d log: %s" gid (Format.asprintf "%a" Core.Log_check.pp_issue i));
        match Core.Log_check.check_segments dir with
        | [] -> ()
        | i :: _ -> fail "G%d segments: %s" gid (Format.asprintf "%a" Core.Log_check.pp_issue i)
      end;
      List.iter
        (fun st ->
          match Rs_storage.Stable_store.agreement_issues st with
          | [] -> ()
          | (p, why) :: _ -> fail "G%d page %d: %s" gid p why)
        (Rs_slog.Log_dir.stores dir))
    (System.guardians w.sys)

let monitors_ok () =
  match Rs_obs.Monitor.check () with
  | [] -> ()
  | v :: _ -> fail "monitor %s" (Format.asprintf "%a" Rs_obs.Monitor.pp_violation v)

(* Crash and restart every guardian, the pair's through the pair; each
   shard must come back with exactly the committed image it had. *)
let crash_restart_all w =
  let before = Array.init w.cfg.shards (image w) in
  let paired =
    match w.pair with
    | Some p ->
        let pg = [ Pair.primary p; Pair.standby p ] in
        Pair.crash p (Pair.primary p);
        System.quiesce w.sys;
        ignore (Pair.restart_primary p);
        Pair.crash p (Pair.standby p);
        Pair.restart_standby p;
        pg
    | None -> []
  in
  List.iter
    (fun g ->
      let gid = Guardian.gid g in
      if not (List.exists (Gid.equal gid) paired) then begin
        System.crash w.sys gid;
        ignore (System.restart w.sys gid)
      end)
    (System.guardians w.sys);
  System.quiesce w.sys;
  Array.iteri
    (fun s img ->
      if image w s <> img then fail "shard %d recovered a different committed image" s)
    before
