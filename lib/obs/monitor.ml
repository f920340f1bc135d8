(* Always-on spec monitors over the trace ring (ROADMAP item 5). *)

type violation = { monitor : string; detail : string }

let pp_violation fmt v = Format.fprintf fmt "[%s] %s" v.monitor v.detail

(* commit-implies-durable: every [Action_commit {gid}] must be followed by a
   [Log_force] on that guardian's log — the commit record is appended and
   forced only after the hook fires, so a quiesced run always shows the
   covering force later in the ring. A later [Crash {gid}] forgives a missing
   force: the commit died unacknowledged with the guardian. Sound under ring
   truncation because the force always carries a higher sequence number than
   the commit it covers. *)
let commit_implies_durable_on records =
  (* Scan backward: remember, per guardian label, whether a force or crash
     has been seen later in the ring. *)
  let forced : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let violations = ref [] in
  List.iter
    (fun (r : Trace.record) ->
      match r.event with
      | Trace.Log_force { log; _ } when log <> "" -> Hashtbl.replace forced log ()
      | Trace.Crash { gid } -> Hashtbl.replace forced gid ()
      | Trace.Action_commit { gid; aid } ->
          if not (Hashtbl.mem forced gid) then
            violations :=
              {
                monitor = "commit-implies-durable";
                detail =
                  Printf.sprintf "commit of %s on %s (seq %d) has no covering log force" aid gid
                    r.seq;
              }
              :: !violations
      | _ -> ())
    (List.rev records);
  !violations

(* repl-ship-order: the replication stream must respect the epoch fence —
   per (src,dst) pair, shipped epochs never go backward, and per standby the
   applied epochs never go backward either. The applied watermark must be
   monotone within an epoch, except across a standby crash or a reset ship
   (base 0 re-seeds the replica after a housekeeping log switch). *)
let repl_ship_order_on records =
  let ship_epoch : (string * string, int) Hashtbl.t = Hashtbl.create 8 in
  let apply_state : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
  (* gid -> (epoch, watermark) *)
  (* gid -> watermark the replica had reached when a reset ship (or crash)
     granted forgiveness: the re-seed replays the stream from base 0, so
     applies may run below that mark — possibly over several applies — and
     forgiveness holds until the watermark re-passes it. *)
  let reset_ok : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let forgive gid =
    let w = match Hashtbl.find_opt apply_state gid with Some (_, w) -> w | None -> 0 in
    Hashtbl.replace reset_ok gid w
  in
  let violations = ref [] in
  let bad monitor fmt = Printf.ksprintf (fun detail -> violations := { monitor; detail } :: !violations) fmt in
  List.iter
    (fun (r : Trace.record) ->
      match r.event with
      | Trace.Repl_ship { src; dst; epoch; base; _ } ->
          (match Hashtbl.find_opt ship_epoch (src, dst) with
          | Some e when epoch < e ->
              bad "repl-ship-order" "ship %s->%s epoch went backward %d -> %d (seq %d)" src dst e
                epoch r.seq
          | _ -> ());
          Hashtbl.replace ship_epoch (src, dst) epoch;
          if base = 0 then forgive dst
      | Trace.Crash { gid } -> forgive gid
      | Trace.Repl_apply { gid; epoch; watermark; _ } ->
          (match Hashtbl.find_opt apply_state gid with
          | Some (e, _) when epoch < e ->
              bad "repl-ship-order" "apply on %s epoch went backward %d -> %d (seq %d)" gid e
                epoch r.seq
          | Some (e, w) when epoch = e && watermark < w && not (Hashtbl.mem reset_ok gid) ->
              bad "repl-ship-order" "apply watermark on %s went backward %d -> %d (seq %d)" gid w
                watermark r.seq
          | _ -> ());
          (match Hashtbl.find_opt reset_ok gid with
          | Some threshold when watermark >= threshold -> Hashtbl.remove reset_ok gid
          | Some _ | None -> ());
          Hashtbl.replace apply_state gid (epoch, watermark)
      | _ -> ())
    records;
  List.rev !violations

(* log-monotonicity: within one labeled log stream, append addresses are
   strictly increasing. [Log_switch] on a label forgives — the stream behind
   it legitimately restarted (fresh pending log, housekeeping switch,
   relabel). [Crash {gid}] forgives every stream the guardian owned ([gid]
   itself and any [gid:...] sub-stream): its pending log is discarded and
   recovery may rebuild from scratch. Sound under ring truncation: losing
   old writes only loses violations, never invents one, because each check
   relates a write to the latest {e earlier surviving} write of the same
   label. *)
let log_monotonic_on records =
  let last : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let owned_by gid label =
    label = gid
    || String.length label > String.length gid
       && String.sub label 0 (String.length gid + 1) = gid ^ ":"
  in
  let violations = ref [] in
  List.iter
    (fun (r : Trace.record) ->
      match r.event with
      | Trace.Log_write { log; addr; _ } when log <> "" ->
          (match Hashtbl.find_opt last log with
          | Some prev when addr <= prev ->
              violations :=
                {
                  monitor = "log-monotonicity";
                  detail =
                    Printf.sprintf "log %s address went backward %d -> %d (seq %d)" log prev addr
                      r.seq;
                }
                :: !violations
          | _ -> ());
          Hashtbl.replace last log addr
      | Trace.Log_switch { log } -> Hashtbl.remove last log
      | Trace.Crash { gid } ->
          let doomed =
            Hashtbl.fold (fun label _ acc -> if owned_by gid label then label :: acc else acc) last
              []
          in
          List.iter (Hashtbl.remove last) doomed
      | _ -> ())
    records;
  List.rev !violations

(* lock-legality: the Argus lock model over [Lock_*] events, per labeled
   heap (bare heaps — label "" — are skipped; mutexes never emit
   acquire/release so possession is out of scope here).

   Two rules at every [Lock_acquire]:
   - {e compatibility}: a write grant admits no other holder; a read grant
     admits no write holder. The grantee's own prior read lock is exempt
     (sole-reader in-place upgrade, idempotent re-acquire).
   - {e no barging}: a grant that did not come off the wait queue must not
     overtake a queued write-waiter of another action (readers may batch
     past queued readers; writers and upgraders queue at the front and are
     [was_queued] when served). This rule needs the full queue history, so
     it is checked only when the ring has not wrapped — a truncated
     [Lock_wait] would otherwise turn a legitimate queue-served grant into
     a phantom direct one.

   [Lock_cancel] (timeout/crash cleanup) removes the waiter before
   successors are served; [Lock_timeout] is informational. [Crash {gid}]
   clears all of that heap's state — the heap object is discarded.
   Releases and cancels for unknown parties are ignored: recovery re-grants
   write locks silently, so their completion-time releases have no visible
   acquire. Sound under truncation by the suffix property: if an acquire
   survives, every later release/cancel of the same ring survives too. *)
let lock_legal_on records =
  let wrapped = match records with [] -> false | (r : Trace.record) :: _ -> r.seq > 0 in
  (* (heap, addr) -> holder list [(aid, kind)] / waiter list [(aid, write)] *)
  let holders : (string * int, (string * Trace.lock_kind) list) Hashtbl.t = Hashtbl.create 64 in
  let waiters : (string * int, (string * bool) list) Hashtbl.t = Hashtbl.create 64 in
  let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:[] in
  let violations = ref [] in
  let bad fmt =
    Printf.ksprintf
      (fun detail -> violations := { monitor = "lock-legality"; detail } :: !violations)
      fmt
  in
  List.iter
    (fun (r : Trace.record) ->
      match r.event with
      | Trace.Lock_wait { heap; aid; addr; write; _ } when heap <> "" ->
          let k = (heap, addr) in
          Hashtbl.replace waiters k (get waiters k @ [ (aid, write) ])
      | Trace.Lock_cancel { heap; aid; addr } when heap <> "" ->
          let k = (heap, addr) in
          Hashtbl.replace waiters k (List.filter (fun (a, _) -> a <> aid) (get waiters k))
      | Trace.Lock_release { heap; aid; addr } when heap <> "" ->
          let k = (heap, addr) in
          Hashtbl.replace holders k (List.filter (fun (a, _) -> a <> aid) (get holders k))
      | Trace.Crash { gid } ->
          let clear tbl =
            let doomed =
              Hashtbl.fold (fun (h, a) _ acc -> if h = gid then (h, a) :: acc else acc) tbl []
            in
            List.iter (Hashtbl.remove tbl) doomed
          in
          clear holders;
          clear waiters
      | Trace.Lock_acquire { heap; aid; addr; kind } when heap <> "" ->
          let k = (heap, addr) in
          let hs = get holders k in
          let others = List.filter (fun (a, _) -> a <> aid) hs in
          let self_upgrade = kind = Trace.Write && List.mem (aid, Trace.Read) hs in
          (match kind with
          | Trace.Write ->
              if others <> [] then
                bad "%s: write grant to %s on addr %d overlaps holder(s) %s (seq %d)" heap aid
                  addr
                  (String.concat "," (List.map fst others))
                  r.seq
          | Trace.Read ->
              if List.exists (fun (_, kd) -> kd = Trace.Write) others then
                bad "%s: read grant to %s on addr %d overlaps write holder %s (seq %d)" heap aid
                  addr
                  (fst (List.find (fun (_, kd) -> kd = Trace.Write) others))
                  r.seq);
          let ws = get waiters k in
          let was_queued = List.exists (fun (a, _) -> a = aid) ws in
          if
            (not wrapped) && (not was_queued) && (not self_upgrade)
            && List.exists (fun (a, w) -> a <> aid && w) ws
          then
            bad "%s: direct %s grant to %s on addr %d barged past queued writer %s (seq %d)" heap
              (match kind with Trace.Read -> "read" | Trace.Write -> "write")
              aid addr
              (fst (List.find (fun (a, w) -> a <> aid && w) ws))
              r.seq;
          Hashtbl.replace waiters k (List.filter (fun (a, _) -> a <> aid) ws);
          let hs' =
            match kind with
            | Trace.Write -> (aid, Trace.Write) :: others
            | Trace.Read -> if List.mem (aid, Trace.Read) hs then hs else (aid, Trace.Read) :: hs
          in
          Hashtbl.replace holders k hs'
      | _ -> ())
    records;
  List.rev !violations

(* handle-liveness: every [Handle_submit] is eventually matched by a
   [Handle_resolve] — the funnel all submitted actions pass through,
   including presumed-abort orphan resolution after a coordinator restart.
   Only meaningful once the system has quiesced with every guardian up: if
   any crashed guardian never came back (no later [Restart] and no
   [Repl_promote] naming it), its in-flight handles legitimately dangle and
   the whole check abstains. Sound under truncation: a surviving submit's
   resolve is later and survives with it; a handle whose submit was
   truncated is simply not tracked. *)
let handle_liveness_on records =
  let pending : (string, string * int) Hashtbl.t = Hashtbl.create 64 in
  (* aid -> (gid, seq) *)
  let down : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (r : Trace.record) ->
      match r.event with
      | Trace.Handle_submit { gid; aid } -> Hashtbl.replace pending aid (gid, r.seq)
      | Trace.Handle_resolve { aid; _ } -> Hashtbl.remove pending aid
      | Trace.Crash { gid } -> Hashtbl.replace down gid ()
      | Trace.Restart { gid; _ } -> Hashtbl.remove down gid
      | Trace.Repl_promote { for_; _ } -> Hashtbl.remove down for_
      | _ -> ())
    records;
  if Hashtbl.length down > 0 then []
  else
    Hashtbl.fold
      (fun aid (gid, seq) acc ->
        {
          monitor = "handle-liveness";
          detail = Printf.sprintf "handle %s on %s (seq %d) never resolved" aid gid seq;
        }
        :: acc)
      pending []
    |> List.sort (fun a b -> compare a.detail b.detail)

(* snapshot-legality: every MVCC read must return the version a serial
   order at its stamp would — over [Version_install]/[Snap_read] events,
   per labeled heap (bare heaps, label "", are skipped). Two rules at each
   [Snap_read {stamp; vstamp}] on (heap, addr):
   - no version from the future: [vstamp <= stamp];
   - no {e skipped} install: no earlier-observed [Version_install] on the
     same object satisfies [vstamp < install <= stamp] — that newer
     version, still at or before the snapshot stamp, is what a serial
     execution paused at the stamp would show.
   [Crash {gid}] clears the heap's install history: stamps are volatile
   and the replacement heap restarts its commit sequence at zero. Sound
   under ring truncation: each rule relates a read to the event itself or
   to earlier installs, so losing old installs can only hide a violation,
   never invent one. *)
let snapshot_legal_on records =
  let installs : (string * int, int list) Hashtbl.t = Hashtbl.create 64 in
  let violations = ref [] in
  let bad fmt =
    Printf.ksprintf
      (fun detail -> violations := { monitor = "snapshot-legality"; detail } :: !violations)
      fmt
  in
  List.iter
    (fun (r : Trace.record) ->
      match r.event with
      | Trace.Version_install { heap; addr; stamp; _ } when heap <> "" ->
          let k = (heap, addr) in
          let prev = Option.value (Hashtbl.find_opt installs k) ~default:[] in
          Hashtbl.replace installs k (stamp :: prev)
      | Trace.Crash { gid } ->
          let doomed =
            Hashtbl.fold (fun (h, a) _ acc -> if h = gid then (h, a) :: acc else acc) installs []
          in
          List.iter (Hashtbl.remove installs) doomed
      | Trace.Snap_read { heap; addr; stamp; vstamp } when heap <> "" ->
          if vstamp > stamp then
            bad "%s: snap read of addr %d at stamp %d returned future version %d (seq %d)" heap
              addr stamp vstamp r.seq
          else begin
            match Hashtbl.find_opt installs (heap, addr) with
            | Some sts -> (
                match List.find_opt (fun st -> vstamp < st && st <= stamp) sts with
                | Some newer ->
                    bad
                      "%s: snap read of addr %d at stamp %d returned version %d, skipping \
                       install %d (seq %d)"
                      heap addr stamp vstamp newer r.seq
                | None -> ())
            | None -> ()
          end
      | _ -> ())
    records;
  List.rev !violations

let check () =
  let rs = Trace.events () in
  commit_implies_durable_on rs @ repl_ship_order_on rs @ log_monotonic_on rs @ lock_legal_on rs
  @ handle_liveness_on rs @ snapshot_legal_on rs

let assert_ok ~where () =
  match check () with
  | [] -> ()
  | vs ->
      let buf = Buffer.create 256 in
      List.iter (fun v -> Buffer.add_string buf (Format.asprintf "  %a\n" pp_violation v)) vs;
      failwith
        (Printf.sprintf "spec monitors failed (%s): %d violation(s)\n%s" where (List.length vs)
           (Buffer.contents buf))
