(* Tests for the simulated disks and the Lampson–Sturgis stable store:
   the atomicity property must hold at every possible crash point. *)

module Disk = Rs_storage.Disk
module Store = Rs_storage.Stable_store
module Rng = Rs_util.Rng

let test_disk_basic () =
  let d = Disk.create ~pages:4 () in
  Alcotest.(check (option string)) "unwritten" None (Disk.read d 0);
  Disk.write d 0 "hello";
  Alcotest.(check (option string)) "written" (Some "hello") (Disk.read d 0);
  Disk.write d 0 "bye";
  Alcotest.(check (option string)) "overwritten" (Some "bye") (Disk.read d 0);
  Disk.decay d 0;
  Alcotest.(check (option string)) "decayed" None (Disk.read d 0)

let test_disk_growth () =
  let d = Disk.create ~pages:2 () in
  Disk.write d 100 "far";
  Alcotest.(check bool) "grew" true (Disk.pages d >= 101);
  Alcotest.(check (option string)) "read far" (Some "far") (Disk.read d 100);
  Alcotest.(check (option string)) "beyond end" None (Disk.read d 100000)

let test_disk_crash () =
  let d = Disk.create ~pages:4 () in
  Disk.write d 1 "ok";
  Disk.set_crash_after d 1;
  Disk.write d 2 "survives";
  (match Disk.write d 1 "torn" with
  | () -> Alcotest.fail "expected crash"
  | exception Disk.Crash -> ());
  Alcotest.(check (option string)) "torn page is bad" None (Disk.read d 1);
  Alcotest.(check (option string)) "other page survives" (Some "survives") (Disk.read d 2);
  Alcotest.(check int) "torn count" 1 (Disk.stats d).torn_writes

let test_store_basic () =
  let s = Store.create ~pages:4 () in
  Alcotest.(check (option string)) "unwritten" None (Store.get s 0);
  Store.put s 0 "alpha";
  Store.put s 1 "beta";
  Alcotest.(check (option string)) "get 0" (Some "alpha") (Store.get s 0);
  Alcotest.(check (option string)) "get 1" (Some "beta") (Store.get s 1);
  Store.put s 0 "gamma";
  Alcotest.(check (option string)) "overwrite" (Some "gamma") (Store.get s 0)

(* The headline property: crash the careful put after every possible
   number of physical writes; after recovery the page must read as either
   the old or the new value — never garbage, never lost. *)
let test_store_atomicity_sweep () =
  for crash_at = 0 to 6 do
    let s = Store.create ~pages:2 () in
    Store.put s 0 "old";
    Store.arm_crash s ~after_writes:crash_at;
    (match Store.put s 0 "new" with
    | () -> () (* crash point beyond this put's writes *)
    | exception Disk.Crash -> ());
    Store.clear_crash s;
    Store.recover s;
    match Store.get s 0 with
    | Some "old" | Some "new" -> ()
    | Some other -> Alcotest.failf "crash_at=%d: garbage %S" crash_at other
    | None -> Alcotest.failf "crash_at=%d: value lost" crash_at
  done

let test_store_decay_repair () =
  let rng = Rng.create 42 in
  let s = Store.create ~pages:8 () in
  for p = 0 to 7 do
    Store.put s p (Printf.sprintf "page%d" p)
  done;
  (* Decay many single representatives; recover must repair them all. *)
  for _ = 1 to 50 do
    Store.decay_random_page s rng;
    Store.recover s
  done;
  for p = 0 to 7 do
    Alcotest.(check (option string))
      (Printf.sprintf "page %d intact" p)
      (Some (Printf.sprintf "page%d" p))
      (Store.get s p)
  done

let repairs () =
  Option.value ~default:0
    (Rs_obs.Metrics.find_counter Rs_obs.Metrics.default "stable_store.repairs")

(* A careful get is itself a repair point: decay one replica of a pair
   and the next get must rewrite it from the good copy (bumping the
   stable_store.repairs counter) — so repeated single-replica decay
   never accumulates into a double failure. *)
let test_store_get_read_repair () =
  let rng = Rng.create 7 in
  let s = Store.create ~pages:8 () in
  for p = 0 to 7 do
    Store.put s p (Printf.sprintf "page%d" p)
  done;
  let before = repairs () in
  for _ = 1 to 50 do
    Store.decay_random_page s rng;
    for p = 0 to 7 do
      Alcotest.(check (option string))
        (Printf.sprintf "page %d readable" p)
        (Some (Printf.sprintf "page%d" p))
        (Store.get s p)
    done
  done;
  Alcotest.(check bool) "get repaired the decayed replicas" true (repairs () > before);
  Alcotest.(check (list (pair int string))) "replicas agree after repair" []
    (Store.agreement_issues s)

(* A crash between the two careful writes leaves both replicas readable
   but divergent — A new, B stale. A careful get must return A (never
   older than B) and mend B in place, counted as a repair. *)
let test_store_get_repairs_divergent_readable () =
  let s = Store.create ~pages:4 () in
  Store.put s 2 "old";
  let _, b = Store.disks s in
  (* Capture B's validly framed stale page, update both replicas, then
     regress B — exactly the state a crash between the careful writes
     leaves behind. *)
  let stale = Option.get (Disk.read b 2) in
  Store.put s 2 "new";
  Disk.write b 2 stale;
  Alcotest.(check bool) "replicas diverge" true (Store.agreement_issues s <> []);
  let before = repairs () in
  Alcotest.(check (option string)) "get returns the newer value" (Some "new")
    (Store.get s 2);
  Alcotest.(check int) "divergence repaired on the spot" (before + 1) (repairs ());
  Alcotest.(check (list (pair int string))) "replicas agree again" []
    (Store.agreement_issues s);
  Alcotest.(check (option string)) "stable afterwards" (Some "new") (Store.get s 2)

(* The framed bytes a careful put of [data] leaves on each replica, taken
   from a store on deterministic disks (the frame depends on [data] only). *)
let framed_of data =
  let s = Store.create ~pages:1 () in
  Store.put s 0 data;
  Option.get (Disk.read (fst (Store.disks s)) 0)

(* Under decay, a put's verify re-read can find its replica bad. Only that
   replica is rewritten — one extra physical write per decayed re-read on
   that disk and none on its partner — and when the put returns both
   replicas hold the framed value. *)
let test_store_put_retries_failed_replica () =
  let rng = Rng.create 5 in
  let s = Store.create ~rng ~decay_prob:0.25 ~pages:8 () in
  let a, b = Store.disks s in
  let tally d =
    let st = Disk.stats d in
    (st.writes, st.decays)
  in
  let retried = ref 0 in
  for i = 0 to 39 do
    let p = i mod 8 and data = Printf.sprintf "value-%d" i in
    let wa, da = tally a and wb, db = tally b in
    Store.put s p data;
    let wa', da' = tally a and wb', db' = tally b in
    Alcotest.(check int) (Printf.sprintf "put %d: writes on a" i) (1 + da' - da) (wa' - wa);
    Alcotest.(check int) (Printf.sprintf "put %d: writes on b" i) (1 + db' - db) (wb' - wb);
    retried := !retried + (da' - da) + (db' - db);
    (* Both replicas hold [data]; a read that itself decays the page
       reads None and is counted as a decay. *)
    let framed = framed_of data in
    List.iter
      (fun (name, d) ->
        let decays = (Disk.stats d).decays in
        match Disk.read d p with
        | Some got -> Alcotest.(check string) (Printf.sprintf "put %d: replica %s" i name) framed got
        | None ->
            Alcotest.(check int) (Printf.sprintf "put %d: replica %s decayed on read" i name)
              (decays + 1) (Disk.stats d).decays)
      [ ("a", a); ("b", b) ]
  done;
  Alcotest.(check bool) "some verify re-read failed and was retried" true (!retried > 0)

(* Byte-identical replicas are checked once for the pair: a get returns
   the value with no repair, and identical corrupt replicas still fail
   the CRC — nothing unchecked is ever returned. *)
let test_store_get_identical_replicas () =
  let s = Store.create ~pages:2 () in
  Store.put s 0 "steady";
  let before = repairs () in
  Alcotest.(check (option string)) "value" (Some "steady") (Store.get s 0);
  Alcotest.(check int) "no repair" before (repairs ());
  let a, b = Store.disks s in
  let framed = framed_of "steady" in
  let corrupt = Bytes.of_string framed in
  let last = Bytes.length corrupt - 1 in
  Bytes.set corrupt last (Char.chr (Char.code (Bytes.get corrupt last) lxor 1));
  let corrupt = Bytes.to_string corrupt in
  Disk.write a 1 corrupt;
  Disk.write b 1 corrupt;
  Alcotest.(check (option string)) "identical corrupt replicas read as lost" None
    (Store.get s 1);
  Alcotest.(check int) "nothing to repair from" before (repairs ());
  Alcotest.(check (list (pair int string))) "identical replicas agree" []
    (Store.agreement_issues s);
  Store.recover s;
  Alcotest.(check int) "recover repairs nothing" before (repairs ());
  Alcotest.(check (option string)) "good page untouched" (Some "steady") (Store.get s 0)

let test_store_crash_between_pages () =
  (* A multi-page update interrupted between logical pages: each page
     individually must be old-or-new. *)
  let s = Store.create ~pages:2 () in
  Store.put s 0 "a0";
  Store.put s 1 "b0";
  Store.arm_crash s ~after_writes:3;
  (match
     Store.put s 0 "a1";
     Store.put s 1 "b1"
   with
  | () -> ()
  | exception Disk.Crash -> ());
  Store.clear_crash s;
  Store.recover s;
  (match Store.get s 0 with
  | Some "a0" | Some "a1" -> ()
  | v -> Alcotest.failf "page0 bad: %s" (Option.value v ~default:"<none>"));
  match Store.get s 1 with
  | Some "b0" | Some "b1" -> ()
  | v -> Alcotest.failf "page1 bad: %s" (Option.value v ~default:"<none>")

let prop_store_atomic_random =
  QCheck.Test.make ~name:"stable store atomic under random crash points" ~count:200
    QCheck.(pair small_nat (int_bound 20))
    (fun (page, crash_at) ->
      let page = page mod 4 in
      let s = Store.create ~pages:4 () in
      Store.put s page "before";
      Store.arm_crash s ~after_writes:crash_at;
      (match Store.put s page "after" with () -> () | exception Disk.Crash -> ());
      Store.clear_crash s;
      Store.recover s;
      match Store.get s page with Some "before" | Some "after" -> true | Some _ | None -> false)

let suite =
  [
    Alcotest.test_case "disk basics" `Quick test_disk_basic;
    Alcotest.test_case "disk growth" `Quick test_disk_growth;
    Alcotest.test_case "disk crash injection" `Quick test_disk_crash;
    Alcotest.test_case "store basics" `Quick test_store_basic;
    Alcotest.test_case "store atomicity sweep" `Quick test_store_atomicity_sweep;
    Alcotest.test_case "store decay repair" `Quick test_store_decay_repair;
    Alcotest.test_case "store get read-repair" `Quick test_store_get_read_repair;
    Alcotest.test_case "store get repairs divergent replicas" `Quick
      test_store_get_repairs_divergent_readable;
    Alcotest.test_case "store crash between pages" `Quick test_store_crash_between_pages;
    Alcotest.test_case "store put retries only the failed replica" `Quick
      test_store_put_retries_failed_replica;
    Alcotest.test_case "store get on identical replicas" `Quick test_store_get_identical_replicas;
    QCheck_alcotest.to_alcotest prop_store_atomic_random;
  ]
