(* Unit and property tests for rs_util: codec, crc, vec, rng, id
   generators. *)

module Codec = Rs_util.Codec
module Crc32 = Rs_util.Crc32
module Vec = Rs_util.Vec
module Rng = Rs_util.Rng
module Uid = Rs_util.Uid
module Aid = Rs_util.Aid
module Gid = Rs_util.Gid

let test_varint_roundtrip () =
  let cases = [ 0; 1; -1; 127; 128; -128; 300; -300; max_int; min_int; 1 lsl 40 ] in
  List.iter
    (fun v ->
      let e = Codec.Enc.create () in
      Codec.Enc.varint e v;
      let d = Codec.Dec.of_string (Codec.Enc.contents e) in
      Alcotest.(check int) (Printf.sprintf "varint %d" v) v (Codec.Dec.varint d);
      Codec.Dec.expect_end d)
    cases

let test_string_roundtrip () =
  let cases = [ ""; "a"; String.make 5000 'x'; "\x00\xff\x80 binary" ] in
  List.iter
    (fun s ->
      let e = Codec.Enc.create () in
      Codec.Enc.string e s;
      let d = Codec.Dec.of_string (Codec.Enc.contents e) in
      Alcotest.(check string) "string roundtrip" s (Codec.Dec.string d))
    cases

let test_composites () =
  let e = Codec.Enc.create () in
  Codec.Enc.list Codec.Enc.varint e [ 1; 2; 3 ];
  Codec.Enc.option Codec.Enc.string e (Some "hi");
  Codec.Enc.option Codec.Enc.string e None;
  Codec.Enc.pair Codec.Enc.bool Codec.Enc.varint e (true, 42);
  Codec.Enc.array Codec.Enc.varint e [| 9; 8 |];
  let d = Codec.Dec.of_string (Codec.Enc.contents e) in
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (Codec.Dec.list Codec.Dec.varint d);
  Alcotest.(check (option string)) "some" (Some "hi") (Codec.Dec.option Codec.Dec.string d);
  Alcotest.(check (option string)) "none" None (Codec.Dec.option Codec.Dec.string d);
  let b, v = Codec.Dec.pair Codec.Dec.bool Codec.Dec.varint d in
  Alcotest.(check bool) "pair fst" true b;
  Alcotest.(check int) "pair snd" 42 v;
  Alcotest.(check (array int)) "array" [| 9; 8 |] (Codec.Dec.array Codec.Dec.varint d);
  Codec.Dec.expect_end d

let test_decode_errors () =
  let truncated = Codec.Dec.of_string "" in
  Alcotest.check_raises "empty u8" (Codec.Error "unexpected end of input") (fun () ->
      ignore (Codec.Dec.u8 truncated));
  let bad_bool = Codec.Dec.of_string "\x07" in
  Alcotest.check_raises "bad bool" (Codec.Error "bad bool tag 7") (fun () ->
      ignore (Codec.Dec.bool bad_bool));
  (* A string whose declared length exceeds the remaining input. *)
  let e = Codec.Enc.create () in
  Codec.Enc.varint e 100;
  let d = Codec.Dec.of_string (Codec.Enc.contents e ^ "abc") in
  (match Codec.Dec.string d with
  | _ -> Alcotest.fail "expected decode error"
  | exception Codec.Error _ -> ())

let test_crc32_known () =
  (* Standard test vector: CRC32("123456789") = 0xCBF43926. *)
  Alcotest.(check int32) "crc32 vector" 0xCBF43926l (Crc32.string "123456789");
  Alcotest.(check int32) "empty" 0l (Crc32.string "");
  Alcotest.(check bool) "substring" true
    (Crc32.string ~off:1 ~len:3 "x123y" = Crc32.string "123");
  (* Pinned values (several with bit 31 set, i.e. negative as int32):
     stable-store frames and placement hashes are built from these
     checksums, so they must never change. *)
  List.iter
    (fun (s, crc) -> Alcotest.(check int32) (Printf.sprintf "crc32 %S" s) crc (Crc32.string s))
    [
      ("a", 0xE8B7BE43l);
      ("abc", 0x352441C2l);
      ("The quick brown fox jumps over the lazy dog", 0x414FA339l);
      ("obj0", 0xB0999486l);
      ("acct:bob", 0xD4136258l);
      ("\xff\xfe\x00binary", 0x3285563Bl);
      (String.make 1024 '\xff', 0xB83AFFF4l);
      (String.init 256 Char.chr, 0x29058C73l);
    ];
  List.iter
    (fun (off, len) ->
      Alcotest.check_raises
        (Printf.sprintf "out of bounds off=%d len=%d" off len)
        (Invalid_argument "Crc32.string: out of bounds")
        (fun () -> ignore (Crc32.string ~off ~len "abcd")))
    [ (-1, 2); (0, 5); (3, 2); (5, 0); (1, -1) ]

(* Bit-at-a-time CRC-32 over the reflected polynomial, with no table: the
   independent reference the table-driven implementation must match. About
   half of random inputs have a checksum with bit 31 set; the pinned
   vectors above include such inputs too. *)
let crc32_reference ?(off = 0) ?len s =
  let len = Option.value len ~default:(String.length s - off) in
  let crc = ref 0xFFFFFFFFl in
  for i = off to off + len - 1 do
    crc := Int32.logxor !crc (Int32.of_int (Char.code s.[i]));
    for _ = 0 to 7 do
      let lsb = Int32.logand !crc 1l in
      crc := Int32.shift_right_logical !crc 1;
      if lsb <> 0l then crc := Int32.logxor !crc 0xEDB88320l
    done
  done;
  Int32.logxor !crc 0xFFFFFFFFl

let prop_crc32_reference =
  let gen =
    QCheck.Gen.(
      string_size ~gen:char (int_range 0 300) >>= fun s ->
      let n = String.length s in
      int_range 0 n >>= fun off ->
      int_range 0 (n - off) >>= fun len ->
      bool >|= fun whole -> (s, off, len, whole))
  in
  let print (s, off, len, whole) =
    Printf.sprintf "%S off=%d len=%d whole=%b" s off len whole
  in
  QCheck.Test.make ~name:"crc32 matches the bitwise reference" ~count:1000
    (QCheck.make ~print gen) (fun (s, off, len, whole) ->
      if whole then Crc32.string s = crc32_reference s
      else Crc32.string ~off ~len s = crc32_reference ~off ~len s)

(* The checksum sits on every careful write: after warm-up, a 1 KiB CRC
   allocates only its boxed int32 result. *)
let test_crc32_allocation () =
  let kib = String.init 1024 (fun i -> Char.chr (i land 0xff)) in
  ignore (Sys.opaque_identity (Crc32.string kib));
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Crc32.string kib));
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) (Printf.sprintf "1 KiB crc allocates %.0f words (< 16)" words) true
    (words < 16.)

let test_vec () =
  let v = Vec.create () in
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "len" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Vec.set v 42 (-1);
  Alcotest.(check int) "set" (-1) (Vec.get v 42);
  Alcotest.(check int) "last" 99 (Vec.last v);
  Alcotest.(check int) "pop" 99 (Vec.pop v);
  Alcotest.(check int) "len after pop" 99 (Vec.length v);
  Vec.truncate v 10;
  Alcotest.(check int) "truncate" 10 (Vec.length v);
  Alcotest.(check (list int)) "to_list" [ 0; 1; 2 ]
    (let v = Vec.of_list [ 0; 1; 2 ] in
     Vec.to_list v);
  Alcotest.(check int) "fold" 45 (Vec.fold_left ( + ) 0 (Vec.of_list [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]));
  Alcotest.check_raises "oob" (Invalid_argument "Vec.get: index 10 out of bounds (len 10)")
    (fun () -> ignore (Vec.get v 10))

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done;
  let c = Rng.create 8 in
  let diff = ref false in
  for _ = 1 to 20 do
    if Rng.int a 1000 <> Rng.int c 1000 then diff := true
  done;
  Alcotest.(check bool) "different seeds differ" true !diff

let test_rng_bounds () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int r 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7);
    let f = Rng.float r 2.5 in
    Alcotest.(check bool) "float range" true (f >= 0.0 && f < 2.5)
  done;
  let arr = [| 1; 2; 3 |] in
  Rng.shuffle r arr;
  Alcotest.(check int) "shuffle preserves sum" 6 (Array.fold_left ( + ) 0 arr)

let test_uid_gen () =
  let g = Uid.Gen.create () in
  let a = Uid.Gen.fresh g in
  let b = Uid.Gen.fresh g in
  Alcotest.(check bool) "fresh distinct" true (not (Uid.equal a b));
  Alcotest.(check bool) "after stable_vars" true (Uid.compare a Uid.stable_vars > 0);
  Uid.Gen.reset_past g (Uid.of_int 100);
  Alcotest.(check bool) "reset past" true (Uid.compare (Uid.Gen.fresh g) (Uid.of_int 100) > 0);
  Uid.Gen.reset_past g (Uid.of_int 5);
  Alcotest.(check bool) "never backwards" true (Uid.compare (Uid.Gen.fresh g) (Uid.of_int 100) > 0)

let test_aid_gen () =
  let g = Aid.Gen.create (Gid.of_int 3) in
  let a = Aid.Gen.fresh g in
  Alcotest.(check int) "coordinator" 3 (Gid.to_int (Aid.coordinator a));
  let b = Aid.Gen.fresh g in
  Alcotest.(check bool) "distinct" true (not (Aid.equal a b));
  Aid.Gen.reset_past g (Aid.make ~coordinator:(Gid.of_int 3) ~seq:50);
  Alcotest.(check bool) "reset" true (Aid.seq (Aid.Gen.fresh g) > 50);
  (* Other guardians' aids do not disturb the counter. *)
  Aid.Gen.reset_past g (Aid.make ~coordinator:(Gid.of_int 9) ~seq:1000);
  Alcotest.(check bool) "foreign aid ignored" true (Aid.seq (Aid.Gen.fresh g) < 1000)

let test_lru_eviction_order () =
  let module Lru = Rs_util.Lru in
  let c = Lru.create ~capacity:3 () in
  Alcotest.(check int) "capacity" 3 (Lru.capacity c);
  Alcotest.(check (option (pair string int))) "no eviction below capacity" None
    (Lru.put c "a" 1);
  ignore (Lru.put c "b" 2);
  ignore (Lru.put c "c" 3);
  Alcotest.(check (list string)) "MRU first" [ "c"; "b"; "a" ] (Lru.keys c);
  (* find bumps recency; mem does not. *)
  Alcotest.(check (option int)) "find a" (Some 1) (Lru.find c "a");
  Alcotest.(check bool) "mem b" true (Lru.mem c "b");
  Alcotest.(check (list string)) "a bumped, b not" [ "a"; "c"; "b" ] (Lru.keys c);
  (* The insert past capacity drops the least recently used: b. *)
  Alcotest.(check (option (pair string int))) "b evicted" (Some ("b", 2)) (Lru.put c "d" 4);
  Alcotest.(check (list string)) "post-eviction order" [ "d"; "a"; "c" ] (Lru.keys c);
  Alcotest.(check int) "length capped" 3 (Lru.length c);
  (* Overwrite bumps without evicting. *)
  Alcotest.(check (option (pair string int))) "overwrite c" None (Lru.put c "c" 33);
  Alcotest.(check (option int)) "new value" (Some 33) (Lru.find c "c");
  Alcotest.(check (list string)) "overwrite bumped c" [ "c"; "d"; "a" ] (Lru.keys c);
  Lru.remove c "d";
  Alcotest.(check (list string)) "removed" [ "c"; "a" ] (Lru.keys c);
  Alcotest.(check (option (pair string int))) "room again" None (Lru.put c "e" 5);
  Lru.clear c;
  Alcotest.(check int) "cleared" 0 (Lru.length c);
  Alcotest.(check (list string)) "cleared keys" [] (Lru.keys c);
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Lru.create: capacity must be >= 1") (fun () ->
      ignore (Lru.create ~capacity:0 ()))

(* Edge cases around the capacity boundary and the list ends. *)
let test_lru_edge_cases () =
  let module Lru = Rs_util.Lru in
  (* Overwriting an existing key at full capacity is not an insert: it
     must bump, not evict. *)
  let c = Lru.create ~capacity:2 () in
  ignore (Lru.put c "a" 1);
  ignore (Lru.put c "b" 2);
  Alcotest.(check (option (pair string int))) "overwrite at capacity evicts nothing" None
    (Lru.put c "a" 11);
  Alcotest.(check int) "still full, not over" 2 (Lru.length c);
  Alcotest.(check (option int)) "overwritten value" (Some 11) (Lru.find c "a");
  Alcotest.(check bool) "b survived" true (Lru.mem c "b");
  (* Touch-via-find of the LRU tail makes the other key the next victim. *)
  ignore (Lru.find c "b");
  Alcotest.(check (list string)) "find reordered" [ "b"; "a" ] (Lru.keys c);
  Alcotest.(check (option (pair string int))) "a is now the victim" (Some ("a", 11))
    (Lru.put c "z" 3);
  (* Removing the first (MRU) and last (LRU) nodes must keep the chain
     intact in both directions. *)
  let c = Lru.create ~capacity:4 () in
  List.iter (fun (k, v) -> ignore (Lru.put c k v)) [ ("a", 1); ("b", 2); ("c", 3); ("d", 4) ];
  Lru.remove c "d" (* MRU head *);
  Alcotest.(check (list string)) "head removed" [ "c"; "b"; "a" ] (Lru.keys c);
  Lru.remove c "a" (* LRU tail *);
  Alcotest.(check (list string)) "tail removed" [ "c"; "b" ] (Lru.keys c);
  Lru.remove c "nope" (* absent key is a no-op *);
  Alcotest.(check int) "absent remove is a no-op" 2 (Lru.length c);
  (* The chain still evicts correctly after surgery at both ends. *)
  ignore (Lru.put c "e" 5);
  ignore (Lru.put c "f" 6);
  Alcotest.(check (option (pair string int))) "evicts the true LRU" (Some ("b", 2))
    (Lru.put c "g" 7);
  Alcotest.(check (list string)) "final order" [ "g"; "f"; "e"; "c" ] (Lru.keys c);
  (* Capacity one: every put of a new key evicts the previous sole
     occupant; remove of the only node empties both ends. *)
  let c1 = Lru.create ~capacity:1 () in
  ignore (Lru.put c1 "x" 1);
  Alcotest.(check (option (pair string int))) "sole occupant evicted" (Some ("x", 1))
    (Lru.put c1 "y" 2);
  Lru.remove c1 "y";
  Alcotest.(check int) "empty after removing the only node" 0 (Lru.length c1);
  ignore (Lru.put c1 "z" 3);
  Alcotest.(check (list string)) "usable after emptying" [ "z" ] (Lru.keys c1)

(* Trace events carry these labels; they must keep the exact bytes the
   old ["G%d"] / ["T%d.%d"] formatters produced. *)
let label_int =
  QCheck.(
    oneof [ oneofl [ 0; 1; 9; 10; 99; 100; 4095; 4096; max_int ]; small_nat; int_range 0 max_int ])

let prop_labels =
  QCheck.Test.make ~name:"gid/aid labels match the old formats" ~count:1000
    QCheck.(pair label_int label_int)
    (fun (g, s) ->
      let gid = Gid.of_int g in
      let aid = Aid.make ~coordinator:gid ~seq:s in
      Gid.to_string gid = Format.asprintf "G%d" g
      && Aid.to_string aid = Format.asprintf "T%d.%d" g s
      && Format.asprintf "%a" Gid.pp gid = Gid.to_string gid
      && Format.asprintf "%a" Aid.pp aid = Aid.to_string aid)

let test_twopc_msg_text () =
  let module T = Rs_twopc.Twopc in
  List.iter
    (fun (g, s) ->
      let a = Aid.make ~coordinator:(Gid.of_int g) ~seq:s in
      List.iter
        (fun (kind, msg) ->
          (* the old [pp_msg]: [Format.fprintf fmt "%s(%a)" kind Aid.pp a] *)
          let old = Format.asprintf "%s(T%d.%d)" kind g s in
          Alcotest.(check string) kind old (T.msg_to_string msg);
          Alcotest.(check string) (kind ^ " via pp_msg") old (Format.asprintf "%a" T.pp_msg msg))
        [
          ("prepare", T.Prepare a);
          ("prepared", T.Prepared_reply a);
          ("refused", T.Refused_reply a);
          ("commit", T.Commit a);
          ("committed", T.Committed_ack a);
          ("abort", T.Abort a);
          ("aborted", T.Aborted_ack a);
          ("query", T.Query a);
        ])
    [ (0, 0); (1, 9); (10, 10); (4096, 123456789) ]

let test_label_allocation () =
  let gid = Gid.of_int 4095 in
  let aid = Aid.make ~coordinator:gid ~seq:max_int in
  let per_call f =
    ignore (Sys.opaque_identity (f ()));
    let n = 1000 in
    let before = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let gw = per_call (fun () -> Gid.to_string gid) in
  let aw = per_call (fun () -> Aid.to_string aid) in
  Alcotest.(check bool)
    (Printf.sprintf "Gid.to_string allocates %.2f words (0)" gw)
    true (gw < 0.1);
  Alcotest.(check bool) (Printf.sprintf "Aid.to_string allocates %.2f words (<= 8)" aw) true
    (aw <= 8.)

(* Property: varint roundtrips for arbitrary ints. *)
let prop_varint =
  QCheck.Test.make ~name:"varint roundtrip" ~count:1000 QCheck.int (fun v ->
      let e = Codec.Enc.create () in
      Codec.Enc.varint e v;
      let d = Codec.Dec.of_string (Codec.Enc.contents e) in
      Codec.Dec.varint d = v)

let prop_string =
  QCheck.Test.make ~name:"string roundtrip" ~count:500 QCheck.string (fun s ->
      let e = Codec.Enc.create () in
      Codec.Enc.string e s;
      let d = Codec.Dec.of_string (Codec.Enc.contents e) in
      String.equal (Codec.Dec.string d) s)

let suite =
  [
    Alcotest.test_case "varint roundtrip" `Quick test_varint_roundtrip;
    Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
    Alcotest.test_case "composite codecs" `Quick test_composites;
    Alcotest.test_case "decode errors" `Quick test_decode_errors;
    Alcotest.test_case "crc32 vectors" `Quick test_crc32_known;
    Alcotest.test_case "crc32 allocation-free" `Quick test_crc32_allocation;
    Alcotest.test_case "vec operations" `Quick test_vec;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "uid generator" `Quick test_uid_gen;
    Alcotest.test_case "aid generator" `Quick test_aid_gen;
    Alcotest.test_case "twopc message text" `Quick test_twopc_msg_text;
    Alcotest.test_case "label allocation" `Quick test_label_allocation;
    Alcotest.test_case "lru eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "lru edge cases" `Quick test_lru_edge_cases;
    QCheck_alcotest.to_alcotest prop_varint;
    QCheck_alcotest.to_alcotest prop_string;
    QCheck_alcotest.to_alcotest prop_crc32_reference;
    QCheck_alcotest.to_alcotest prop_labels;
  ]
