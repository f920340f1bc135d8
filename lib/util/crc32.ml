(* The 32-bit register lives in a native int (63 bits on the 64-bit hosts
   this code targets), so the byte loop works on immediates and allocates
   nothing; only the result is boxed into an [int32]. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let string ?(off = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - off in
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Crc32.string: out of bounds";
  let crc = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    let idx = (!crc lxor Char.code (String.unsafe_get s i)) land 0xFF in
    crc := Array.unsafe_get table idx lxor (!crc lsr 8)
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)
