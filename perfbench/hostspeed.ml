(* Host-speed correction of wall-clock metrics.

   The 2-vCPU virtual machines this benchmark was tuned on change speed
   for seconds to minutes at a time: the workloads run 20-40% slower
   while neighbours are busy, often for a whole run, so over ten runs
   the quartile spread of a raw median reached 0.25-0.30 of it.
   Every wall-clock sample is therefore bracketed by two probes of the
   host's speed and converted to reference seconds: wall seconds times
   [reference] over the mean of the two probes. [reference] is the
   probe's time on a quiet host of that kind, so there a reference
   second is a wall second.

   The probe is a fixed loop of the benchmark's own over an array
   outside the OCaml heap. It allocates nothing and calls nothing of the
   system under test, so the program's speed, heap and garbage collector
   cannot move it: a change to the program moves a metric as it moves
   the program's wall time, while a slower host moves the probe too and
   mostly cancels out. *)

open Bigarray

let cells = 1 lsl 16

let buf =
  let a = Array1.create int c_layout cells in
  Array1.fill a 0;
  a

(* Pseudo-random reads and writes over 512 KiB, and integer arithmetic:
   0.19-0.21 ms on a quiet host, 0.25-0.29 ms in the slow spells. *)
let kernel () =
  let x = ref 12345 in
  for i = 0 to 99_999 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = (!x lsr 7) land (cells - 1) in
    Array1.unsafe_set buf j (Array1.unsafe_get buf j + i)
  done

let reference = 2.0e-4

(* Every probe's result, and the wall seconds spent probing so far, so a
   throughput slice can leave them out. *)
let probes = Workload.Samples.create ()
let spent = ref 0.0

(* Best of three kernels: a kernel interrupted once says less about the
   host's speed than the other two. *)
let probe () =
  let t0 = Workload.wall () in
  let best = ref infinity in
  for _ = 1 to 3 do
    let t = Workload.wall () in
    kernel ();
    best := Float.min !best (Workload.wall () -. t)
  done;
  Workload.Samples.add probes !best;
  spent := !spent +. (Workload.wall () -. t0);
  !best

(* [dt] wall seconds taken between probes [before] and [after], in
   reference seconds. *)
let to_reference ~before ~after dt = dt *. 2.0 *. reference /. (before +. after)
