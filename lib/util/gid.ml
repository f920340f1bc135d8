type t = int

let of_int i =
  if i < 0 then invalid_arg "Gid.of_int: negative";
  i

let to_int t = t
let equal = Int.equal
let compare = Int.compare
let hash t = t

(* Labels of gids below [memo_limit] are built once and shared. The table
   only grows, by replacing the whole array with a longer copy, so a
   reader that takes one snapshot of [names] indexes a consistent array. *)
let memo_limit = 4096
let names = ref [||]

let to_string t =
  let a = !names in
  if t < Array.length a then a.(t)
  else if t >= memo_limit then "G" ^ string_of_int t
  else begin
    let n = Array.length a in
    let grown i = if i < n then a.(i) else "G" ^ string_of_int i in
    let a' = Array.init (min memo_limit (max (t + 1) (2 * n))) grown in
    names := a';
    a'.(t)
  end

let pp fmt t = Format.pp_print_string fmt (to_string t)

module Ord = struct
  type nonrec t = t

  let compare = compare
  let equal = equal
  let hash = hash
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
module Tbl = Hashtbl.Make (Ord)
