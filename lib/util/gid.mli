(** Guardian identifiers.

    A guardian is the Argus unit of distribution (§2.1 of the thesis). Each
    guardian in a system carries a small dense identifier. *)

type t = private int

val of_int : int -> t
(** [of_int i] is the guardian id [i]. Raises [Invalid_argument] if [i < 0]. *)

val to_int : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val to_string : t -> string
(** ["G<n>"], the label traces and logs use. Labels of gids below 4096
    are memoised and shared, so the call allocates nothing after the
    first one for a given gid. *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string}. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t
