(** CRC-32 (IEEE 802.3 polynomial) used to frame and validate log records
    and stable-storage pages. A torn or decayed page fails its checksum and
    is treated as bad by the careful-read procedure.

    Table-driven over native ints: a checksum allocates nothing but its
    boxed [int32] result, whatever the length of the input. *)

val string : ?off:int -> ?len:int -> string -> int32
(** [string s] is the CRC-32 of [s] (or of the given substring). Raises
    [Invalid_argument] on out-of-bounds ranges. *)
