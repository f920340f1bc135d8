(** Always-on spec monitors over the deterministic trace ring.

    Declarative safety checks in the style of oswald's PSpec monitors,
    evaluated against whatever the ring currently holds. They are meant to
    run at the end of {e every} test and bench run (and inside explorer
    passes), not only when a scenario explicitly exercises the property.
    Ring truncation is handled: each rule only relates an event to {e later}
    events, which by construction survive in the ring whenever the earlier
    event does. *)

type violation = { monitor : string; detail : string }

val pp_violation : Format.formatter -> violation -> unit

(** Each monitor runs over an explicit record list, oldest first: {!check}
    passes the ring's {!Trace.events}; unit tests pass synthetic traces. *)

val commit_implies_durable_on : Trace.record list -> violation list
(** Every [Action_commit {gid}] must be followed by a [Log_force] on the
    log labeled [gid] — or by a [Crash {gid}], which means the commit died
    unacknowledged. Catches commit records that escape their covering
    force. *)

val repl_ship_order_on : Trace.record list -> violation list
(** Replication stream sanity: shipped and applied epochs never move
    backward, and a standby's applied watermark is monotone within an epoch
    (except across a standby crash or a base-0 reset ship — forgiveness
    then lasts until the watermark re-passes the mark it had when it was
    granted, since a re-seed replays the stream over several applies). *)

val log_monotonic_on : Trace.record list -> violation list
(** Per labeled log stream, [Log_write] addresses are strictly increasing.
    [Log_switch] on the label forgives (the stream legitimately restarted);
    [Crash {gid}] forgives every stream the guardian owned ([gid] and
    [gid:...]). *)

val lock_legal_on : Trace.record list -> violation list
(** The Argus lock model over [Lock_*] events, per labeled heap: no grant
    overlaps an incompatible holder (own-read upgrade exempt), and — when
    the ring has not wrapped — no direct grant barges past another action's
    queued write-waiter. *)

val handle_liveness_on : Trace.record list -> violation list
(** Every [Handle_submit] is eventually matched by a [Handle_resolve].
    Abstains (returns nothing) while any crashed guardian has neither
    restarted nor been replaced by a promotion — its handles legitimately
    dangle. *)

val snapshot_legal_on : Trace.record list -> violation list
(** MVCC snapshot-read legality over [Version_install]/[Snap_read] events,
    per labeled heap: every snapshot read returns the newest version
    installed at or before its stamp — no future versions, no skipped
    installs. [Crash {gid}] forgives (stamps are volatile; the replacement
    heap restarts its commit sequence). *)

val check : unit -> violation list
(** All monitors over the current ring (read once), in order. *)

val assert_ok : where:string -> unit -> unit
(** Run {!check} and [failwith] a formatted report if anything fired. *)
