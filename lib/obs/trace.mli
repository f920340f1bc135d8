(** Structured, deterministic event tracing.

    A bounded ring buffer of typed events, each stamped with a sequence
    number and the current {e virtual} time. The clock is injected (the
    guardian system installs [Sim.now]); wall-clock time is never consulted,
    so two runs of the same seeded scenario serialize to byte-identical
    traces — the "tracking in order to recover" discipline: recovery cost
    claims are argued from the trace of what recovery actually touched.

    The ring is two parallel arrays indexed by [seq mod capacity]: the
    events and their times (a [Float.Array.t], unboxed). Sequence numbers
    are derived, not stored, so {!emit} writes one pointer and one float
    and allocates nothing itself: 0 minor words under the default clock,
    and only the clock's boxed float (2 words) under an injected one. The
    event value is the caller's only allocation; a prebuilt event costs
    none. {!events} builds the [record]s on demand.

    Setting the [RS_TRACE] environment variable additionally echoes every
    event to stderr as it is emitted (the switch the ad-hoc prints this
    module replaced used). *)

type lock_kind = Read | Write

type event =
  | Page_read of { page : int; ok : bool }  (** physical disk read *)
  | Page_write of { page : int }  (** physical disk write *)
  | Torn_write of { page : int }  (** a crash interrupted this write *)
  | Page_decay of { page : int }
  | Store_repair of { page : int }  (** stable-store recovery fixed a pair *)
  | Log_write of { log : string; addr : int; bytes : int }
      (** entry buffered in the log; [log] is the owning log's label *)
  | Log_force of { log : string; entries : int; stream_bytes : int }
      (** pending entries pushed to stable storage; [log] is the owning
          log's label ("G0", "G1:standby", …; "" if unlabeled) *)
  | Log_switch of { log : string }
      (** the stream behind label [log] legitimately restarted or changed
          owner (a fresh pending log, a housekeeping switch, a relabel) —
          the monotonicity monitor's forgiveness point *)
  | Segment_alloc of { id : int; index : int }
      (** a segmented log grew by one careful-replicated segment store *)
  | Segment_retire of { id : int }
      (** a dead segment's pages were returned to the directory pool *)
  | Repl_ship of { src : string; dst : string; epoch : int; base : int; entries : int; bytes : int }
      (** a primary shipped one forced batch to its standby *)
  | Repl_apply of { gid : string; epoch : int; watermark : int; entries : int }
      (** a standby appended + warm-applied a shipped batch; [watermark] is
          its applied (durable) prefix after the batch *)
  | Repl_promote of { heir : string; for_ : string; epoch : int; watermark : int }
      (** failover: [heir] took over [for_]'s duties at the applied
          watermark, under the freshly bumped epoch *)
  | Twopc_send of { src : string; dst : string; msg : string }
  | Twopc_recv of { src : string; dst : string; msg : string }
  | Lock_acquire of { heap : string; aid : string; addr : int; kind : lock_kind }
      (** a lock grant — direct or served from the queue. [heap] is the
          owning guardian's label ("" for bare heaps, which the lock
          monitor skips). Allocation grants the creator's read lock
          through here too; recovery's silent re-grants do not. *)
  | Lock_release of { heap : string; aid : string; addr : int }
      (** the holder released at action completion (commit or abort) *)
  | Lock_conflict of { aid : string; holder : string; addr : int }
  | Lock_wait of { heap : string; aid : string; holder : string; addr : int; write : bool }
      (** the requester joined the object's FIFO wait queue behind [holder];
          [write] covers upgrades (which queue at the front) and mutex
          possession *)
  | Lock_timeout of { heap : string; aid : string; addr : int }
      (** the wait timed out (presumed deadlock); the action aborts *)
  | Lock_cancel of { heap : string; aid : string; addr : int }
      (** the waiter left the queue without a grant (timeout or crash
          cleanup) — emitted before successors are served *)
  | Snap_open of { heap : string; stamp : int }
      (** an MVCC snapshot opened at the heap's current commit stamp *)
  | Snap_close of { heap : string; stamp : int }
      (** the snapshot released; history only it observed is pruned *)
  | Snap_read of { heap : string; addr : int; stamp : int; vstamp : int }
      (** a lock-free snapshot read at snapshot stamp [stamp] returned the
          version installed at [vstamp] — the snapshot-legality monitor
          checks [vstamp] is the newest install at or before [stamp] *)
  | Version_install of { heap : string; aid : string; addr : int; stamp : int }
      (** a committing action installed a new base version under [stamp]
          (one stamp per committing action across all its writes) *)
  | Handle_submit of { gid : string; aid : string }
      (** [System.submit] created a handle (admission checks already
          passed); [gid] is the coordinator *)
  | Handle_resolve of { gid : string; aid : string; committed : bool }
      (** the handle resolved — the single point every submitted action
          funnels through, including presumed-abort orphan resolution *)
  | Action_shed of { gid : string; in_flight : int }
      (** admission control refused a submission: guardian at capacity *)
  | Uid_mint of { source : string; uid : int }
      (** a heap minted a fresh uid through its source ("local" = the
          guardian's own stable counter, "pool:G<i>" = a directory range) *)
  | Uid_reserve of { gid : string; lo : int; count : int }
      (** the master allocator committed a uid batch [lo, lo+count) to shard
          [gid] *)
  | Dir_route of { coordinator : string; shards : int; cross : bool }
      (** the placement directory routed an action: how many distinct shards
          its steps span, and whether it crossed shards *)
  | Action_prepare of { gid : string; aid : string; refused : bool }
  | Action_commit of { gid : string; aid : string }
  | Action_abort of { gid : string; aid : string }
  | Recovery_scan of { system : string; entries : int }
      (** one recovery pass: which recovery system, log entries visited *)
  | Checkpoint of { system : string; technique : string; entries : int }
  | Crash of { gid : string }
  | Restart of { gid : string; prepared : int; committing : int }
  | Span_begin of { name : string }
  | Span_end of { name : string }
  | Explore_schedule of { id : int; points : int }
      (** one crash schedule about to run under the explorer *)
  | Explore_violation of { oracle : string; schedule : string }
      (** an oracle failed after recovery from this schedule *)
  | Explore_shrunk of { points : int; schedule : string }
      (** minimal counterexample after shrinking *)
  | Nemesis of { kind : string; target : string }
      (** a nemesis fault-schedule event fired ("decay", "partition",
          "heal", "crash", "restart", "promote", …) against [target] *)
  | Note of string

type record = { seq : int; time : float; event : event }

val set_clock : (unit -> float) -> unit
(** Install the virtual clock used to stamp events (e.g.
    [fun () -> Sim.now sim]). *)

val clear_clock : unit -> unit
(** Revert to the default clock, which always reads 0. *)

val now : unit -> float
(** Current virtual time as the trace sees it. *)

val set_capacity : int -> unit
(** Resize the ring (default 8192 events); drops all buffered events.
    Sequence numbering continues ({!total} is not reset). *)

val set_enabled : bool -> unit
(** Master switch; emission is a no-op when disabled (default enabled). *)

val enabled : unit -> bool
(** Guard for call sites that would build an event only to drop it.
    Building one is cheap: gid and aid labels come from
    [Gid.to_string]/[Aid.to_string] (0 and at most 8 minor words), not
    from a formatter, so the guard saves little and the ring stays on. *)

val emit : event -> unit
(** Append one event, stamped with the next sequence number and {!now},
    overwriting the oldest once the ring is full. *)

val events : unit -> record list
(** Buffered events, oldest first (at most capacity; earlier events are
    overwritten once the ring wraps). *)

val total : unit -> int
(** Events emitted since the last {!clear} (including overwritten ones). *)

val clear : unit -> unit
(** Empty the ring and reset the sequence counter — run before each
    determinism comparison. *)

val pp_event : Format.formatter -> event -> unit
val pp_record : Format.formatter -> record -> unit

val to_string : unit -> string
(** The whole buffered trace, one record per line. Deterministic for
    deterministic runs. *)
