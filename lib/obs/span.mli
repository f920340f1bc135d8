(** Phase-timing helpers over the trace and metrics.

    [run (make name) f] brackets [f ()] with [Span_begin]/[Span_end] trace
    events, counts the invocation in counter [span.<name>], and observes the
    {e virtual-time} duration (in milli-units of the injected clock, as an
    integer) in histogram [span.<name>.vt]. Virtual durations keep spans
    deterministic; synchronous phases therefore observe 0, which still
    yields per-phase invocation counts and trace bracketing. *)

type t
(** A named span site. *)

val make : string -> t
(** [make name] prebuilds the site's trace events. Its metrics are
    registered on its first {!run}, so a span that never runs adds no key
    to a metrics dump. Meant for module-level handles: a run then costs no
    string concatenation and no registry lookup. *)

val run : t -> (unit -> 'a) -> 'a
(** The span closes (and the end event fires) even if [f] raises. *)
