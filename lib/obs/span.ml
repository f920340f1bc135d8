(* The events are prebuilt and the metrics looked up once, on the first
   [run]: a handle that never runs registers no metric. *)
type t = {
  name : string;
  begin_ev : Trace.event;
  end_ev : Trace.event;
  mutable metrics : (Metrics.counter * Metrics.histogram) option;
}

let make name =
  { name; begin_ev = Trace.Span_begin { name }; end_ev = Trace.Span_end { name }; metrics = None }

let metrics t =
  match t.metrics with
  | Some m -> m
  | None ->
      let m =
        (Metrics.counter ("span." ^ t.name), Metrics.histogram ("span." ^ t.name ^ ".vt"))
      in
      t.metrics <- Some m;
      m

let close t vt t0 =
  let dt = Trace.now () -. t0 in
  Trace.emit t.end_ev;
  Metrics.observe vt (int_of_float (dt *. 1000.0))

let run t f =
  Trace.emit t.begin_ev;
  let count, vt = metrics t in
  Metrics.incr count;
  let t0 = Trace.now () in
  match f () with
  | v ->
      close t vt t0;
      v
  | exception e ->
      close t vt t0;
      raise e
