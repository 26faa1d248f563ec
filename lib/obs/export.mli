(** Exporters for a {!Tracer}'s recorded events.

    Two output shapes:

    - {!chrome_trace}: the Chrome trace-event JSON format (an object with
      a [traceEvents] array), loadable in [chrome://tracing] and Perfetto.
      Spans become complete (["X"]) events, instants ["i"] events and
      counter samples ["C"] events; timestamps are microseconds from the
      tracer's start.
    - {!pp_profile}: a human-readable profile tree — spans aggregated by
      call path (total time, self time, invocation count), children in
      first-entered order so the output is deterministic for a
      deterministic program — followed by the final counter totals.

    Call {!Tracer.finish} before exporting so no span is still open. *)

val json_string : string -> string
(** [s] as a quoted JSON string literal: quote, backslash, newline, tab
    and carriage return get their two-character escapes, other control
    characters [\u00XX]; every other byte passes through unchanged. *)

val chrome_trace : ?pid:int -> Tracer.t -> string
(** The full trace as a JSON string. Always syntactically valid JSON;
    the [traceEvents] array is empty for a disabled tracer. *)

val write_chrome_trace : ?pid:int -> Tracer.t -> string -> int
(** [write_chrome_trace t path] writes {!chrome_trace} to [path] and
    returns the number of events written. *)

val pp_profile : Format.formatter -> Tracer.t -> unit
(** The aggregated profile tree and counter table. *)

val profile_to_string : Tracer.t -> string
