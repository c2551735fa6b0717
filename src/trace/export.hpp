#pragma once
/// \file export.hpp
/// Trace exporters: Chrome trace-event JSON (load via chrome://tracing or
/// https://ui.perfetto.dev), flat CSV for ad-hoc analysis, and an ASCII
/// Gantt chart for terminals (the Figure-2/3 timeline at a glance).

#include <ostream>

#include "trace/trace.hpp"

namespace hdls::trace {

/// Writes the Chrome trace-event format: a JSON object whose "traceEvents"
/// array holds one entry per event (pid = node, tid = worker, timestamps
/// in microseconds). Interval events map to complete ("X") events,
/// ChunkExec/Refill begin-end pairs to duration ("B"/"E") pairs and
/// Terminate to an instant ("i") event.
void export_chrome_json(const Trace& trace, std::ostream& os);

/// Writes one CSV row per event: kind,worker,node,level,t0,t1,wait,a,b
/// (times in seconds since the trace origin).
void export_csv(const Trace& trace, std::ostream& os);

/// Renders a per-worker timeline of `width` columns. Legend:
///   '#' executing the loop body    '+' scheduling overhead (queue/lock/RMA)
///   '.' waiting (barrier/work)     ' ' untraced / idle
void ascii_gantt(const Trace& trace, std::ostream& os, int width = 80);

}  // namespace hdls::trace
