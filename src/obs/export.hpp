// Exporters for the observability subsystem: chrome://tracing JSON (loads in
// Perfetto / chrome://tracing) and a metrics JSON of the counter/gauge
// registry. Both render whatever the registry and ring buffer currently
// hold — in MN_OBS=OFF builds they produce valid, empty documents.
// Allocation-heavy; never call these from a hot path.
#pragma once

#include <string>

#include "obs/obs.hpp"

namespace mn::obs {

// Chrome Trace Event Format document: {"traceEvents": [...], ...} with one
// complete ("ph": "X") event per recorded span and one counter ("ph": "C")
// event per trace_counter() sample, timestamps in microseconds. Perfetto
// renders each distinct counter name as its own counter track interleaved
// with the span rows.
std::string chrome_trace_json();

// {"counters": {...}, "gauges": {...}} with snake_case keys.
std::string metrics_json();

// Flight-recorder export (eventlog.hpp): {"fingerprint": "<hex>",
// "dropped": N, "events": [{"kind", "tenant", "seq", "tick", "a", "b"}...]}
// over the resident event ring, oldest first.
std::string event_log_json();

// Latest postmortem capture: {"captures": N, "reason": "...", "tick": T,
// "events": [...]}. With no capture taken, renders {"captures": 0,
// "reason": null, "tick": 0, "events": []} — still a valid document.
std::string postmortem_json();

// Writes `content` to `path` (plain overwrite; trace dumps are not
// crash-critical artifacts). Returns false on any I/O error.
bool write_text_file(const std::string& path, const std::string& content);

}  // namespace mn::obs
