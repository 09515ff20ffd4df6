#include "obs/export.hpp"

#include <cstdio>

#include "obs/eventlog.hpp"

namespace mn::obs {

namespace {

// Span names are static literals under our control, but escape defensively
// so a stray quote can never produce an unloadable trace.
std::string json_escape(const char* s) {
  std::string out;
  if (s == nullptr) return out;
  for (; *s != '\0'; ++s) {
    const char ch = *s;
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out;
}

std::string us(int64_t ns) {
  // Microseconds with ns precision, the unit chrome://tracing expects.
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000 < 0 ? -(ns % 1000) : ns % 1000));
  return buf;
}

std::string counter_value_str(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

std::string chrome_trace_json() {
  const std::vector<TraceEvent> events = trace_snapshot();
  std::string j = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i > 0) j += ",";
    j += "\n{\"name\": \"" + json_escape(e.name) + "\"";
    j += ", \"cat\": \"" + std::string(cat_name(e.cat)) + "\"";
    if (e.ph == Ph::kCounter) {
      // Counter track sample. Perfetto groups "C" events by (pid, name) into
      // one counter track per name; the single "value" series keeps each
      // track a plain line chart.
      j += ", \"ph\": \"C\", \"pid\": 1";
      j += ", \"ts\": " + us(e.start_ns);
      j += ", \"args\": {\"value\": " + counter_value_str(e.value) + "}}";
      continue;
    }
    j += ", \"ph\": \"X\", \"pid\": 1, \"tid\": " + std::to_string(e.tid);
    j += ", \"ts\": " + us(e.start_ns);
    j += ", \"dur\": " + us(e.dur_ns);
    j += ", \"args\": {";
    const auto arg = [&j](const char* name, auto value) {
      j += '"';
      j += json_escape(name);
      j += "\": ";
      j += std::to_string(value);
    };
    if (e.arg_a_name != nullptr) arg(e.arg_a_name, e.arg_a);
    if (e.arg_b_name != nullptr) {
      if (e.arg_a_name != nullptr) j += ", ";
      arg(e.arg_b_name, e.arg_b);
    }
    j += "}}";
  }
  j += "\n]}\n";
  return j;
}

std::string metrics_json() {
  std::string j = "{\"counters\": {";
  for (uint32_t i = 0; i < static_cast<uint32_t>(Counter::kCount); ++i) {
    const Counter c = static_cast<Counter>(i);
    if (i > 0) j += ", ";
    j += '"';
    j += counter_name(c);
    j += "\": ";
    j += std::to_string(counter_value(c));
  }
  j += "}, \"gauges\": {";
  for (uint32_t i = 0; i < static_cast<uint32_t>(Gauge::kCount); ++i) {
    const Gauge g = static_cast<Gauge>(i);
    if (i > 0) j += ", ";
    j += '"';
    j += gauge_name(g);
    j += "\": ";
    j += std::to_string(gauge_value(g));
  }
  j += "}}\n";
  return j;
}

namespace {

std::string hex64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string events_array(const std::vector<Event>& events) {
  std::string j = "[";
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (i > 0) j += ",";
    j += "\n{\"kind\": \"" + std::string(event_kind_name(e.kind)) + "\"";
    j += ", \"tenant\": " + std::to_string(e.tenant);
    j += ", \"seq\": " + std::to_string(e.seq);
    j += ", \"tick\": " + std::to_string(e.tick);
    j += ", \"a\": " + std::to_string(e.a);
    j += ", \"b\": " + std::to_string(e.b) + "}";
  }
  j += "\n]";
  return j;
}

}  // namespace

std::string event_log_json() {
  std::string j = "{\"fingerprint\": \"" + hex64(event_fingerprint()) + "\"";
  j += ", \"dropped\": " + std::to_string(event_dropped());
  j += ", \"events\": " + events_array(event_snapshot()) + "}\n";
  return j;
}

std::string postmortem_json() {
  const PostmortemDump dump = postmortem_latest();
  std::string j = "{\"captures\": " + std::to_string(postmortem_count());
  j += ", \"reason\": ";
  if (dump.reason == nullptr) {
    j += "null";
  } else {
    j += '"';
    j += json_escape(dump.reason);
    j += '"';
  }
  j += ", \"tick\": " + std::to_string(dump.tick);
  j += ", \"events\": " + events_array(dump.events) + "}\n";
  return j;
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const size_t n = std::fwrite(content.data(), 1, content.size(), f);
  const int rc = std::fclose(f);
  return n == content.size() && rc == 0;
}

}  // namespace mn::obs
