#include "obs/trace_sink.hpp"

#include <ostream>

#include "common/text.hpp"

namespace fcdpm::obs {

namespace {

const char* phase_letter(EventKind kind) {
  switch (kind) {
    case EventKind::SpanBegin:
      return "B";
    case EventKind::SpanEnd:
      return "E";
    case EventKind::Instant:
      return "i";
    case EventKind::Counter:
      return "C";
  }
  return "i";
}

/// Round-trip double rendering; JSON has no Inf/NaN, so clamp NaN to a
/// null-safe literal (it only arises from caller bugs).
void append_number(std::string& out, double value) {
  if (value != value) {
    out += "0";
    return;
  }
  append_g17(out, value);
}

void append_args(std::string& out, const TraceEvent& e) {
  out += "{";
  for (std::size_t k = 0; k < e.arg_count && k < TraceEvent::kMaxArgs; ++k) {
    if (k > 0) {
      out += ",";
    }
    out += "\"";
    append_json_escaped(out, e.args[k].key);
    out += "\":";
    append_number(out, e.args[k].value);
  }
  out += "}";
}

}  // namespace

void append_json_escaped(std::string& out, const char* text) {
  for (const char* p = text; *p != '\0'; ++p) {
    const char c = *p;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += "0123456789abcdef"[(c >> 4) & 0xf];
          out += "0123456789abcdef"[c & 0xf];
        } else {
          out += c;
        }
    }
  }
}

std::string json_escape(const char* text) {
  std::string out;
  append_json_escaped(out, text);
  return out;
}

// --- JsonlTraceSink ----------------------------------------------------------

JsonlTraceSink::JsonlTraceSink(std::ostream& out) : out_(&out) {}

void JsonlTraceSink::event(const TraceEvent& e) {
  std::string line;
  line.reserve(96);
  line += "{\"ph\":\"";
  line += phase_letter(e.kind);
  line += "\",\"name\":\"";
  append_json_escaped(line, e.name);
  line += "\",\"cat\":\"";
  append_json_escaped(line, e.category);
  line += "\",\"t\":";
  append_number(line, e.time.value());
  line += ",\"track\":";
  append_number(line, static_cast<double>(e.track));
  if (e.arg_count > 0) {
    line += ",\"args\":";
    append_args(line, e);
  }
  line += "}\n";
  *out_ << line;
}

void JsonlTraceSink::track_name(int track, const char* name) {
  std::string line = "{\"ph\":\"M\",\"name\":\"thread_name\",\"track\":";
  append_number(line, static_cast<double>(track));
  line += ",\"args\":{\"name\":\"";
  append_json_escaped(line, name);
  line += "\"}}\n";
  *out_ << line;
}

void JsonlTraceSink::flush() { out_->flush(); }

// --- ChromeTraceSink ---------------------------------------------------------

ChromeTraceSink::ChromeTraceSink(std::ostream& out) : out_(&out) {
  *out_ << "{\"traceEvents\":[";
}

ChromeTraceSink::~ChromeTraceSink() { close(); }

void ChromeTraceSink::event(const TraceEvent& e) {
  if (closed_) {
    return;
  }
  std::string entry;
  entry.reserve(128);
  entry += first_ ? "\n" : ",\n";
  first_ = false;
  entry += "{\"name\":\"";
  append_json_escaped(entry, e.name);
  entry += "\",\"cat\":\"";
  append_json_escaped(entry, e.category);
  entry += "\",\"ph\":\"";
  entry += phase_letter(e.kind);
  entry += "\",\"ts\":";
  // Simulated seconds -> trace microseconds.
  append_number(entry, e.time.value() * 1e6);
  entry += ",\"pid\":1,\"tid\":";
  append_number(entry, static_cast<double>(e.track));
  if (e.kind == EventKind::Instant) {
    entry += ",\"s\":\"t\"";
  }
  if (e.arg_count > 0 || e.kind == EventKind::Counter) {
    entry += ",\"args\":";
    append_args(entry, e);
  }
  entry += "}";
  *out_ << entry;
}

void ChromeTraceSink::track_name(int track, const char* name) {
  if (closed_) {
    return;
  }
  std::string entry;
  entry += first_ ? "\n" : ",\n";
  first_ = false;
  entry +=
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
  append_number(entry, static_cast<double>(track));
  entry += ",\"args\":{\"name\":\"";
  append_json_escaped(entry, name);
  entry += "\"}}";
  *out_ << entry;
}

void ChromeTraceSink::flush() { out_->flush(); }

void ChromeTraceSink::close() {
  if (closed_) {
    return;
  }
  closed_ = true;
  *out_ << "\n],\"displayTimeUnit\":\"ms\"}\n";
  out_->flush();
}

}  // namespace fcdpm::obs
