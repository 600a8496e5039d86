#include "benchlib/json_writer.h"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

namespace wireframe {

namespace {

std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
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
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

}  // namespace

void JsonResultWriter::SetMeta(const std::string& key,
                               const std::string& value) {
  for (auto& [k, v] : meta_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  meta_.emplace_back(key, value);
}

std::string JsonResultWriter::ToJson() const {
  std::ostringstream os;
  const char* indent = "  ";
  if (!meta_.empty()) {
    indent = "    ";
    os << "{\n  \"meta\": {";
    for (size_t i = 0; i < meta_.size(); ++i) {
      os << (i == 0 ? "" : ",") << "\n    \"" << Escape(meta_[i].first)
         << "\": \"" << Escape(meta_[i].second) << "\"";
    }
    os << "\n  },\n  \"records\": ";
  }
  os << "[\n";
  for (size_t i = 0; i < records_.size(); ++i) {
    const BenchRecord& r = records_[i];
    os << indent << "{\"engine\": \"" << Escape(r.engine) << "\""
       << ", \"query\": \"" << Escape(r.query) << "\""
       << ", \"ok\": " << (r.ok ? "true" : "false")
       << ", \"timed_out\": " << (r.timed_out ? "true" : "false")
       << ", \"seconds\": " << FormatDouble(r.seconds)
       << ", \"edge_walks\": " << r.edge_walks
       << ", \"output_tuples\": " << r.output_tuples
       << ", \"ag_pairs\": " << r.ag_pairs
       << ", \"threads\": " << r.threads
       << ", \"phase1_seconds\": " << FormatDouble(r.phase1_seconds)
       << ", \"burnback_seconds\": " << FormatDouble(r.burnback_seconds)
       << ", \"freeze_seconds\": " << FormatDouble(r.freeze_seconds)
       << ", \"phase2_seconds\": " << FormatDouble(r.phase2_seconds)
       << ", \"aggregate_seconds\": " << FormatDouble(r.aggregate_seconds)
       << ", \"p50_seconds\": " << FormatDouble(r.p50_seconds)
       << ", \"p99_seconds\": " << FormatDouble(r.p99_seconds) << "}"
       << (i + 1 < records_.size() ? "," : "") << "\n";
  }
  if (!meta_.empty()) {
    os << "  ]\n}\n";
  } else {
    os << "]\n";
  }
  return os.str();
}

bool JsonResultWriter::WriteTo(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "json_writer: cannot open " << path << " for writing\n";
    return false;
  }
  out << ToJson();
  return static_cast<bool>(out);
}

}  // namespace wireframe
