#include "sim/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>

namespace fcc::sim {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) {
          out += c;
        } else {  // every other control character
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        }
    }
  }
  return out;
}

/// `ns` as microseconds with exactly three decimals, from the integer:
/// no rounding at any magnitude.
std::string json_us(TimeNs ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%lld.%03lld", ns < 0 ? "-" : "",
                std::llabs(ns / 1000), std::llabs(ns % 1000));
  return buf;
}

}  // namespace

void Trace::write_chrome_json(std::ostream& os) const {
  os << "[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  for (const auto& s : spans_) {
    sep();
    // Chrome trace wants microseconds; three decimals keep every ns.
    os << R"({"name":")" << json_escape(s.name) << R"(","cat":")"
       << json_escape(s.category) << R"(","ph":"X","pid":)" << s.pid
       << R"(,"tid":)" << s.tid << R"(,"ts":)" << json_us(s.start)
       << R"(,"dur":)" << json_us(s.end - s.start) << "}";
  }
  for (const auto& i : instants_) {
    sep();
    os << R"({"name":")" << json_escape(i.name) << R"(","cat":")"
       << json_escape(i.category) << R"(","ph":"i","s":"t","pid":)" << i.pid
       << R"(,"tid":)" << i.tid << R"(,"ts":)" << json_us(i.at) << "}";
  }
  os << "\n]\n";
}

void Trace::render_ascii(std::ostream& os, const AsciiOptions& opts) const {
  if (spans_.empty() && instants_.empty()) {
    os << "(empty trace)\n";
    return;
  }

  TimeNs t0 = kTimeNever, t1 = 0;
  for (const auto& s : spans_) {
    t0 = std::min(t0, s.start);
    t1 = std::max(t1, s.end);
  }
  for (const auto& i : instants_) {
    t0 = std::min(t0, i.at);
    t1 = std::max(t1, i.at);
  }
  if (t1 <= t0) t1 = t0 + 1;

  const double scale =
      static_cast<double>(opts.width) / static_cast<double>(t1 - t0);
  auto col = [&](TimeNs t) {
    auto c = static_cast<int>(static_cast<double>(t - t0) * scale);
    return std::clamp(c, 0, opts.width - 1);
  };

  // Collect tracks in (pid, tid) order.
  std::map<std::pair<int, int>, std::string> rows;
  auto row_for = [&](int pid, int tid) -> std::string* {
    auto key = std::make_pair(pid, tid);
    auto it = rows.find(key);
    if (it == rows.end()) {
      if (static_cast<int>(rows.size()) >= opts.max_tracks) return nullptr;
      it = rows.emplace(key, std::string(opts.width, '.')).first;
    }
    return &it->second;
  };

  for (const auto& s : spans_) {
    std::string* row = row_for(s.pid, s.tid);
    if (row == nullptr) continue;
    const char glyph = s.category.empty() ? '#' : s.category[0];
    const int c0 = col(s.start);
    const int c1 = std::max(c0, col(s.end - 1));
    for (int c = c0; c <= c1; ++c) (*row)[c] = glyph;
  }
  if (opts.show_instants) {
    for (const auto& i : instants_) {
      std::string* row = row_for(i.pid, i.tid);
      if (row == nullptr) continue;
      (*row)[col(i.at)] = '*';
    }
  }

  os << "time: [" << t0 << " ns .. " << t1 << " ns], width " << opts.width
     << " chars ("
     << static_cast<double>(t1 - t0) / static_cast<double>(opts.width)
     << " ns/char)\n";
  for (const auto& [key, row] : rows) {
    char label[32];
    std::snprintf(label, sizeof(label), "p%02d/t%03d |", key.first,
                  key.second);
    os << label << row << "|\n";
  }
}

}  // namespace fcc::sim
