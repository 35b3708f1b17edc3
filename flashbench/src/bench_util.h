// Small helpers shared by the benchmark's workloads: wall clock, sample
// summaries, order-independent hashing, and a minimal JSON writer for the
// result document run.py reads.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

namespace flashbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile q in [0, 1] of `v` (copied, then sorted);
/// 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(v.size() - 1, lo + 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

inline std::uint64_t fnv1a(const void* data, std::size_t size,
                           std::uint64_t hash = 14695981039346656037ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

template <typename T>
std::uint64_t fnv1a_vec(const std::vector<T>& v, std::uint64_t hash = 14695981039346656037ULL) {
  return fnv1a(v.data(), v.size() * sizeof(T), hash);
}

/// Hex rendering of a 64-bit fingerprint (JSON numbers lose bits above 2^53).
inline std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Append-only JSON object builder. Values are rendered eagerly; nested
/// objects and arrays are added as pre-rendered text.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    std::ostringstream os;
    os.precision(17);
    os << (std::isfinite(v) ? v : 0.0);
    return raw(key, os.str());
  }
  Json& integer(const std::string& key, long long v) { return raw(key, std::to_string(v)); }
  Json& boolean(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
  Json& str(const std::string& key, const std::string& v) { return raw(key, quote(v)); }
  Json& nums(const std::string& key, const std::vector<double>& v) {
    std::ostringstream os;
    os.precision(17);
    os << "[";
    for (std::size_t i = 0; i < v.size(); ++i) os << (i ? ", " : "") << v[i];
    os << "]";
    return raw(key, os.str());
  }
  Json& raw(const std::string& key, const std::string& text) {
    body_ += (body_.empty() ? "" : ", ") + quote(key) + ": " + text;
    return *this;
  }
  std::string render() const { return "{" + body_ + "}"; }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

/// Peak resident set size of this process so far, in MiB.
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Median, p90 and p99 of a latency sample (ms) plus its size.
inline std::string summary(const std::vector<double>& ms) {
  return Json()
      .integer("n", static_cast<long long>(ms.size()))
      .num("p50", quantile(ms, 0.50))
      .num("p90", quantile(ms, 0.90))
      .num("p99", quantile(ms, 0.99))
      .num("max", ms.empty() ? 0.0 : *std::max_element(ms.begin(), ms.end()))
      .num("mean", mean(ms))
      .render();
}

/// What every workload hands back to main(): its result document and
/// whether its output checks passed.
struct WorkloadResult {
  Json json;
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  /// Peak RSS (MiB) at the end of the workload's fixed work; 0 = at exit.
  double peak_rss_mb = 0.0;
  std::vector<std::string> problems;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  }
};

struct WorkloadArgs {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Non-empty: also run the traced pass and write the chrome JSON here.
  std::string trace_path;
};

WorkloadResult run_table1(const WorkloadArgs& args);
WorkloadResult run_serve_generate(const WorkloadArgs& args);
WorkloadResult run_serve_thresholds(const WorkloadArgs& args);
WorkloadResult run_characterize(const WorkloadArgs& args);

}  // namespace flashbench
