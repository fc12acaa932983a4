// Measurement plumbing for the end-to-end benchmark: sample statistics,
// in-memory spans, per-layer metric accumulation, a bit-exact digest and
// the JSON emitted on stdout. Nothing here calls into the library.

#ifndef M2M_E2E_BENCH_BENCH_UTIL_H_
#define M2M_E2E_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Median as Python's statistics.median computes it (mean of the middle
/// pair for an even count). 0 for no samples.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double total = 0.0;
  for (double x : v) total += x;
  return total / static_cast<double>(v.size());
}

/// The highest nearest-rank percentile that still has at least ten samples
/// beyond it, never below the median: with fewer than 21 samples no such
/// percentile exists above p50, so the tail is reported as the median (at
/// percentile 50) and the printed sample count says so.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
};

inline Tail TailOf(std::vector<double> v) {
  Tail tail;
  tail.samples = v.size();
  if (v.empty()) return tail;
  const size_t n = v.size();
  if (n < 21) {
    tail.value = Median(std::move(v));
    tail.percentile = 50.0;
    return tail;
  }
  std::sort(v.begin(), v.end());
  tail.value = v[n - 11];
  tail.percentile = 100.0 * static_cast<double>(n - 10) /
                    static_cast<double>(n);
  return tail;
}

/// FNV-1a over the exact bits of every simulated output, so two commits
/// (or two episodes) compare bit for bit.
class Digest {
 public:
  void Add(uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (x >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void AddDouble(double x) {
    uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    Add(bits);
  }
  uint64_t value() const { return hash_; }
  std::string Hex() const {
    std::ostringstream out;
    out << std::hex << std::setw(16) << std::setfill('0') << hash_;
    return out.str();
  }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Spans recorded around the public calls into each layer. They stay in
/// memory and are written once, when the run ends.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  int Begin(const std::string& name) {
    if (!on_) return -1;
    spans_.push_back(Span{name, current_, Now(), -1.0});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_ms = Now();
    current_ = spans_[static_cast<size_t>(id)].parent;
  }

  /// Chrome trace-event JSON ("X" events), readable by Perfetto.
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << s.start_ms * 1000.0 << ", \"dur\": "
          << (s.end_ms - s.start_ms) * 1000.0 << ", \"args\": {\"id\": " << i
          << ", \"parent\": " << s.parent << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }
  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double start_ms = 0.0;
    double end_ms = 0.0;
  };
  double Now() const { return MsBetween(origin_, Clock::now()); }

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int current_ = -1;
};

/// Runs `fn` inside a span and returns its wall time in milliseconds.
template <typename Fn>
double Timed(Tracer& tracer, const std::string& name, Fn&& fn) {
  const int id = tracer.Begin(name);
  const Clock::time_point start = Clock::now();
  fn();
  const double ms = MsBetween(start, Clock::now());
  tracer.End(id);
  return ms;
}

/// How a metric's samples reduce to the reported value.
enum class Reduce { kMedian, kMean, kMax };

struct MetricDef {
  const char* name;
  const char* unit;
  Reduce reduce;
};

/// Named sample buckets. Every metric in `defs` is reported, with value 0
/// and a sample count of 0 when the workload never exercised that layer.
class MetricSet {
 public:
  explicit MetricSet(std::vector<MetricDef> defs) : defs_(std::move(defs)) {}

  void Add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  /// Replaces any samples with one value.
  void Set(const std::string& name, double value) {
    samples_[name] = {value};
  }
  const std::vector<double>& Samples(const std::string& name) const {
    static const std::vector<double> kEmpty;
    auto it = samples_.find(name);
    return it == samples_.end() ? kEmpty : it->second;
  }

  double Value(const MetricDef& def) const {
    const std::vector<double>& v = Samples(def.name);
    if (v.empty()) return 0.0;
    switch (def.reduce) {
      case Reduce::kMedian:
        return Median(v);
      case Reduce::kMean:
        return Mean(v);
      case Reduce::kMax:
        return *std::max_element(v.begin(), v.end());
    }
    return 0.0;
  }

  /// `{"name": {"value": v, "unit": u}, ...}` — the result line's form.
  std::string MetricsJson() const {
    std::ostringstream out;
    out.precision(17);
    out << "{";
    for (size_t i = 0; i < defs_.size(); ++i) {
      out << (i == 0 ? "" : ", ") << "\"" << defs_[i].name
          << "\": {\"value\": " << Value(defs_[i]) << ", \"unit\": \""
          << defs_[i].unit << "\"}";
    }
    out << "}";
    return out.str();
  }

  /// Human-facing detail: value, unit and sample count per metric.
  std::string DetailJson() const {
    std::ostringstream out;
    out.precision(6);
    out << "{";
    for (size_t i = 0; i < defs_.size(); ++i) {
      out << (i == 0 ? "" : ", ") << "\"" << defs_[i].name
          << "\": {\"value\": " << Value(defs_[i]) << ", \"unit\": \""
          << defs_[i].unit << "\", \"samples\": "
          << Samples(defs_[i].name).size() << "}";
    }
    out << "}";
    return out.str();
  }

 private:
  std::vector<MetricDef> defs_;
  std::map<std::string, std::vector<double>> samples_;
};

}  // namespace e2e

#endif  // M2M_E2E_BENCH_BENCH_UTIL_H_
