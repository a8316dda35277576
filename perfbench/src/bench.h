// Shared vocabulary of the benchmark binary: wall-clock helpers, the metric
// table each run prints, and the span recorder of the traced run.
//
// Every time in this benchmark is std::chrono::steady_clock wall time taken
// around a call into the library; no rate divides by CPU time.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of a non-empty sample (mean of the two middle values when even).
double median(std::vector<double> v);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();
/// Heap bytes currently allocated by this process (all malloc arenas,
/// mmapped chunks included).
uint64_t heap_bytes_in_use();

/// One printed metric: name, value, unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class MetricTable {
 public:
  void add(std::string name, double value, std::string unit);
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// In-memory span recorder for the traced run: every span has a name, a
/// start, an end and the span that was open when it began. Spans are kept
/// in memory and written once, as Chrome trace_event JSON (Perfetto opens
/// it), when the run ends.
class Trace {
 public:
  struct Span {
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = top level
    Clock::time_point start;
    Clock::time_point end;
  };

  /// RAII span: opens on construction, closes on destruction or close().
  class Scope {
   public:
    Scope(Trace& trace, std::string name);
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Close the span now and return its duration in seconds.
    double close();

   private:
    Trace& trace_;
    size_t index_;
    uint64_t saved_parent_;
    bool open_ = true;
  };

  void write_json(std::ostream& os) const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  uint64_t open_parent_ = 0;
};

}  // namespace perfbench
