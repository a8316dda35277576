#include "bench.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) throw std::logic_error("median of an empty sample");
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t heap_bytes_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<uint64_t>(mi.uordblks) + static_cast<uint64_t>(mi.hblkhd);
}

void MetricTable::add(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

Trace::Scope::Scope(Trace& trace, std::string name)
    : trace_(trace), index_(trace.spans_.size()),
      saved_parent_(trace.open_parent_) {
  Span s;
  s.name = std::move(name);
  s.id = index_ + 1;
  s.parent = trace.open_parent_;
  s.start = Clock::now();
  trace.spans_.push_back(std::move(s));
  trace.open_parent_ = index_ + 1;
}

double Trace::Scope::close() {
  Span& s = trace_.spans_[index_];
  if (open_) {
    s.end = Clock::now();
    trace_.open_parent_ = saved_parent_;
    open_ = false;
  }
  return std::chrono::duration<double>(s.end - s.start).count();
}

void Trace::write_json(std::ostream& os) const {
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[128];
    std::snprintf(buf, sizeof buf, "%.3f, \"dur\": %.3f", us(s.start),
                  us(s.end) - us(s.start));
    os << "  {\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, "
       << "\"tid\": 1, \"ts\": " << buf << ", \"args\": {\"id\": " << s.id
       << ", \"parent\": " << s.parent << "}}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

}  // namespace perfbench
