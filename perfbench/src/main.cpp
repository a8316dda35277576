// perfbench: the repository's benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.json>] [--tiny]
//   perfbench --self-test
//
// Prints a machine-context line, one line per metric (name, value, unit),
// and as its last line one JSON object with the keys correct, attempted,
// failed and metrics. perfbench/run.py builds this binary and forwards the
// arguments; perfbench/README.md documents every metric.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "bench.h"
#include "gf/gf_kernels.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>] [--tiny]\n"
            << "       perfbench --self-test\nworkloads:";
  for (const auto& w : workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  return 2;
}

std::string load_average() {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "[%.2f, %.2f, %.2f]", load[0], load[1],
                load[2]);
  return buf;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool parse_u64(const std::string& s, uint64_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos ||
      s.size() > 19) {
    return false;
  }
  *out = std::stoull(s);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory in the process instead of returning it to the kernel
  // after every call: repeated calls then reuse warm pages. Returned and
  // re-faulted pages cost register-contended about 16% of its time on a
  // 4-vCPU VM, and that cost swung by a third between host phases, which
  // made run-to-run medians unsteady.
  if (mallopt(M_MMAP_THRESHOLD, 32 << 20) != 1 ||
      mallopt(M_TRIM_THRESHOLD, 1 << 30) != 1) {
    std::cerr << "perfbench: mallopt failed\n";
    return 1;
  }
  RunRequest req;
  bool have_workload = false;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](std::string* into) {
      if (i + 1 >= argc) return false;
      *into = argv[++i];
      return true;
    };
    std::string v;
    uint64_t n = 0;
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--tiny") {
      req.tiny = true;
    } else if (arg == "--workload") {
      if (!value(&req.workload)) return usage("--workload needs a value");
      have_workload = true;
    } else if (arg == "--seed") {
      if (!value(&v) || !parse_u64(v, &req.seed)) return usage("bad --seed");
    } else if (arg == "--seconds") {
      if (!value(&v) || !parse_u64(v, &n) || n < 1 || n > 600) {
        return usage("--seconds must be a whole number in [1, 600]");
      }
      req.seconds = static_cast<double>(n);
    } else if (arg == "--trace") {
      if (!value(&v) || (v != "0" && v != "1")) return usage("--trace 0|1");
      req.trace = v == "1";
    } else if (arg == "--trace-out") {
      if (!value(&req.trace_out)) return usage("--trace-out needs a value");
    } else {
      return usage("unknown argument '" + arg + "'");
    }
  }

  if (self_test) {
    const std::string why = check_inline_replay();
    if (!why.empty()) {
      std::cerr << "self-test FAILED: " << why << "\n";
      return 1;
    }
    std::cout << "inline replay matches the round-robin simulator run\n";
    return 0;
  }
  if (!have_workload) return usage("--workload is required");

  const std::string load_start = load_average();
  RunOutput out;
  try {
    out = run_workload(req);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << req.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  for (const auto& p : out.problems) {
    std::cerr << "perfbench: gate: " << p << "\n";
  }
  if (out.metrics.all().empty()) {
    std::cerr << "perfbench: no repetition passed its correctness gate\n";
    return 1;
  }

  std::cout << "{\"context\": {\"workload\": \"" << req.workload
            << "\", \"seed\": " << req.seed << ", \"seconds\": " << req.seconds
            << ", \"trace\": " << (req.trace ? 1 : 0)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"load_start\": " << load_start
            << ", \"load_end\": " << load_average() << ", \"build_type\": \""
            << PERFBENCH_BUILD_TYPE << "\", \"compiler\": \""
            << PERFBENCH_COMPILER << "\", \"gf_backend\": \""
            << sbrs::gf::kern::backend() << "\"}}\n";
  for (const Metric& m : out.metrics.all()) {
    std::printf("%-32s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::fflush(stdout);

  std::cout << "{\"correct\": " << (out.correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {";
  const auto& all = out.metrics.all();
  for (size_t i = 0; i < all.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << all[i].name
              << "\": {\"value\": " << number(all[i].value)
              << ", \"unit\": \"" << all[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
