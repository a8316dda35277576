#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bounds/formulas.h"
#include "consistency/checker.h"
#include "harness/algorithms.h"
#include "harness/export.h"
#include "harness/runner.h"
#include "harness/sweep.h"
#include "layers.h"
#include "sim/schedulers.h"
#include "sim/simulator.h"
#include "sim/workload.h"
#include "store/store.h"
#include "store/ycsb.h"

namespace perfbench {

using namespace sbrs;

namespace {

constexpr uint32_t kF = 1;
constexpr uint32_t kK = 2;
constexpr uint32_t kN = 2 * kF + kK;

// Why each workload exists is recorded in perfbench/README.md. The sizes
// keep one measured round between about 0.3 and 1.5 s on a 4-vCPU VM, so a
// 30 s run takes at least twenty rounds and reports their medians.
struct Spec {
  std::string name;
  bool store = false;
  uint64_t data_bits = 1024;
  // Register workloads.
  uint32_t writers = 0;
  uint32_t readers = 0;
  // Store workloads.
  uint32_t keys = 0;
  uint32_t shards = 0;
  store::ycsb::Mix mix = store::ycsb::Mix::kB;
  store::ycsb::Distribution dist = store::ycsb::Distribution::kZipfian;
  // Both: closed-loop sessions (writers + readers for registers) and the
  // operations each performs.
  uint32_t sessions = 0;
  uint32_t ops_per_session = 0;
  /// Schedule seeds per measured round (round_seeds).
  uint32_t seeds_per_round = 1;
};

std::vector<Spec> specs(bool tiny) {
  std::vector<Spec> v;
  {
    Spec s;
    s.name = "register-contended";
    s.writers = 8;
    s.readers = 8;
    s.sessions = 16;
    s.ops_per_session = tiny ? 8 : 250;
    s.seeds_per_round = tiny ? 2 : 8;
    v.push_back(s);
  }
  {
    Spec s;
    s.name = "store-zipf-read";
    s.store = true;
    s.keys = tiny ? 512 : 100000;
    s.shards = 4;
    s.sessions = 16;
    s.ops_per_session = tiny ? 8 : 4000;
    s.mix = store::ycsb::Mix::kB;
    s.dist = store::ycsb::Distribution::kZipfian;
    v.push_back(s);
  }
  {
    Spec s;
    s.name = "store-large-write";
    s.store = true;
    s.data_bits = 32768;
    s.keys = tiny ? 256 : 10000;
    s.shards = 4;
    s.sessions = 16;
    s.ops_per_session = tiny ? 8 : 1000;
    s.mix = store::ycsb::Mix::kA;
    s.dist = store::ycsb::Distribution::kUniform;
    v.push_back(s);
  }
  return v;
}

registers::RegisterConfig config_of(const Spec& s) {
  registers::RegisterConfig cfg;
  cfg.n = kN;
  cfg.k = kK;
  cfg.f = kF;
  cfg.data_bits = s.data_bits;
  return cfg;
}

uint64_t ops_per_rep(const Spec& s) {
  return uint64_t{s.sessions} * s.ops_per_session;
}

uint32_t drain_threads(const Spec& s) {
  const uint32_t cpus = std::max(1u, std::thread::hardware_concurrency());
  return std::min(s.shards, cpus);
}

harness::RunOptions register_options(const Spec& s, uint64_t seed,
                                     harness::Backend backend, bool check) {
  harness::RunOptions o;
  o.writers = s.writers;
  o.writes_per_client = s.ops_per_session;
  o.readers = s.readers;
  o.reads_per_client = s.ops_per_session;
  o.seed = seed;
  o.scheduler = harness::SchedKind::kRandom;
  o.backend = backend;
  o.check_consistency = check;
  // One decimated storage sample per 1024 events: the series is not
  // exported here, and the Definition 2 maxima stay exact regardless.
  o.sample_every = 1024;
  return o;
}

store::StoreOptions store_options(const Spec& s, uint64_t seed,
                                  harness::Backend backend, bool check) {
  store::StoreOptions o;
  o.algorithm = "adaptive";
  o.register_config = config_of(s);
  o.num_shards = s.shards;
  o.workload.num_keys = s.keys;
  o.workload.clients = s.sessions;
  o.workload.ops_per_client = s.ops_per_session;
  o.workload.mix = s.mix;
  o.workload.distribution = s.dist;
  o.workload.zipf_theta = 0.99;
  o.workload.seed = seed;
  o.seed = seed;
  o.threads = drain_threads(s);
  o.check_consistency = check;
  o.backend = backend;
  return o;
}

/// The store the traced run of a register workload measures the store layer
/// with: the workload's sessions, operation count and D over 4 shards of
/// 4096 zipfian-read keys (register workloads hold a single key, which
/// leaves no multiplexer or mount work to time).
Spec store_probe_of(const Spec& s) {
  Spec p = s;
  p.store = true;
  p.keys = 4096;
  p.shards = 4;
  p.mix = store::ycsb::Mix::kB;
  p.dist = store::ycsb::Distribution::kZipfian;
  return p;
}

/// One untraced checked repetition's measurements.
struct Rep {
  bool ok = true;
  std::vector<std::string> why;
  double setup_s = 0;
  double run_s = 0;
  double total_s = 0;
  double storage_cost_xD = 0;
  uint64_t completed = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t fingerprint = 0;

  void fail(std::string reason) {
    ok = false;
    why.push_back(std::move(reason));
  }
};

struct KindLatency {
  metrics::LatencyHistogram read;
  metrics::LatencyHistogram write;
};

/// Per-kind latency of a history's completed operations, in the unit of
/// its timestamps (simulator steps).
KindLatency split_latency(const sim::History& h) {
  KindLatency k;
  for (const sim::OpRecord& rec : h.ops()) {
    if (!rec.complete()) continue;
    (rec.kind == sim::OpKind::kRead ? k.read : k.write)
        .record(*rec.return_time - rec.invoke_time);
  }
  return k;
}

/// The register run's export: the outcome summary a single simulator
/// experiment produces, with its latency histograms through
/// harness/export.h.
void write_register_json(std::ostream& os, const harness::RunOutcome& out,
                         const KindLatency& kinds) {
  os << std::boolalpha << "{\"algorithm\": \""
     << harness::json_escape(out.algorithm)
     << "\", \"backend\": \"" << harness::to_string(out.backend)
     << "\", \"invoked_ops\": " << out.report.invoked_ops
     << ", \"completed_ops\": " << out.report.completed_ops
     << ", \"steps\": " << out.report.steps
     << ", \"max_total_bits\": " << out.max_total_bits
     << ", \"max_object_bits\": " << out.max_object_bits
     << ", \"final_object_bits\": " << out.final_object_bits
     << ", \"checks\": {\"values_legal\": " << out.values_legal.ok
     << ", \"weak_regular\": " << out.weak_regular.ok
     << ", \"strong_regular\": " << out.strong_regular.ok
     << ", \"strongly_safe\": " << out.strongly_safe.ok
     << "}, \"live\": " << out.live << ", \"op_latency\": ";
  harness::write_latency_json(os, out.report.op_latency);
  os << ", \"read_latency\": ";
  harness::write_latency_json(os, kinds.read);
  os << ", \"write_latency\": ";
  harness::write_latency_json(os, kinds.write);
  os << "}\n";
}

/// Theorem 2's quiescence clause for `mounted` registers of which `touched`
/// were written or read: each converges to one D/k piece per object. FIFO
/// delivery (the threaded mesh) lands every straggler RMW in trigger order,
/// so the total is exact; the random scheduler may deliver a write's own
/// update after its garbage collection on up to f objects, which then end
/// empty (the bound the repository's adaptive GC tests pin).
std::pair<uint64_t, uint64_t> final_bits_range(harness::Backend backend,
                                               uint64_t mounted,
                                               uint64_t touched, uint64_t D) {
  const uint64_t quiescent = bounds::adaptive_quiescent_bits(kF, kK, D);
  const uint64_t stragglers = backend == harness::Backend::kThreads
                                  ? 0
                                  : touched * kF * bounds::piece_bits(kK, D);
  return {mounted * quiescent - stragglers, mounted * quiescent};
}

/// The correctness gate of a register run (either backend).
void gate_register(const Spec& s, const harness::RunOutcome& out, bool checked,
                   Rep& rep) {
  const uint64_t D = s.data_bits;
  if (!out.live) rep.fail("an operation of a live session did not complete");
  if (out.report.completed_ops != ops_per_rep(s)) {
    rep.fail("completed " + std::to_string(out.report.completed_ops) + " of " +
             std::to_string(ops_per_rep(s)) + " operations");
  }
  if (checked) {
    const std::pair<const char*, const consistency::CheckResult*> levels[] = {
        {"values-legal", &out.values_legal},
        {"weak regularity", &out.weak_regular},
        {"strong regularity", &out.strong_regular},
        {"strong safety", &out.strongly_safe}};
    for (const auto& [name, res] : levels) {
      if (!res->ok) rep.fail(std::string("history fails ") + name);
    }
  }
  // The threaded backend reports the sum of per-object maxima, an upper
  // envelope of the true peak; the simulator reports the exact peak.
  const uint64_t peak = out.backend == harness::Backend::kThreads
                            ? out.max_total_bits
                            : out.max_object_bits;
  const uint64_t cap = bounds::adaptive_upper_bound_bits(kF, kK, s.writers, D);
  if (peak > cap) {
    rep.fail("peak object bits " + std::to_string(peak) +
             " exceed the adaptive bound " + std::to_string(cap));
  }
  const auto [lo, hi] = final_bits_range(out.backend, 1, 1, D);
  if (out.final_object_bits < lo || out.final_object_bits > hi) {
    rep.fail("final object bits " + std::to_string(out.final_object_bits) +
             " outside [" + std::to_string(lo) + ", " + std::to_string(hi) +
             "]");
  }
}

/// The correctness gate of a store run on either backend.
void gate_store(const Spec& s, const store::StoreResult& r,
                harness::Backend backend, bool checked, Rep& rep) {
  const uint64_t D = s.data_bits;
  const uint64_t done = r.completed_reads + r.completed_writes;
  if (!r.all_live) rep.fail("an operation of a live session did not complete");
  if (done != ops_per_rep(s)) {
    rep.fail("completed " + std::to_string(done) + " of " +
             std::to_string(ops_per_rep(s)) + " operations");
  }
  if (checked && r.consistency_failures != 0) {
    rep.fail(std::to_string(r.consistency_failures) +
             " keys fail strong regularity");
  }
  const uint64_t quiescent = bounds::adaptive_quiescent_bits(kF, kK, D);
  const uint64_t cap = bounds::adaptive_upper_bound_bits(kF, kK, s.sessions, D);
  for (const store::ShardResult& sh : r.shards) {
    // Untouched keys hold their v0 pieces; each touched key stays under the
    // adaptive cap and shrinks back to one piece per object.
    const uint64_t limit =
        uint64_t{sh.keys_mounted - sh.keys_touched} * quiescent +
        uint64_t{sh.keys_touched} * cap;
    const uint64_t peak = backend == harness::Backend::kThreads
                              ? sh.max_total_bits
                              : sh.max_object_bits;
    if (peak > limit) {
      rep.fail("shard " + std::to_string(sh.shard) + " peak object bits " +
               std::to_string(peak) + " exceed " + std::to_string(limit));
    }
    const auto [lo, hi] =
        final_bits_range(backend, sh.keys_mounted, sh.keys_touched, D);
    if (sh.final_object_bits < lo || sh.final_object_bits > hi) {
      rep.fail("shard " + std::to_string(sh.shard) + " final object bits " +
               std::to_string(sh.final_object_bits) + " outside [" +
               std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
  }
}

/// The store's own timing of a run: its drain wall time must fit inside
/// the benchmark's span, and its rate times that wall time must give back
/// the completed operations.
void check_store_rate(Rep& rep, const store::StoreResult& r) {
  if (r.wall_seconds > rep.run_s) {
    rep.fail("store wall time exceeds the benchmark's wall span");
  }
  if (std::fabs(r.ops_per_sec * r.wall_seconds - double(rep.completed)) >
      1e-6 * double(rep.completed)) {
    rep.fail("store rate x wall time != completed operations");
  }
}

Rep register_rep(const Spec& s, uint64_t seed) {
  Rep rep;
  const registers::RegisterConfig cfg = config_of(s);
  // Algorithm construction takes microseconds: time 32 and keep the median.
  std::vector<double> builds;
  std::unique_ptr<registers::RegisterAlgorithm> alg;
  for (int i = 0; i < 32; ++i) {
    const auto b0 = Clock::now();
    alg = harness::make_algorithm("adaptive", cfg);
    builds.push_back(seconds_since(b0));
  }
  rep.setup_s = median(builds);

  const auto r0 = Clock::now();
  const harness::RunOutcome out = harness::run_register_experiment(
      *alg, register_options(s, seed, harness::Backend::kSim, true));
  rep.run_s = seconds_since(r0);

  const auto e0 = Clock::now();
  const KindLatency kinds = split_latency(out.history);
  std::ostringstream js;
  write_register_json(js, out, kinds);
  const double export_s = seconds_since(e0);
  rep.total_s = rep.setup_s + rep.run_s + export_s;

  rep.completed = out.report.completed_ops;
  rep.reads = out.history.completed_reads();
  rep.writes = out.history.completed_writes();
  rep.storage_cost_xD =
      static_cast<double>(out.max_total_bits) / static_cast<double>(s.data_bits);
  gate_register(s, out, true, rep);
  rep.fingerprint = harness::outcome_fingerprint(out);
  return rep;
}

Rep store_rep(const Spec& s, uint64_t seed) {
  Rep rep;
  const auto t0 = Clock::now();
  store::Store st(store_options(s, seed, harness::Backend::kSim, true));
  rep.setup_s = seconds_since(t0);
  const auto r0 = Clock::now();
  const store::StoreResult r = st.run();
  rep.run_s = seconds_since(r0);
  std::ostringstream js;
  store::write_store_json(js, r);
  rep.total_s = seconds_since(t0);

  rep.completed = r.completed_reads + r.completed_writes;
  rep.reads = r.completed_reads;
  rep.writes = r.completed_writes;
  rep.storage_cost_xD =
      static_cast<double>(r.peak_total_bits_sum) /
      (static_cast<double>(s.data_bits) * static_cast<double>(s.keys));
  gate_store(s, r, harness::Backend::kSim, true, rep);
  rep.fingerprint = r.fingerprint();
  check_store_rate(rep, r);
  return rep;
}

Rep one_rep(const Spec& s, uint64_t seed) {
  return s.store ? store_rep(s, seed) : register_rep(s, seed);
}

/// The seeds one round of a workload runs: the run's seed expanded into
/// `seeds_per_round` schedule seeds, so a run's medians average over several
/// random schedules instead of resting on one.
std::vector<uint64_t> round_seeds(const Spec& s, uint64_t seed) {
  std::vector<uint64_t> v;
  for (uint32_t i = 0; i < s.seeds_per_round; ++i) {
    v.push_back(harness::cell_seed(seed, i, 0));
  }
  return v;
}

/// Untraced checked rounds for `seconds` (at least `min_rounds`), folded
/// into `out`: attempted/failed counts, gate verdicts, and the agreement of
/// each seed's simulator fingerprint across rounds. Returns one Rep per
/// round with a passing call, its times the mean over the passing calls.
std::vector<Rep> measure(const Spec& s, uint64_t seed, double seconds,
                         size_t min_rounds, RunOutput& out) {
  const std::vector<uint64_t> seeds = round_seeds(s, seed);
  std::vector<std::optional<uint64_t>> fingerprints(seeds.size());
  std::vector<Rep> passed;
  const auto t0 = Clock::now();
  for (size_t round = 0; round < min_rounds || seconds_since(t0) < seconds;
       ++round) {
    // A call that fails its gate counts its operations as failed and adds
    // no timing; the round's times average its passing calls.
    std::vector<Rep> ok;
    for (size_t i = 0; i < seeds.size(); ++i) {
      Rep rep = one_rep(s, seeds[i]);
      if (fingerprints[i] && *fingerprints[i] != rep.fingerprint) {
        rep.fail("simulator fingerprint differs between rounds of seed " +
                 std::to_string(seeds[i]));
      }
      fingerprints[i] = rep.fingerprint;
      out.attempted += ops_per_rep(s);
      if (rep.ok) {
        ok.push_back(std::move(rep));
        continue;
      }
      out.correct = false;
      out.failed += ops_per_rep(s);
      for (auto& w : rep.why) {
        if (out.problems.size() < 8) {
          out.problems.push_back("seed " + std::to_string(seeds[i]) + ": " +
                                 std::move(w));
        }
      }
    }
    if (ok.empty()) continue;
    Rep mean = ok.front();
    const double w = 1.0 / static_cast<double>(ok.size());
    mean.setup_s = mean.run_s = mean.total_s = mean.storage_cost_xD = 0;
    for (const Rep& r : ok) {
      mean.setup_s += w * r.setup_s;
      mean.run_s += w * r.run_s;
      mean.total_s += w * r.total_s;
      mean.storage_cost_xD += w * r.storage_cost_xD;
    }
    std::fprintf(stderr,
                 "round %zu: %zu/%zu calls passed; setup %.6f s, run %.6f s, "
                 "total %.6f s\n",
                 round, ok.size(), seeds.size(), mean.setup_s, mean.run_s,
                 mean.total_s);
    passed.push_back(std::move(mean));
  }
  return passed;
}

template <typename F>
std::vector<double> column(const std::vector<Rep>& reps, F f) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(f(r));
  return v;
}

void end_to_end_metrics(const Spec& s, const std::vector<Rep>& reps,
                        RunOutput& out) {
  const double run_s = median(column(reps, [](const Rep& r) { return r.run_s; }));
  const double ops_per_s = static_cast<double>(ops_per_rep(s)) / run_s;
  // Honest rates: the printed rate times the printed wall time gives back
  // the operations each repetition completed.
  for (const Rep& r : reps) {
    if (r.completed != ops_per_rep(s) ||
        std::fabs(ops_per_s * run_s - double(r.completed)) >
            1e-9 * double(r.completed)) {
      out.correct = false;
      out.problems.push_back("ops_per_s x run_s != completed operations");
    }
  }
  MetricTable& m = out.metrics;
  m.add("setup_s", median(column(reps, [](const Rep& r) { return r.setup_s; })),
        "s");
  m.add("run_s", run_s, "s");
  m.add("total_s", median(column(reps, [](const Rep& r) { return r.total_s; })),
        "s");
  m.add("ops_per_s", ops_per_s, "1/s");
  m.add("storage_cost_xD",
        median(column(reps, [](const Rep& r) { return r.storage_cost_xD; })),
        "xD");
  m.add("peak_rss_mb", peak_rss_mb(), "MiB");
}

// ---------------------------------------------------------------------------
// The traced run.

struct CheckTimes {
  double values_legal = 0;
  double weak_regular = 0;
  double strong_regular = 0;
  double strongly_safe = 0;
  uint64_t history_ops = 0;
  uint64_t max_key_ops = 0;
  bool ok = true;
};

/// Run the four checkers over `histories`, one span per checker.
CheckTimes timed_checks(Trace& trace,
                        const std::vector<const sim::History*>& histories) {
  CheckTimes t;
  for (const sim::History* h : histories) {
    const uint64_t ops = h->invoke_count();
    t.history_ops += ops;
    t.max_key_ops = std::max(t.max_key_ops, ops);
  }
  auto pass = [&](const char* name, double& into,
                  consistency::CheckResult (*check)(const sim::History&)) {
    Trace::Scope span(trace, std::string("consistency.") + name);
    for (const sim::History* h : histories) {
      if (!check(*h).ok) t.ok = false;
    }
    into = span.close();
  };
  pass("values_legal", t.values_legal, consistency::check_values_legal);
  pass("weak_regular", t.weak_regular, consistency::check_weak_regularity);
  pass("strong_regular", t.strong_regular,
       consistency::check_strong_regularity);
  pass("strongly_safe", t.strongly_safe, consistency::check_strongly_safe);
  return t;
}

struct StoreLayer {
  double mount_us_per_key = 0;
  double bytes_per_key = 0;
  double generate_s = 0;
  double run_nocheck_s = 0;
  double engine_thread_s = 0;  // summed per-shard drain time
  double split_s = 0;
  double shard_op_skew = 0;
  double json_s = 0;
  double json_bytes = 0;
  store::StoreResult result;
  std::vector<std::map<uint32_t, sim::History>> by_key;  // per shard
};

/// Mount, generate, run unchecked, split and export one store, with spans.
StoreLayer traced_store(const Spec& s, uint64_t seed, Trace& trace,
                        const std::string& prefix) {
  StoreLayer L;
  const store::StoreOptions opts =
      store_options(s, seed, harness::Backend::kSim, false);
  const uint64_t heap0 = heap_bytes_in_use();
  Trace::Scope mount(trace, prefix + "store.mount");
  store::Store st(opts);
  const double mount_s = mount.close();
  const uint64_t heap1 = heap_bytes_in_use();
  L.mount_us_per_key = mount_s * 1e6 / s.keys;
  L.bytes_per_key =
      static_cast<double>(heap1 > heap0 ? heap1 - heap0 : 0) / s.keys;
  {
    Trace::Scope span(trace, prefix + "store.generate");
    const auto ops = store::ycsb::generate(opts.workload);
    if (ops.size() != ops_per_rep(s)) {
      throw std::logic_error("ycsb::generate produced a short stream");
    }
    L.generate_s = span.close();
  }
  {
    Trace::Scope span(trace, prefix + "store.run_nocheck");
    L.result = st.run();
    L.run_nocheck_s = span.close();
  }
  {
    Trace::Scope span(trace, prefix + "store.split");
    for (uint32_t i = 0; i < s.shards; ++i) {
      L.by_key.push_back(store::split_history_by_key(
          st.shard_sim(i).history(), st.shard_op_keys(i)));
    }
    L.split_s = span.close();
  }
  {
    Trace::Scope span(trace, prefix + "export.json");
    std::ostringstream js;
    store::write_store_json(js, L.result);
    L.json_bytes = static_cast<double>(js.str().size());
    L.json_s = span.close();
  }
  uint64_t max_ops = 0;
  uint64_t sum_ops = 0;
  for (const auto& sh : L.result.shards) {
    max_ops = std::max<uint64_t>(max_ops, sh.report.completed_ops);
    sum_ops += sh.report.completed_ops;
    L.engine_thread_s += sh.wall_seconds;
  }
  L.shard_op_skew = static_cast<double>(max_ops) /
                    (static_cast<double>(sum_ops) / L.result.shards.size());
  return L;
}

struct SimLayer {
  double run_nocheck_s = 0;
  double steps = 0;
  double completed = 0;
  KindLatency latency;
};

struct RuntimeLayer {
  double run_nocheck_s = 0;
  double rmws = 0;
  double completed = 0;
  metrics::LatencyHistogram read{metrics::LatencyUnit::kNanos};
  metrics::LatencyHistogram write{metrics::LatencyUnit::kNanos};
};

void add_runtime_metrics(MetricTable& m, const RuntimeLayer& rt,
                         const SimLayer& sim, double rtt_us) {
  m.add("runtime.channel_rtt_us", rtt_us, "us");
  m.add("runtime.run_nocheck_s", rt.run_nocheck_s, "s");
  m.add("runtime.rmws_per_s", rt.rmws / rt.run_nocheck_s, "1/s");
  m.add("runtime.read_p50_us", rt.read.p50() / 1e3, "us");
  m.add("runtime.read_p99_us", rt.read.p99() / 1e3, "us");
  m.add("runtime.write_p50_us", rt.write.p50() / 1e3, "us");
  m.add("runtime.write_p99_us", rt.write.p99() / 1e3, "us");
  m.add("runtime.threads_vs_sim",
        (rt.completed / rt.run_nocheck_s) / (sim.completed / sim.run_nocheck_s),
        "ratio");
}

void add_sim_metrics(MetricTable& m, const SimLayer& sim) {
  m.add("sim.run_nocheck_s", sim.run_nocheck_s, "s");
  m.add("sim.steps_per_s", sim.steps / sim.run_nocheck_s, "1/s");
  m.add("sim.steps_per_op", sim.steps / sim.completed, "steps");
  m.add("sim.read_p50_steps", double(sim.latency.read.p50()), "steps");
  m.add("sim.read_p99_steps", double(sim.latency.read.p99()), "steps");
  m.add("sim.write_p50_steps", double(sim.latency.write.p50()), "steps");
  m.add("sim.write_p99_steps", double(sim.latency.write.p99()), "steps");
}

void add_store_metrics(MetricTable& m, const StoreLayer& L) {
  m.add("store.mount_us_per_key", L.mount_us_per_key, "us");
  m.add("store.bytes_per_key", L.bytes_per_key, "B");
  m.add("store.generate_s", L.generate_s, "s");
  m.add("store.run_nocheck_s", L.run_nocheck_s, "s");
  m.add("store.split_s", L.split_s, "s");
  m.add("store.shard_op_skew", L.shard_op_skew, "ratio");
}

void add_consistency_metrics(MetricTable& m, const CheckTimes& c,
                             double share) {
  m.add("consistency.history_ops", double(c.history_ops), "count");
  m.add("consistency.max_key_ops", double(c.max_key_ops), "count");
  m.add("consistency.values_legal_s", c.values_legal, "s");
  m.add("consistency.weak_regular_s", c.weak_regular, "s");
  m.add("consistency.strong_regular_s", c.strong_regular, "s");
  m.add("consistency.strongly_safe_s", c.strongly_safe, "s");
  m.add("consistency.share", share, "ratio");
}

/// Layer probes every workload shares: GF rows, the codec and the protocol
/// with no engine, all at the workload's D.
void add_probe_metrics(MetricTable& m, const Spec& s, uint64_t seed,
                       double budget, double untraced_run_s, double reads,
                       double writes, Trace& trace) {
  {
    Trace::Scope span(trace, "gf.mul_add_row");
    m.add("gf.mul_add_row_gbps",
          probe_gf_gbps(s.data_bits / 8 / kK, seed, budget * 0.2), "GB/s");
  }
  {
    Trace::Scope span(trace, "codec.probe");
    const CodecProbe c = probe_codec(s.data_bits, seed, budget * 0.3);
    m.add("codec.encode_us", c.encode_us, "us");
    m.add("codec.decode_us", c.decode_us, "us");
    m.add("codec.est_share",
          (writes * c.encode_us + reads * c.decode_us) * 1e-6 / untraced_run_s,
          "ratio");
  }
  {
    Trace::Scope span(trace, "registers.inline");
    const auto alg = harness::make_algorithm("adaptive", config_of(s));
    const RegisterProbe r = probe_registers(*alg, budget * 0.3);
    m.add("registers.write_us", r.write_us, "us");
    m.add("registers.read_us", r.read_us, "us");
    m.add("registers.rmws_per_op", r.rmws_per_op, "count");
  }
}

RuntimeLayer threads_register_layer(const Spec& s, uint64_t seed, Trace& trace,
                                    harness::RunOutcome& out) {
  const auto alg = harness::make_algorithm("adaptive", config_of(s));
  Trace::Scope span(trace, "runtime.run_nocheck");
  out = harness::run_register_experiment(
      *alg, register_options(s, seed, harness::Backend::kThreads, false));
  RuntimeLayer rt;
  rt.run_nocheck_s = span.close();
  rt.rmws = double(out.report.rmws_delivered);
  rt.completed = double(out.report.completed_ops);
  rt.read = out.read_latency;
  rt.write = out.write_latency;
  return rt;
}

SimLayer sim_register_layer(const Spec& s, uint64_t seed, Trace& trace,
                            harness::RunOutcome& out) {
  const auto alg = harness::make_algorithm("adaptive", config_of(s));
  Trace::Scope span(trace, "sim.run_nocheck");
  out = harness::run_register_experiment(
      *alg, register_options(s, seed, harness::Backend::kSim, false));
  SimLayer sim;
  sim.run_nocheck_s = span.close();
  sim.steps = double(out.report.steps);
  sim.completed = double(out.report.completed_ops);
  sim.latency = split_latency(out.history);
  return sim;
}

void traced_register(const Spec& s, uint64_t seed, double untraced_run_s,
                     const Rep& baseline, double budget, Trace& trace,
                     RunOutput& out, Rep& gate) {
  MetricTable& m = out.metrics;
  // The checked run decomposed: the unchecked simulator run, then each
  // checker, each its own span.
  harness::RunOutcome run;
  Trace::Scope decomposed(trace, "checked_run.decomposed");
  const SimLayer sim = sim_register_layer(s, seed, trace, run);
  const CheckTimes checks = timed_checks(trace, {&run.history});
  const double traced_run_s = decomposed.close();
  gate_register(s, run, false, gate);
  if (!checks.ok) gate.fail("a checker rejected the traced history");
  {
    Trace::Scope span(trace, "export.json");
    std::ostringstream js;
    write_register_json(js, run, split_latency(run.history));
    m.add("export.json_bytes", double(js.str().size()), "B");
    m.add("export.json_s", span.close(), "s");
  }
  const double check_s = checks.values_legal + checks.weak_regular +
                         checks.strong_regular + checks.strongly_safe;

  // The same shape on the threaded backend.
  harness::RunOutcome threaded;
  const RuntimeLayer rt = threads_register_layer(s, seed, trace, threaded);
  gate_register(s, threaded, false, gate);
  {
    Trace::Scope span(trace, "runtime.channel_rtt");
    add_runtime_metrics(m, rt, sim, probe_channel_rtt_us(budget * 0.1));
  }
  add_sim_metrics(m, sim);
  const StoreLayer L = traced_store(store_probe_of(s), seed, trace, "probe.");
  add_store_metrics(m, L);
  add_consistency_metrics(m, checks,
                          check_s / (sim.run_nocheck_s + check_s));
  add_probe_metrics(m, s, seed, budget, untraced_run_s, double(baseline.reads),
                    double(baseline.writes), trace);
  m.add("trace_overhead", traced_run_s / untraced_run_s, "ratio");
}

void traced_store_workload(const Spec& s, uint64_t seed, double untraced_run_s,
                           const Rep& baseline, double budget, Trace& trace,
                           RunOutput& out, Rep& gate) {
  MetricTable& m = out.metrics;
  Trace::Scope decomposed(trace, "checked_run.decomposed");
  StoreLayer L = traced_store(s, seed, trace, "");
  std::vector<const sim::History*> histories;
  for (const auto& shard : L.by_key) {
    for (const auto& [key, h] : shard) histories.push_back(&h);
  }
  const CheckTimes checks = timed_checks(trace, histories);
  decomposed.close();
  if (!checks.ok) gate.fail("a checker rejected a traced key history");
  gate_store(s, L.result, harness::Backend::kSim, false, gate);
  // The checked run executes the store's own checks (values-legal, weak
  // and strong regularity) inside its per-shard drains, not the export.
  const double traced_run_s = L.run_nocheck_s + L.split_s + checks.values_legal +
                              checks.weak_regular + checks.strong_regular;
  const double check_s =
      checks.values_legal + checks.weak_regular + checks.strong_regular;

  SimLayer sim;
  sim.run_nocheck_s = L.run_nocheck_s;
  sim.steps = double(L.result.total_steps);
  sim.completed = double(L.result.completed_reads + L.result.completed_writes);
  sim.latency.read = L.result.read_latency;
  sim.latency.write = L.result.write_latency;

  RuntimeLayer rt;
  {
    Trace::Scope span(trace, "runtime.run_nocheck");
    store::Store st(store_options(s, seed, harness::Backend::kThreads, false));
    const auto t0 = Clock::now();
    const store::StoreResult r = st.run();
    rt.run_nocheck_s = seconds_since(t0);
    gate_store(s, r, harness::Backend::kThreads, false, gate);
    for (const auto& sh : r.shards) rt.rmws += double(sh.report.rmws_delivered);
    rt.completed = double(r.completed_reads + r.completed_writes);
    rt.read = r.read_latency;
    rt.write = r.write_latency;
  }
  {
    Trace::Scope span(trace, "runtime.channel_rtt");
    add_runtime_metrics(m, rt, sim, probe_channel_rtt_us(budget * 0.1));
  }
  add_sim_metrics(m, sim);
  add_store_metrics(m, L);
  add_consistency_metrics(m, checks,
                          check_s / (L.engine_thread_s + check_s));
  m.add("export.json_s", L.json_s, "s");
  m.add("export.json_bytes", L.json_bytes, "B");
  add_probe_metrics(m, s, seed, budget, untraced_run_s, double(baseline.reads),
                    double(baseline.writes), trace);
  m.add("trace_overhead", traced_run_s / untraced_run_s, "ratio");
}

const Spec& find_spec(const std::vector<Spec>& all, const std::string& name) {
  for (const Spec& s : all) {
    if (s.name == name) return s;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const Spec& s : specs(false)) v.push_back(s.name);
    return v;
  }();
  return names;
}

RunOutput run_workload(const RunRequest& req) {
  const std::vector<Spec> all = specs(req.tiny);
  const Spec& s = find_spec(all, req.workload);
  RunOutput out;
  if (!req.trace) {
    const std::vector<Rep> reps = measure(s, req.seed, req.seconds, 3, out);
    if (reps.empty()) return out;
    end_to_end_metrics(s, reps, out);
    return out;
  }

  // Traced run: an untraced baseline first (for trace_overhead and the
  // codec share), then the decomposed, span-recorded run and the probes.
  const std::vector<Rep> reps =
      measure(s, req.seed, req.seconds * 0.3, 2, out);
  if (reps.empty()) return out;
  const double untraced_run_s =
      median(column(reps, [](const Rep& r) { return r.run_s; }));
  Trace trace;
  Rep gate;
  const double budget = req.seconds * 0.3;
  const uint64_t seed = round_seeds(s, req.seed).front();
  {
    Trace::Scope root(trace, req.workload);
    if (s.store) {
      traced_store_workload(s, seed, untraced_run_s, reps.front(), budget,
                            trace, out, gate);
    } else {
      traced_register(s, seed, untraced_run_s, reps.front(), budget, trace,
                      out, gate);
    }
  }
  out.attempted += ops_per_rep(s);
  if (!gate.ok) {
    out.correct = false;
    out.failed += ops_per_rep(s);
    for (auto& w : gate.why) out.problems.push_back(std::move(w));
  }
  if (!req.trace_out.empty()) {
    std::ofstream f(req.trace_out);
    trace.write_json(f);
    if (!f) throw std::runtime_error("cannot write " + req.trace_out);
  }
  return out;
}

std::string check_inline_replay() {
  registers::RegisterConfig cfg;
  cfg.n = kN;
  cfg.k = kK;
  cfg.f = kF;
  cfg.data_bits = 1024;
  const auto alg = harness::make_algorithm("adaptive", cfg);

  // W R W W R R W R ...: a sequential list on one client.
  std::vector<sim::ScriptedWorkload::Step> steps;
  for (uint64_t i = 0; i < 24; ++i) {
    sim::ScriptedWorkload::Step st;
    st.client = ClientId{0};
    st.kind = (i % 3 == 1 || i % 5 == 4) ? sim::OpKind::kRead
                                         : sim::OpKind::kWrite;
    if (st.kind == sim::OpKind::kWrite) {
      st.value = Value::from_tag(1000 + i, cfg.data_bits);
    }
    steps.push_back(st);
  }

  sim::SimConfig sc;
  sc.num_objects = cfg.n;
  sc.num_clients = 1;
  sim::Simulator simulator(sc, alg->object_factory(), alg->client_factory(),
                           std::make_unique<sim::ScriptedWorkload>(steps),
                           std::make_unique<sim::RoundRobinScheduler>());
  const sim::RunReport report = simulator.run();
  if (!report.quiesced) return "simulator run did not quiesce";
  std::vector<Value> sim_reads;
  for (const sim::OpRecord& rec : simulator.history().ops()) {
    if (rec.kind == sim::OpKind::kRead) sim_reads.push_back(rec.value);
  }

  InlineRegister reg(*alg);
  std::vector<Value> inline_reads;
  uint64_t next_op = 1;
  for (const auto& st : steps) {
    runtime::Invocation inv;
    inv.op = OpId{next_op++};
    inv.client = ClientId{0};
    inv.kind = st.kind;
    inv.value = st.value;
    std::optional<Value> v = reg.execute(inv);
    if (st.kind == sim::OpKind::kRead) {
      if (!v) return "inline read returned no value";
      inline_reads.push_back(std::move(*v));
    }
  }
  if (sim_reads != inline_reads) {
    return "inline replay read values differ from the simulator's";
  }
  const uint64_t sim_bits = simulator.tracked_object_bits();
  if (reg.object_bits() != sim_bits) {
    return "inline replay ends with " + std::to_string(reg.object_bits()) +
           " object bits, the simulator with " + std::to_string(sim_bits);
  }
  return {};
}

}  // namespace perfbench
