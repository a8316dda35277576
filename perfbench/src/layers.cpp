#include "layers.h"

#include <stdexcept>
#include <thread>

#include "bench.h"
#include "codec/codec.h"
#include "common/rng.h"
#include "gf/gf_kernels.h"
#include "runtime/channel.h"

namespace perfbench {

using namespace sbrs;

InlineRegister::InlineRegister(const registers::RegisterAlgorithm& algorithm) {
  const runtime::ObjectFactory make_object = algorithm.object_factory();
  for (uint32_t i = 0; i < algorithm.config().n; ++i) {
    objects_.push_back(make_object(ObjectId{i}));
  }
  client_ = algorithm.client_factory()(ClientId{0});
}

RmwId InlineRegister::Context::trigger(ObjectId target, runtime::RmwFn fn,
                                       metrics::StorageFootprint) {
  const RmwId id{owner_.next_rmw_++};
  owner_.queue_.push_back({id, target, std::move(fn)});
  return id;
}

void InlineRegister::Context::complete(OpId, std::optional<Value> result) {
  owner_.completed_ = true;
  owner_.result_ = std::move(result);
}

uint32_t InlineRegister::Context::num_objects() const {
  return static_cast<uint32_t>(owner_.objects_.size());
}

std::optional<Value> InlineRegister::execute(const runtime::Invocation& inv) {
  if (inv.client != ClientId{0}) {
    throw std::logic_error("InlineRegister drives client 0 only");
  }
  completed_ = false;
  result_.reset();
  Context ctx(*this);
  client_->on_invoke(inv, ctx);
  while (!queue_.empty()) {
    Pending p = std::move(queue_.front());
    queue_.pop_front();
    runtime::ResponsePtr response = p.fn(*objects_.at(p.target.value));
    ++rmws_applied_;
    client_->on_response(p.id, std::move(response), ctx);
  }
  if (!completed_) {
    throw std::logic_error("inline operation drained without completing");
  }
  return std::move(result_);
}

uint64_t InlineRegister::object_bits() const {
  uint64_t bits = 0;
  for (const auto& o : objects_) bits += o->stored_bits();
  return bits;
}

namespace {

/// Run `batch` (which does `ops` operations) repeatedly for `seconds` of
/// wall time (at least three batches) and return the median per-op seconds.
template <typename Fn>
double per_op_seconds(double seconds, uint64_t ops, Fn&& batch) {
  std::vector<double> samples;
  const auto t0 = Clock::now();
  while (samples.size() < 3 || seconds_since(t0) < seconds) {
    const auto b0 = Clock::now();
    batch();
    samples.push_back(seconds_since(b0) / static_cast<double>(ops));
  }
  return median(std::move(samples));
}

}  // namespace

RegisterProbe probe_registers(const registers::RegisterAlgorithm& algorithm,
                              double seconds) {
  constexpr uint64_t kOps = 64;  // per batch, per kind
  const uint64_t data_bits = algorithm.config().data_bits;
  InlineRegister reg(algorithm);
  uint64_t next_op = 1;
  uint64_t ops_done = 0;
  auto invocation = [&](runtime::OpKind kind) {
    runtime::Invocation inv;
    inv.op = OpId{next_op++};
    inv.client = ClientId{0};
    inv.kind = kind;
    if (kind == runtime::OpKind::kWrite) {
      inv.value = Value::from_tag(inv.op.value, data_bits);
    }
    return inv;
  };
  // Build the invocations outside the timed region: the probe times the
  // protocol, not value generation.
  auto run_kind = [&](runtime::OpKind kind) {
    std::vector<runtime::Invocation> invs;
    for (uint64_t i = 0; i < kOps; ++i) invs.push_back(invocation(kind));
    const auto t0 = Clock::now();
    for (const auto& inv : invs) reg.execute(inv);
    ops_done += kOps;
    return seconds_since(t0) / kOps;
  };
  std::vector<double> writes;
  std::vector<double> reads;
  const uint64_t rmws_before = reg.rmws_applied();
  const auto t0 = Clock::now();
  while (writes.size() < 3 || seconds_since(t0) < seconds) {
    writes.push_back(run_kind(runtime::OpKind::kWrite));
    reads.push_back(run_kind(runtime::OpKind::kRead));
  }
  RegisterProbe p;
  p.write_us = median(std::move(writes)) * 1e6;
  p.read_us = median(std::move(reads)) * 1e6;
  p.rmws_per_op = static_cast<double>(reg.rmws_applied() - rmws_before) /
                  static_cast<double>(ops_done);
  return p;
}

double probe_gf_gbps(size_t row_bytes, uint64_t seed, double seconds) {
  // Each batch sweeps 64 distinct rows, the way a codec pass walks the
  // blocks of several values.
  constexpr size_t kRows = 64;
  Rng rng(seed);
  std::vector<uint8_t> src(row_bytes * kRows);
  std::vector<uint8_t> dst(row_bytes * kRows);
  for (auto& b : src) b = static_cast<uint8_t>(rng.next());
  const uint8_t c = static_cast<uint8_t>(2 + rng.next() % 250);
  const double s = per_op_seconds(seconds, kRows, [&] {
    for (size_t r = 0; r < kRows; ++r) {
      gf::kern::mul_add_row(dst.data() + r * row_bytes,
                            src.data() + r * row_bytes, c, row_bytes);
    }
  });
  volatile uint8_t sink = dst[0];
  (void)sink;
  return static_cast<double>(row_bytes) / s / 1e9;
}

CodecProbe probe_codec(uint64_t data_bits, uint64_t seed, double seconds) {
  constexpr uint64_t kCalls = 16;
  const codec::CodecPtr rs = codec::make_codec("rs", 4, 2, data_bits);
  const Value v = Value::from_tag(seed | 1, data_bits);
  std::vector<codec::Block> blocks = rs->encode(v);
  const std::vector<codec::Block> parity = {blocks[2], blocks[3]};
  if (rs->decode(parity) != v) {
    throw std::logic_error("RS(4,2) parity decode returned a wrong value");
  }
  CodecProbe p;
  p.encode_us = per_op_seconds(seconds / 2, kCalls, [&] {
                  for (uint64_t i = 0; i < kCalls; ++i) blocks = rs->encode(v);
                }) * 1e6;
  std::optional<Value> out;
  p.decode_us = per_op_seconds(seconds / 2, kCalls, [&] {
                  for (uint64_t i = 0; i < kCalls; ++i) out = rs->decode(parity);
                }) * 1e6;
  if (out != v) throw std::logic_error("RS(4,2) decode drifted");
  return p;
}

double probe_channel_rtt_us(double seconds) {
  constexpr uint64_t kTrips = 2000;
  runtime::Channel<uint64_t> ping;
  runtime::Channel<uint64_t> pong;
  std::thread echo([&] {
    while (auto v = ping.recv()) pong.send(*v);
  });
  double rtt = 0;
  try {
    rtt = per_op_seconds(seconds, kTrips, [&] {
      for (uint64_t i = 0; i < kTrips; ++i) {
        ping.send(i);
        if (pong.recv() != i) throw std::logic_error("channel reordered");
      }
    });
  } catch (...) {
    ping.close();
    echo.join();
    throw;
  }
  ping.close();
  echo.join();
  return rtt * 1e6;
}

}  // namespace perfbench
