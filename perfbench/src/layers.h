// Single-layer probes of the traced run: each times one layer through its
// public entry point, at the shape of the workload being traced.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "registers/register_algorithm.h"
#include "runtime/context.h"

namespace perfbench {

/// One register protocol with no engine underneath: a single client whose
/// RMWs are applied inline, first triggered first applied, to base-object
/// states from the algorithm's object_factory(). execute() drains every RMW
/// an operation triggers (quorum stragglers included) before it returns, so
/// a sequential op list ends quiescent.
class InlineRegister {
 public:
  explicit InlineRegister(const sbrs::registers::RegisterAlgorithm& algorithm);

  /// Run `inv` (whose client must be ClientId{0}) to completion. Returns the
  /// read value, or nullopt for a write.
  std::optional<sbrs::Value> execute(const sbrs::runtime::Invocation& inv);

  /// Bits stored across all base objects now.
  uint64_t object_bits() const;
  uint64_t rmws_applied() const { return rmws_applied_; }

 private:
  struct Pending {
    sbrs::RmwId id;
    sbrs::ObjectId target;
    sbrs::runtime::RmwFn fn;
  };

  class Context final : public sbrs::runtime::ExecutionContext {
   public:
    explicit Context(InlineRegister& owner) : owner_(owner) {}
    sbrs::RmwId trigger(sbrs::ObjectId target, sbrs::runtime::RmwFn fn,
                        sbrs::metrics::StorageFootprint) override;
    void complete(sbrs::OpId op, std::optional<sbrs::Value> result) override;
    sbrs::ClientId self() const override { return sbrs::ClientId{0}; }
    uint32_t num_objects() const override;
    uint64_t now() const override { return owner_.rmws_applied_; }

   private:
    InlineRegister& owner_;
  };

  std::vector<std::unique_ptr<sbrs::runtime::ObjectStateBase>> objects_;
  std::unique_ptr<sbrs::runtime::ClientProtocol> client_;
  std::deque<Pending> queue_;
  uint64_t next_rmw_ = 1;
  uint64_t rmws_applied_ = 0;
  bool completed_ = false;
  std::optional<sbrs::Value> result_;
};

/// Per-operation wall time of the protocol alone (InlineRegister): batches
/// of 64 writes then 64 reads on one register at the algorithm's config.
struct RegisterProbe {
  double write_us = 0;
  double read_us = 0;
  double rmws_per_op = 0;
};
RegisterProbe probe_registers(
    const sbrs::registers::RegisterAlgorithm& algorithm, double seconds);

/// gf::kern::mul_add_row throughput at `row_bytes`, in GB/s.
double probe_gf_gbps(size_t row_bytes, uint64_t seed, double seconds);

/// RS(n = 4, k = 2) encode of all blocks and decode from the two parity
/// blocks at `data_bits`, in microseconds per call.
struct CodecProbe {
  double encode_us = 0;
  double decode_us = 0;
};
CodecProbe probe_codec(uint64_t data_bits, uint64_t seed, double seconds);

/// Round trip of one item between two threads over a pair of
/// runtime::Channel, in microseconds.
double probe_channel_rtt_us(double seconds);

}  // namespace perfbench
