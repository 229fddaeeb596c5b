#include "src/eunomia/core.h"

#include <cassert>
#include <utility>

namespace eunomia {

EunomiaCore::OpsBuffer EunomiaCore::MakeBuffer(ordbuf::Backend backend,
                                               std::uint32_t num_partitions,
                                               std::uint32_t first_partition) {
  switch (backend) {
    case ordbuf::Backend::kRbTree:
      return OpsBuffer(std::in_place_type<ordbuf::RbTreeBuffer<OpRecord>>,
                       num_partitions, first_partition);
    case ordbuf::Backend::kPartitionRun:
      break;
  }
  return OpsBuffer(std::in_place_type<ordbuf::PartitionRunBuffer<OpRecord>>,
                   num_partitions, first_partition);
}

EunomiaCore::EunomiaCore(std::uint32_t num_partitions, std::uint32_t first_partition,
                         ordbuf::Backend backend)
    : num_partitions_(num_partitions == 0 ? 1 : num_partitions),
      first_partition_(first_partition),
      ops_(MakeBuffer(backend, num_partitions_, first_partition_)),
      partition_time_(num_partitions_, kTimestampZero) {}

bool EunomiaCore::AddOp(const OpRecord& op) {
  return AddBatch(std::span<const OpRecord>(&op, 1)) == 1;
}

std::size_t EunomiaCore::AddBatch(std::span<const OpRecord> batch) {
  std::size_t accepted = 0;
  std::visit(
      [&](auto& buf) {
        // PartitionTime is published to the min-tournament once per
        // contiguous same-partition run, not once per op: a batch is
        // typically one partition's ascending stream, so the tournament
        // climb is paid once per batch.
        bool in_run = false;
        PartitionId run_partition = 0;
        std::uint32_t run_index = 0;
        Timestamp run_time = 0;
        for (const OpRecord& op : batch) {
          assert(op.partition >= first_partition_ &&
                 op.partition - first_partition_ < num_partitions_);
          if (!in_run || op.partition != run_partition) {
            if (in_run) {
              partition_time_.Set(run_index, run_time);
            }
            in_run = true;
            run_partition = op.partition;
            run_index = op.partition - first_partition_;
            run_time = partition_time_.Get(run_index);
          }
          if (op.ts <= run_time) {
            // Property 2 says this cannot happen with correct partitions and
            // FIFO links; a replica receiving re-sent batches (§3.3) filters
            // duplicates before reaching the core. Count and drop.
            ++monotonicity_violations_;
            continue;
          }
          buf.Append(OrderKeyOf(op), op);
          run_time = op.ts;
          ++ops_received_;
          ++accepted;
        }
        if (in_run) {
          partition_time_.Set(run_index, run_time);
        }
      },
      ops_);
  return accepted;
}

void EunomiaCore::Heartbeat(PartitionId partition, Timestamp ts) {
  assert(partition >= first_partition_ &&
         partition - first_partition_ < num_partitions_);
  ++heartbeats_received_;
  const std::uint32_t index = partition - first_partition_;
  if (ts > partition_time_.Get(index)) {
    partition_time_.Set(index, ts);
  }
}

std::size_t EunomiaCore::ProcessStable(std::vector<OpRecord>* out) {
  return ForceExtractUpTo(StableTime(), out);
}

std::size_t EunomiaCore::ForceExtractUpTo(Timestamp bound, std::vector<OpRecord>* out) {
  if (bound == kTimestampZero || pending_ops() == 0) {
    return 0;
  }
  // Everything with key <= (bound, max partition) qualifies: an op with
  // ts == bound is extracted regardless of its partition id. Extraction
  // writes straight into *out — no intermediate (key, value) staging.
  const OpOrderKey key_bound{bound, ~PartitionId{0}};
  const std::size_t extracted = std::visit(
      [&](auto& buf) {
        return buf.ExtractUpTo(key_bound, [&](const OpOrderKey& key, OpRecord&& op) {
          assert(key.ts >= last_emitted_ && "emission must be monotone");
          last_emitted_ = key.ts;
          out->push_back(std::move(op));
        });
      },
      ops_);
  ops_emitted_ += extracted;
  return extracted;
}

}  // namespace eunomia
