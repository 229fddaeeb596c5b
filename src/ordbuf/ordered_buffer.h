// The ordered-buffer policy layer: which data structure holds the
// not-yet-stable op set?
//
// The paper's §6 implementation note picks a red-black tree. But Property 2
// (per-partition timestamp monotonicity) means the buffer's input is not an
// arbitrary key stream: it is P already-sorted runs, one per partition, and
// the global (ts, partition) order only has to be materialized at extraction
// time. That observation admits a strictly cheaper layout — one append-only
// ring buffer per partition plus a tournament merge over the P run heads —
// which PartitionRunBuffer implements. The paper's red-black tree is kept as
// a selectable policy so the §6 design choice stays reproducible (ablation
// A1) and so the semantics of the fast path can be pinned against it.
//
// OrderedBuffer concept (both implementations satisfy it):
//
//   // Tracks partitions [first_partition, first_partition + num_partitions);
//   // keys carry global partition ids.
//   Buffer(std::uint32_t num_partitions, std::uint32_t first_partition);
//
//   // Adds one element. Precondition (Property 2, enforced by EunomiaCore
//   // before the buffer is reached): key is strictly greater than every key
//   // previously appended for key.partition.
//   void Append(const OpOrderKey& key, V value);
//
//   // Removes every element with key <= bound and hands each to
//   // emit(const OpOrderKey&, V&&) in ascending global (ts, partition)
//   // order. Returns the number of elements emitted.
//   template <typename Emit>
//   std::size_t ExtractUpTo(const OpOrderKey& bound, Emit&& emit);
//
//   std::size_t size() const;
//   bool empty() const;
//
// The emit-callback form of ExtractUpTo is deliberate: the caller writes
// extracted ops straight into its destination (EunomiaCore appends to the
// sink vector) instead of staging (key, value) pairs in a scratch buffer.
#pragma once

namespace eunomia::ordbuf {

// Selects the ordered-buffer policy behind an EunomiaCore. Threaded through
// EunomiaService::Options, FtEunomiaService::Options and GeoConfig; the
// run-queue layout is the default everywhere.
enum class Backend {
  kPartitionRun,  // per-partition ring buffers + tournament-tree extraction
  kRbTree,        // the paper's §6 choice (src/rbtree/red_black_tree.h)
};

constexpr const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kPartitionRun:
      return "partition_run";
    case Backend::kRbTree:
      return "rbtree";
  }
  return "unknown";
}

}  // namespace eunomia::ordbuf
