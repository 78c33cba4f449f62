#include "ooc/block_cache.h"

#include <algorithm>
#include <utility>

namespace cloudwalker {

BlockCache::Lease& BlockCache::Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    this->~Lease();
    cache_ = std::exchange(other.cache_, nullptr);
    block_ = other.block_;
    base_ = other.base_;
    targets_ = std::exchange(other.targets_, nullptr);
  }
  return *this;
}

BlockCache::Lease::~Lease() {
  if (cache_ != nullptr) cache_->Release(block_);
  cache_ = nullptr;
  targets_ = nullptr;
}

BlockCache::BlockCache(std::shared_ptr<const PagedSnapshot> snapshot,
                       uint64_t budget_bytes)
    : snapshot_(std::move(snapshot)), budget_bytes_(budget_bytes) {
  frames_.resize(snapshot_->blocks().size());
  if (snapshot_->all_resident()) {
    counters_.bytes_resident = snapshot_->paged_bytes();
    counters_.peak_bytes_resident = counters_.bytes_resident;
  }
}

StatusOr<std::unique_ptr<BlockCache>> BlockCache::Create(
    std::shared_ptr<const PagedSnapshot> snapshot, uint64_t budget_bytes) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("block cache needs a snapshot");
  }
  if (!snapshot->all_resident() &&
      budget_bytes < snapshot->max_block_bytes()) {
    return Status::InvalidArgument(
        "block cache budget " + std::to_string(budget_bytes) +
        " bytes cannot admit the largest block (" +
        std::to_string(snapshot->max_block_bytes()) + " bytes)");
  }
  return std::unique_ptr<BlockCache>(
      new BlockCache(std::move(snapshot), budget_bytes));
}

StatusOr<BlockCache::Lease> BlockCache::Acquire(uint32_t b) {
  const std::span<const BlockExtent> blocks = snapshot_->blocks();
  if (b >= blocks.size()) {
    return Status::Internal("block id " + std::to_string(b) +
                            " out of range");
  }
  const BlockExtent& ext = blocks[b];
  if (snapshot_->all_resident()) {
    // Leases alias the resident arrays directly; no pin bookkeeping needed
    // (nothing is ever evicted), so the lease carries no cache pointer.
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.hits;
    Lease lease;
    lease.block_ = b;
    lease.base_ = ext.edge_begin;
    lease.targets_ = snapshot_->resident_in_targets().data() + ext.edge_begin;
    return lease;
  }

  const uint64_t bytes = ext.num_edges() * kPagedBytesPerEdge;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    Frame& f = frames_[b];
    if (f.resident) {
      ++counters_.hits;
      ++f.pins;
      f.tick = ++tick_;
      Lease lease;
      lease.cache_ = this;
      lease.block_ = b;
      lease.base_ = ext.edge_begin;
      lease.targets_ = f.targets.data();
      return lease;
    }
    if (f.loading) {
      // Another thread is paging this block in; wait for its verdict and
      // re-examine (on load failure the frame returns to absent and this
      // thread retries the read itself).
      load_done_.wait(lock);
      continue;
    }
    if (!MakeRoom(bytes)) {
      // Every resident block is pinned and the budget is still exceeded.
      // Waiting could deadlock — the pins may belong to this very caller
      // (second-order walks hold two) — so admit over budget and record
      // that the budget was genuinely too small for the pin set.
      ++counters_.overflow_admits;
    }
    ++counters_.misses;
    f.loading = true;
    // Reserve the bytes before dropping the lock so a concurrent miss on
    // another block sees them and evicts accordingly — the budget stays
    // hard even with loads in flight.
    counters_.bytes_resident += bytes;
    counters_.peak_bytes_resident =
        std::max(counters_.peak_bytes_resident, counters_.bytes_resident);
    lock.unlock();

    std::vector<NodeId> targets(ext.num_edges());
    const Status read = snapshot_->ReadBlock(b, targets.data());

    lock.lock();
    f.loading = false;
    if (!read.ok()) {
      counters_.bytes_resident -= bytes;
      load_done_.notify_all();
      return read;
    }
    f.targets = std::move(targets);
    f.resident = true;
    f.pins = 1;
    f.tick = ++tick_;
    counters_.bytes_read += bytes;
    load_done_.notify_all();
    Lease lease;
    lease.cache_ = this;
    lease.block_ = b;
    lease.base_ = ext.edge_begin;
    lease.targets_ = f.targets.data();
    return lease;
  }
}

bool BlockCache::MakeRoom(uint64_t need) {
  const std::span<const BlockExtent> blocks = snapshot_->blocks();
  while (counters_.bytes_resident + need > budget_bytes_) {
    uint32_t victim = static_cast<uint32_t>(frames_.size());
    uint64_t oldest = 0;
    for (uint32_t i = 0; i < frames_.size(); ++i) {
      const Frame& f = frames_[i];
      if (f.resident && f.pins == 0 && !f.loading &&
          (victim == frames_.size() || f.tick < oldest)) {
        victim = i;
        oldest = f.tick;
      }
    }
    if (victim == frames_.size()) return false;
    Frame& v = frames_[victim];
    counters_.bytes_resident -=
        blocks[victim].num_edges() * kPagedBytesPerEdge;
    ++counters_.evictions;
    v.resident = false;
    // Actually return the memory (clear() keeps capacity).
    std::vector<NodeId>().swap(v.targets);
  }
  return true;
}

void BlockCache::Release(uint32_t b) {
  std::lock_guard<std::mutex> lock(mu_);
  --frames_[b].pins;
}

BlockCacheCounters BlockCache::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

}  // namespace cloudwalker
