// LRU cache of shared decoded blocks.
//
// Plays the role of the OS page cache + Cassandra key/row caches in the
// paper's discussion of replica selection ("spreading calls to different
// servers results in a higher page fault number"): repeated reads of the
// same partition on the same node are cheap, spreading them is not.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "common/thread_annotations.hpp"
#include "store/decoded_block.hpp"

namespace kvscale {

/// Byte-capacity-bounded LRU over shared decoded blocks. Thread-safe:
/// concurrent readers share one cache, as Cassandra's row cache does.
///
/// Entries are keyed by (segment cache id, block number). A segment's
/// cache id is unique in the process (Segment::cache_id), so tables that
/// share a cache never see each other's blocks. Each entry is charged
/// its block's real size (DecodedBlock::ChargeBytes). A reader keeps its
/// block alive through the shared pointer, so eviction never invalidates
/// a block that is still being read.
class BlockCache {
 public:
  explicit BlockCache(size_t capacity_bytes);

  /// The cached block, or null on a miss. A hit promotes the entry and
  /// costs one reference-count increment; nothing is copied.
  BlockPtr Lookup(uint64_t segment_id, uint32_t block_no);

  /// Inserts a decoded block, evicting LRU entries as needed. Blocks
  /// charged more than the whole capacity are not cached.
  void Insert(uint64_t segment_id, uint32_t block_no, BlockPtr block);

  /// Drops every cached block of `segment_id` (segment compacted away).
  void EraseSegment(uint64_t segment_id);

  size_t entry_count() const;
  size_t used_bytes() const;
  size_t capacity_bytes() const { return capacity_bytes_; }
  uint64_t hits() const;
  uint64_t misses() const;
  double hit_rate() const;

  /// Resets hit/miss counters (per-experiment bookkeeping).
  void ResetStats();

 private:
  struct Key {
    uint64_t segment_id;
    uint32_t block_no;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<uint64_t>{}(k.segment_id * 0x9e3779b97f4a7c15ULL +
                                   k.block_no);
    }
  };
  struct Entry {
    Key key;
    BlockPtr block;
    size_t bytes;  ///< block->ChargeBytes() at insertion
  };

  void EvictTo(size_t target_bytes) KV_REQUIRES(mu_);

  mutable Mutex mu_;
  const size_t capacity_bytes_;  ///< immutable after construction
  std::list<Entry> lru_ KV_GUARDED_BY(mu_);  // front = most recent
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map_
      KV_GUARDED_BY(mu_);
  size_t used_bytes_ KV_GUARDED_BY(mu_) = 0;
  uint64_t hits_ KV_GUARDED_BY(mu_) = 0;
  uint64_t misses_ KV_GUARDED_BY(mu_) = 0;
};

}  // namespace kvscale
