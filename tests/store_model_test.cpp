// Randomized reference-model test: the Table must behave exactly like a
// simple in-memory oracle (map of maps) under arbitrary interleavings of
// Put / Delete / Flush / Compact / GetPartition / Slice / CountByType.
// This is the strongest correctness net over the storage engine: any
// divergence in merge order, tombstone shadowing, block packing, caching
// or compaction shows up as an oracle mismatch.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "store/local_store.hpp"

namespace kvscale {
namespace {

/// The oracle: partition -> clustering -> column (no tombstones; deletes
/// erase directly).
using Oracle = std::map<std::string, std::map<uint64_t, Column>>;

Column RandomColumn(Rng& rng, uint64_t clustering) {
  Column c;
  c.clustering = clustering;
  c.type_id = static_cast<uint32_t>(rng.Below(6));
  c.payload = MakePayload(rng.Next(), clustering, 8 + rng.Below(60));
  return c;
}

std::string RandomPartition(Rng& rng, size_t partitions) {
  return "p" + std::to_string(rng.Below(partitions));
}

void CheckPartition(const Table& table, const Oracle& oracle,
                    const std::string& key) {
  auto it = oracle.find(key);
  auto stored = table.GetPartition(key);
  if (it == oracle.end()) {
    // Never written at all -> NotFound. (Written-then-fully-deleted
    // partitions legitimately return an empty vector before compaction.)
    if (stored.ok()) {
      EXPECT_TRUE(stored.value().empty()) << key;
    }
    return;
  }
  // Fully-deleted partitions may be NotFound (after compaction) or empty.
  if (it->second.empty()) {
    if (stored.ok()) {
      EXPECT_TRUE(stored.value().empty()) << key;
    }
    return;
  }
  ASSERT_TRUE(stored.ok()) << key;
  const auto& cols = stored.value();
  ASSERT_EQ(cols.size(), it->second.size()) << key;
  size_t i = 0;
  for (const auto& [clustering, expected] : it->second) {
    EXPECT_EQ(cols[i], expected) << key << " @ " << clustering;
    ++i;
  }
}

void CheckSlice(const Table& table, const Oracle& oracle,
                const std::string& key, uint64_t lo, uint64_t hi) {
  auto it = oracle.find(key);
  auto stored = table.Slice(key, lo, hi);
  std::vector<Column> expected;
  if (it != oracle.end()) {
    for (auto cit = it->second.lower_bound(lo);
         cit != it->second.end() && cit->first <= hi; ++cit) {
      expected.push_back(cit->second);
    }
  }
  if (!stored.ok()) {
    EXPECT_TRUE(expected.empty()) << key;
    return;
  }
  EXPECT_EQ(stored.value(), expected) << key << " [" << lo << "," << hi << "]";
}

void CheckCounts(const Table& table, const Oracle& oracle,
                 const std::string& key) {
  auto it = oracle.find(key);
  auto stored = table.CountByType(key);
  TypeCounts expected;
  if (it != oracle.end()) {
    for (const auto& [clustering, column] : it->second) {
      ++expected[column.type_id];
    }
  }
  if (!stored.ok()) {
    EXPECT_TRUE(expected.empty()) << key;
    return;
  }
  EXPECT_EQ(stored.value(), expected) << key;
}

class StoreModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StoreModelTest, RandomOperationsMatchOracle) {
  Rng rng(GetParam());
  // Small blocks + low thresholds exercise multi-block partitions and the
  // column-index path even with modest data.
  TableOptions options;
  options.segment.block_size = 1 + rng.Below(3000);
  options.segment.column_index_threshold = 1 + rng.Below(8000);
  options.memtable_flush_bytes = 1 + rng.Below(32 * 1024);
  options.auto_flush = rng.Chance(0.5);
  BlockCache cache(rng.Chance(0.5) ? 256 * 1024 : 1024);
  Table table("t", options, rng.Chance(0.7) ? &cache : nullptr);

  Oracle oracle;
  constexpr size_t kPartitions = 6;
  constexpr uint64_t kClusterings = 64;
  constexpr int kOperations = 1500;

  for (int op = 0; op < kOperations; ++op) {
    const uint64_t dice = rng.Below(100);
    if (dice < 45) {  // Put
      const std::string key = RandomPartition(rng, kPartitions);
      const Column column = RandomColumn(rng, rng.Below(kClusterings));
      oracle[key][column.clustering] = column;
      table.Put(key, column);
    } else if (dice < 60) {  // Delete
      const std::string key = RandomPartition(rng, kPartitions);
      const uint64_t clustering = rng.Below(kClusterings);
      oracle[key].erase(clustering);
      table.Delete(key, clustering);
    } else if (dice < 65) {  // Flush
      table.Flush();
    } else if (dice < 68) {  // Compact
      EXPECT_TRUE(table.Compact().ok());
    } else if (dice < 80) {  // GetPartition check
      CheckPartition(table, oracle, RandomPartition(rng, kPartitions));
    } else if (dice < 92) {  // Slice check
      const uint64_t lo = rng.Below(kClusterings);
      const uint64_t hi = lo + rng.Below(kClusterings - lo + 1);
      CheckSlice(table, oracle, RandomPartition(rng, kPartitions), lo, hi);
    } else {  // CountByType check
      CheckCounts(table, oracle, RandomPartition(rng, kPartitions));
    }
  }

  // Final full verification across every partition and a few slices.
  for (size_t p = 0; p < kPartitions; ++p) {
    const std::string key = "p" + std::to_string(p);
    CheckPartition(table, oracle, key);
    CheckCounts(table, oracle, key);
    CheckSlice(table, oracle, key, 0, kClusterings);
    CheckSlice(table, oracle, key, kClusterings / 4, kClusterings / 2);
  }
  // And once more after a final compaction.
  EXPECT_TRUE(table.Compact().ok());
  for (size_t p = 0; p < kPartitions; ++p) {
    CheckPartition(table, oracle, "p" + std::to_string(p));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreModelTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

}  // namespace
}  // namespace kvscale
