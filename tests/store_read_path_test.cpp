// Read-path parity: the in-place operators (CountByType, ScanRange,
// TopKByClustering) run on shared decoded blocks and never materialise a
// Column, so they must agree with answers derived from the materialising
// GetPartition. Seeded mixes of puts, overwrites, deletes, flushes,
// size-tiered and full compactions and snapshot reloads run against a
// cache that evicts on every read, a cache that holds everything, and no
// cache; every operator is checked after every step. A damaged block must
// fail every operator with kCorruption, never with a partial answer.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <unistd.h>

#include "common/rng.hpp"
#include "store/local_store.hpp"

namespace kvscale {
namespace {

constexpr uint64_t kClusterings = 160;
constexpr size_t kPartitions = 4;

std::string Key(size_t p) { return "p" + std::to_string(p); }

Column RandomColumn(Rng& rng, uint64_t clustering) {
  Column c;
  c.clustering = clustering;
  c.type_id = static_cast<uint32_t>(rng.Below(70));  // past the dense range
  c.payload = MakePayload(rng.Next(), clustering, rng.Below(48));
  return c;
}

TableOptions ReadPathTableOptions() {
  TableOptions options;
  options.segment.block_size = 256;  // several blocks per partition
  options.segment.column_index_threshold = 1024;  // and column indexes
  options.memtable_flush_bytes = 2 * kKiB;
  options.compaction_min_segments = 3;  // size-tiered runs merge often
  options.compaction_size_ratio = 4.0;
  return options;
}

CellHeader HeaderOf(const Column& c) { return {c.clustering, c.type_id}; }

/// Checks the three operators on `key` against GetPartition.
void CheckOperators(const Table& table, const std::string& key, Rng& rng) {
  const auto full = table.GetPartition(key);
  const uint64_t lo = rng.Below(kClusterings);
  const uint64_t hi = lo + rng.Below(kClusterings - lo + 8);
  const auto limit = static_cast<uint32_t>(rng.Below(12));  // 0 = unbounded
  const auto k = static_cast<uint32_t>(1 + rng.Below(12));
  const auto counts = table.CountByType(key);
  const auto scan = table.ScanRange(key, lo, hi, limit);
  const auto top = table.TopKByClustering(key, k);
  if (!full.ok()) {
    EXPECT_EQ(full.status().code(), StatusCode::kNotFound) << key;
    EXPECT_EQ(counts.status().code(), StatusCode::kNotFound) << key;
    EXPECT_EQ(scan.status().code(), StatusCode::kNotFound) << key;
    EXPECT_EQ(top.status().code(), StatusCode::kNotFound) << key;
    return;
  }
  const std::vector<Column>& cols = full.value();

  TypeCounts want_counts;
  for (const Column& c : cols) ++want_counts[c.type_id];
  ASSERT_TRUE(counts.ok()) << key;
  EXPECT_EQ(counts.value(), want_counts) << key;

  std::vector<CellHeader> want_scan;
  for (const Column& c : cols) {
    if (c.clustering < lo || c.clustering > hi) continue;
    if (limit > 0 && want_scan.size() == limit) break;
    want_scan.push_back(HeaderOf(c));
  }
  ASSERT_TRUE(scan.ok()) << key;
  EXPECT_EQ(scan.value(), want_scan)
      << key << " [" << lo << "," << hi << "] limit " << limit;

  std::vector<CellHeader> want_top;
  for (auto it = cols.rbegin(); it != cols.rend() && want_top.size() < k;
       ++it) {
    want_top.push_back(HeaderOf(*it));
  }
  ASSERT_TRUE(top.ok()) << key;
  EXPECT_EQ(top.value(), want_top) << key << " k " << k;
}

/// (cache bytes, seed); 0 bytes = no cache.
class StoreReadPath
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {
 protected:
  void TearDown() override { std::remove(snapshot_path_.c_str()); }

  const std::string snapshot_path_ =
      "/tmp/kvscale_read_path_" + std::to_string(::getpid()) + "_" +
      std::to_string(std::get<0>(GetParam())) + "_" +
      std::to_string(std::get<1>(GetParam())) + ".snap";
};

TEST_P(StoreReadPath, OperatorsMatchMaterialisedReads) {
  const auto [cache_bytes, seed] = GetParam();
  Rng rng(seed);
  std::unique_ptr<BlockCache> cache;
  if (cache_bytes > 0) cache = std::make_unique<BlockCache>(cache_bytes);
  const TableOptions options = ReadPathTableOptions();
  auto table = std::make_unique<Table>("t", options, cache.get());
  std::vector<std::vector<uint64_t>> written(kPartitions);
  uint64_t tiered_merges = 0;  // size-tiered compactions, across reloads
  int full_compactions = 0;
  int reloads = 0;

  for (int step = 0; step < 400; ++step) {
    const size_t p = rng.Below(kPartitions);
    const uint64_t dice = rng.Below(100);
    if (dice < 45) {  // put a fresh or random clustering key
      const uint64_t clustering = rng.Below(kClusterings);
      table->Put(Key(p), RandomColumn(rng, clustering));
      written[p].push_back(clustering);
    } else if (dice < 60 && !written[p].empty()) {  // overwrite
      const uint64_t clustering = written[p][rng.Below(written[p].size())];
      table->Put(Key(p), RandomColumn(rng, clustering));
    } else if (dice < 75) {  // delete, often of a live cell
      const uint64_t clustering =
          written[p].empty() || rng.Chance(0.3)
              ? rng.Below(kClusterings)
              : written[p][rng.Below(written[p].size())];
      table->Delete(Key(p), clustering);
    } else if (dice < 88) {  // flush (may trigger a size-tiered merge)
      table->Flush();
    } else if (dice < 93) {  // full compaction purges tombstones
      EXPECT_TRUE(table->Compact().ok());
      ++full_compactions;
    } else if (dice < 96) {  // snapshot reload into a fresh table
      ASSERT_TRUE(table->SaveSnapshot(snapshot_path_).ok());
      auto reloaded = std::make_unique<Table>("t", options, cache.get());
      ASSERT_TRUE(reloaded->LoadSnapshot(snapshot_path_).ok());
      tiered_merges += table->auto_compactions();
      table = std::move(reloaded);
      ++reloads;
    }
    for (size_t q = 0; q <= kPartitions; ++q) {  // q == kPartitions: absent
      CheckOperators(*table, Key(q), rng);
      if (HasFatalFailure()) return;
    }
  }
  // The mix reached every kind of step it claims to cover.
  EXPECT_GT(tiered_merges + table->auto_compactions(), 0u);
  EXPECT_GT(full_compactions, 0);
  EXPECT_GT(reloads, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, StoreReadPath,
    ::testing::Combine(::testing::Values(size_t{0}, size_t{1} * kKiB,
                                         size_t{64} * kMiB),
                       ::testing::Values(uint64_t{1}, uint64_t{7},
                                         uint64_t{42})),
    [](const ::testing::TestParamInfo<StoreReadPath::ParamType>& param) {
      const size_t bytes = std::get<0>(param.param);
      const std::string cache = bytes == 0        ? "NoCache"
                                : bytes < kMiB    ? "Cache1KiB"
                                                  : "Cache64MiB";
      return cache + "Seed" + std::to_string(std::get<1>(param.param));
    });

class StoreReadPathCorruption : public ::testing::TestWithParam<size_t> {};

TEST_P(StoreReadPathCorruption, DamagedBlockFailsEveryOperator) {
  const size_t cache_bytes = GetParam();
  std::unique_ptr<BlockCache> cache;
  if (cache_bytes > 0) cache = std::make_unique<BlockCache>(cache_bytes);
  TableOptions options = ReadPathTableOptions();
  options.compaction_min_segments = 0;
  Table table("t", options, cache.get());
  Rng rng(3);
  // "p" sorts first, so segment 0's first blocks are p's; it is indexed.
  for (uint64_t i = 0; i < 100; ++i) {
    table.Put("p", RandomColumn(rng, i));
    table.Put("q", RandomColumn(rng, i));
  }
  table.Flush();
  table.Put("p", RandomColumn(rng, 1000));  // a memtable run as well
  // Warm whatever the cache holds, then damage p's second block.
  ASSERT_TRUE(table.CountByType("p").ok());
  ASSERT_TRUE(table.CorruptBlockForFaultInjection(0, 1, 5).ok());

  // An early stop (limit 1, k 1) still verifies every block first.
  auto counts = table.CountByType("p");
  auto scan = table.ScanRange("p", 0, UINT64_MAX, 1);
  auto top = table.TopKByClustering("p", 1);
  EXPECT_EQ(counts.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(scan.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(top.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(table.GetPartition("p").status().code(), StatusCode::kCorruption);

  // The damage is scoped to p's blocks.
  auto other = table.CountByType("q");
  ASSERT_TRUE(other.ok());
  uint64_t total = 0;
  for (const auto& [type, n] : other.value()) total += n;
  EXPECT_EQ(total, 100u);
}

INSTANTIATE_TEST_SUITE_P(Caches, StoreReadPathCorruption,
                         ::testing::Values(size_t{0}, size_t{1} * kKiB,
                                           size_t{64} * kMiB));

}  // namespace
}  // namespace kvscale
