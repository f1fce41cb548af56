// Concurrency tests for the storage engine: the Table promises thread-safe
// reads/writes (shared lock for reads, exclusive for writes/flush/compact)
// and the BlockCache promises internally synchronised access.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "store/local_store.hpp"
#include "store/row.hpp"
#include "store/segment.hpp"

namespace kvscale {
namespace {

Column MakeColumn(uint64_t clustering, uint32_t type) {
  Column c;
  c.clustering = clustering;
  c.type_id = type;
  c.payload = MakePayload(9, clustering, 24);
  return c;
}

TEST(StoreConcurrencyTest, ParallelReadersSeeConsistentPartitions) {
  Table table("t", TableOptions{}, nullptr);
  constexpr uint64_t kColumns = 2000;
  for (uint64_t i = 0; i < kColumns; ++i) {
    table.Put("p", MakeColumn(i, i % 4));
  }
  table.Flush();

  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&table, &failures] {
      for (int iter = 0; iter < 50; ++iter) {
        auto cols = table.GetPartition("p");
        if (!cols.ok() || cols.value().size() != kColumns) {
          ++failures;
          continue;
        }
        auto counts = table.CountByType("p");
        if (!counts.ok() || counts.value().at(0) != kColumns / 4) ++failures;
      }
    });
  }
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(StoreConcurrencyTest, WritersAndReadersInterleaveSafely) {
  TableOptions options;
  options.memtable_flush_bytes = 32 * kKiB;  // force flushes mid-run
  Table table("t", options, nullptr);
  // Seed one stable partition the readers can verify.
  for (uint64_t i = 0; i < 500; ++i) table.Put("stable", MakeColumn(i, 0));

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::thread writer([&] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      table.Put("hot-" + std::to_string(i % 16), MakeColumn(i, 1));
      ++i;
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      for (int iter = 0; iter < 200; ++iter) {
        auto cols = table.GetPartition("stable");
        if (!cols.ok() || cols.value().size() != 500) ++failures;
        auto slice = table.Slice("stable", 100, 199);
        if (!slice.ok() || slice.value().size() != 100) ++failures;
      }
    });
  }
  for (auto& reader : readers) reader.join();
  stop = true;
  writer.join();
  EXPECT_EQ(failures.load(), 0);
  // All hot writes are still readable afterwards.
  for (int p = 0; p < 16; ++p) {
    EXPECT_TRUE(table.HasPartition("hot-" + std::to_string(p)));
  }
}

TEST(StoreConcurrencyTest, SharedCacheSurvivesParallelReaders) {
  BlockCache cache(16 * kMiB);
  TableOptions options;
  Table table("t", options, &cache);
  for (int part = 0; part < 8; ++part) {
    for (uint64_t i = 0; i < 300; ++i) {
      table.Put("p" + std::to_string(part), MakeColumn(i, 0));
    }
  }
  table.Flush();

  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&table, &failures, t] {
      for (int iter = 0; iter < 100; ++iter) {
        const std::string key = "p" + std::to_string((iter + t) % 8);
        auto cols = table.GetPartition(key);
        if (!cols.ok() || cols.value().size() != 300) ++failures;
      }
    });
  }
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(cache.hits(), 0u);
}

TEST(StoreConcurrencyTest, CompactionDuringReads) {
  Table table("t", TableOptions{}, nullptr);
  for (int round = 0; round < 4; ++round) {
    for (uint64_t i = 0; i < 400; ++i) {
      table.Put("p", MakeColumn(round * 1000 + i, round));
    }
    table.Flush();
  }

  std::atomic<int> failures{0};
  std::thread compactor([&table] { EXPECT_TRUE(table.Compact().ok()); });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&table, &failures] {
      for (int iter = 0; iter < 100; ++iter) {
        auto cols = table.GetPartition("p");
        if (!cols.ok() || cols.value().size() != 1600) ++failures;
      }
    });
  }
  for (auto& reader : readers) reader.join();
  compactor.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(table.segment_count(), 1u);
}

TEST(StoreConcurrencyTest, HeldBlocksOutliveEvictionAndCompaction) {
  // A cache of a few 1 KiB blocks: every read evicts someone's blocks.
  BlockCache cache(8 * kKiB);
  TableOptions options;
  options.segment.block_size = 1 * kKiB;
  options.compaction_min_segments = 0;
  Table table("t", options, &cache);
  Table noise("noise", options, &cache);
  for (int round = 0; round < 3; ++round) {
    for (uint64_t i = 0; i < 200; ++i) {
      for (int p = 0; p < 4; ++p) {
        table.Put("p" + std::to_string(p), MakeColumn(round * 1000 + i, p));
        noise.Put("n" + std::to_string(p), MakeColumn(round * 1000 + i, 0));
      }
    }
    table.Flush();
    noise.Flush();
  }
  // A segment read outside any table: its reader holds the blocks
  // itself, so the cache may evict them and erase the whole segment
  // while they are still being read.
  Memtable memtable;
  for (uint64_t i = 0; i < 400; ++i) memtable.Put("s", MakeColumn(i, 3));
  const auto segment = Segment::Build(memtable, 1, options.segment);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int iter = 0; iter < 150; ++iter) {
        const std::string key = "p" + std::to_string((iter + t) % 4);
        auto counts = table.CountByType(key);
        if (!counts.ok() || counts.value().size() != 1 ||
            counts.value().begin()->second != 600) {
          ++failures;
        }
        auto top = table.TopKByClustering(key, 5);
        if (!top.ok() || top.value().size() != 5 ||
            top.value().front().clustering != 2199) {
          ++failures;
        }
        auto scan = table.ScanRange(key, 1000, 1199, 0);
        if (!scan.ok() || scan.value().size() != 200) ++failures;
      }
    });
  }
  threads.emplace_back([&] {
    for (int iter = 0; iter < 150; ++iter) {
      std::vector<BlockSlice> held;
      if (!segment->ReadRun("s", std::nullopt, &cache, nullptr, &held).ok()) {
        ++failures;
        continue;
      }
      std::this_thread::yield();  // let the others evict and erase
      uint64_t expect = 0;
      for (const BlockSlice& slice : held) {
        for (uint32_t i = slice.begin; i < slice.end; ++i) {
          if (slice.block->clustering[i] != expect++ ||
              slice.block->type_id[i] != 3 ||
              slice.block->payload(i).size() != 24) {
            ++failures;
          }
        }
      }
      if (expect != 400) ++failures;
    }
  });
  threads.emplace_back([&] {  // evicts: reads another table's partitions
    for (uint64_t iter = 0; !stop.load(std::memory_order_relaxed); ++iter) {
      if (!noise.CountByType("n" + std::to_string(iter % 4)).ok()) ++failures;
      cache.EraseSegment(segment->cache_id());
    }
  });
  threads.emplace_back([&] {  // every compaction erases the live segments
    while (!stop.load(std::memory_order_relaxed)) {
      EXPECT_TRUE(table.Compact().ok());
      std::this_thread::yield();
    }
  });
  for (size_t t = 0; t < 3; ++t) threads[t].join();
  stop = true;
  for (size_t t = 3; t < threads.size(); ++t) threads[t].join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(cache.used_bytes(), cache.capacity_bytes());
}

}  // namespace
}  // namespace kvscale
