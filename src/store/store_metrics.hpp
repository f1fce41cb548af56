// Pre-resolved telemetry instruments for the storage hot path.
//
// A Table resolves its instruments once at construction (one mutex
// acquisition per name), then the read path touches only relaxed-atomic
// counters — no map lookups, no locks. Every table wired to the same
// MetricsRegistry shares the same instruments, so the registry reports
// store-wide totals (per-node granularity comes from per-node
// registries, merged with LatencyHistogram::Merge).
#pragma once

#include "store/segment.hpp"
#include "telemetry/metrics_registry.hpp"

namespace kvscale {

/// Handles to the `store.*` instruments.
struct StoreInstruments {
  Counter* reads = nullptr;            ///< store.read.count
  LatencyHistogram* read_latency = nullptr;  ///< store.read.latency_us
  Counter* cache_hits = nullptr;       ///< store.cache.hits
  Counter* cache_misses = nullptr;     ///< store.cache.misses (blocks decoded)
  Counter* bloom_negatives = nullptr;  ///< store.bloom.negatives
  Counter* corruption_errors = nullptr;  ///< store.read.corruption
  Counter* bytes_decoded = nullptr;    ///< store.read.bytes_decoded
  Counter* memtable_flushes = nullptr; ///< store.memtable.flushes
  LatencyHistogram* flush_latency = nullptr;  ///< store.flush.latency_us
  Counter* compactions = nullptr;      ///< store.compactions
  /// store.compaction.failures — merges abandoned because an input block
  /// failed its checksum (the input segments stay in place).
  Counter* compaction_failures = nullptr;
  Counter* commitlog_appends = nullptr;  ///< store.commitlog.appends
  /// store.commitlog.sync_failures — WAL Sync/MarkClean errors during
  /// FlushAll, which are non-fatal (the log only grows) but must not
  /// vanish silently.
  Counter* commitlog_sync_failures = nullptr;
  Counter* ingest_batches = nullptr;     ///< store.ingest.batches
  Counter* ingest_columns = nullptr;     ///< store.ingest.columns
  /// store.ingest.group_syncs — one per DurablePutBatch: the group-commit
  /// Sync() calls actually issued. batches/group_syncs == 1 proves the
  /// amortization; compare with store.commitlog.appends for the per-key
  /// sync count a naive path would have paid.
  Counter* ingest_group_syncs = nullptr;

  /// Resolves (creating on first use) every instrument in `registry`.
  static StoreInstruments Resolve(MetricsRegistry& registry);

  /// Accounts one finished read: `probe` must hold only this read's
  /// deltas, `latency_us` its wall-clock duration.
  void RecordRead(const ReadProbe& probe, double latency_us) const;
};

}  // namespace kvscale
