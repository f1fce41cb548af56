#include "store/store_metrics.hpp"

namespace kvscale {

StoreInstruments StoreInstruments::Resolve(MetricsRegistry& registry) {
  StoreInstruments out;
  out.reads = &registry.GetCounter("store.read.count");
  out.read_latency = &registry.GetHistogram("store.read.latency_us");
  out.cache_hits = &registry.GetCounter("store.cache.hits");
  out.cache_misses = &registry.GetCounter("store.cache.misses");
  out.bloom_negatives = &registry.GetCounter("store.bloom.negatives");
  out.corruption_errors = &registry.GetCounter("store.read.corruption");
  out.bytes_decoded = &registry.GetCounter("store.read.bytes_decoded");
  out.memtable_flushes = &registry.GetCounter("store.memtable.flushes");
  out.flush_latency = &registry.GetHistogram("store.flush.latency_us");
  out.compactions = &registry.GetCounter("store.compactions");
  out.compaction_failures =
      &registry.GetCounter("store.compaction.failures");
  out.commitlog_appends = &registry.GetCounter("store.commitlog.appends");
  out.commitlog_sync_failures =
      &registry.GetCounter("store.commitlog.sync_failures");
  out.ingest_batches = &registry.GetCounter("store.ingest.batches");
  out.ingest_columns = &registry.GetCounter("store.ingest.columns");
  out.ingest_group_syncs = &registry.GetCounter("store.ingest.group_syncs");
  return out;
}

void StoreInstruments::RecordRead(const ReadProbe& probe,
                                  double latency_us) const {
  reads->Increment();
  read_latency->Record(latency_us);
  if (probe.blocks_from_cache > 0) cache_hits->Increment(probe.blocks_from_cache);
  if (probe.blocks_decoded > 0) cache_misses->Increment(probe.blocks_decoded);
  if (probe.bloom_negatives > 0) bloom_negatives->Increment(probe.bloom_negatives);
  if (probe.bytes_decoded > 0) bytes_decoded->Increment(probe.bytes_decoded);
}

}  // namespace kvscale
