#include "cluster/migration.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "common/check.hpp"
#include "store/decoded_block.hpp"
#include "store/row.hpp"
#include "wire/messages.hpp"

namespace kvscale {

namespace {

/// Encodes one partition's columns as a payload string (the codec's field
/// types carry strings, not byte vectors, so the bytes travel as one).
std::string EncodePayload(const std::vector<Column>& columns) {
  WireBuffer buf;
  EncodeColumns(columns, buf);
  const auto bytes = buf.data();
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

std::span<const std::byte> PayloadBytes(const std::string& payload) {
  return {reinterpret_cast<const std::byte*>(payload.data()), payload.size()};
}

/// Ships one control message (MigrationBegin / MigrationDone) through the
/// same encode -> frame -> split -> decode pipeline as the data blocks.
/// Control frames are not fault-injected — the drill targets the data.
template <typename M>
Status RoundTripControlFrame(WireCodecKind codec, const CompactCodec& registry,
                             uint64_t migration_id, const M& msg,
                             uint64_t& bytes) {
  WireBuffer payload;
  EncodeWith(codec, registry, msg, payload);
  WireBuffer frame;
  const uint32_t zero = 0;
  EncodeFrame(codec, migration_id, /*trace_flags=*/0,
              std::span<const uint32_t>(&zero, 1),
              std::span<const uint32_t>(&zero, 1),
              std::span<const WireBuffer>(&payload, 1), frame);
  const std::vector<std::byte> data = frame.TakeBytes();
  bytes += data.size();
  auto parts = SplitFrame(data, codec);
  if (!parts.ok()) return parts.status();
  if (parts.value().items.size() != 1) {
    return Status::Corruption("migration control frame item count");
  }
  auto decoded = DecodeWith<M>(codec, registry, parts.value().items[0].payload);
  if (!decoded.ok()) return decoded.status();
  if (decoded.value().migration_id != migration_id) {
    return Status::Corruption("migration control frame id mismatch");
  }
  return Status::Ok();
}

}  // namespace

void MigrationStreamStats::MergeFrom(const MigrationStreamStats& other) {
  blocks += other.blocks;
  partitions += other.partitions;
  columns += other.columns;
  bytes += other.bytes;
  block_retries += other.block_retries;
  source_failovers += other.source_failovers;
  partitions_skipped += other.partitions_skipped;
  skipped_keys.insert(skipped_keys.end(), other.skipped_keys.begin(),
                      other.skipped_keys.end());
}

MigrationEngine::MigrationEngine(StoreAccessor stores,
                                 const CompactCodec& registry,
                                 FaultInjector* injector, Options options)
    : stores_(std::move(stores)),
      registry_(registry),
      injector_(injector),
      options_(options) {
  KV_CHECK(options_.keys_per_block >= 1);
  KV_CHECK(options_.max_block_attempts >= 1);
}

MigrationEngine::MigrationEngine(StoreAccessor stores,
                                 const CompactCodec& registry,
                                 FaultInjector* injector)
    : MigrationEngine(std::move(stores), registry, injector, Options()) {}

Status MigrationEngine::ShipBlock(uint64_t migration_id, uint32_t seq,
                                  NodeId source, NodeId target,
                                  const std::string& table,
                                  std::vector<std::string> keys,
                                  std::vector<std::string> payloads,
                                  MigrationStreamStats& stats) {
  std::shared_ptr<LocalStore> target_store = stores_(target);
  if (target_store == nullptr) {
    return Status::Unavailable("migration target " + std::to_string(target) +
                               " has no store");
  }
  MigrationBlock block;
  block.migration_id = migration_id;
  block.seq = seq;
  block.source = source;
  block.target = target;
  block.table = table;
  block.keys = std::move(keys);
  block.payloads = std::move(payloads);
  block.checksum = MigrationBlockChecksum(block.payloads);

  for (uint32_t attempt = 0; attempt < options_.max_block_attempts;
       ++attempt) {
    if (attempt > 0) ++stats.block_retries;
    // Sender side: encode the message, then frame it exactly like the
    // query path frames its sub-queries (seq rides in the envelope's
    // sub_id slot, the re-send ordinal in its attempt slot).
    WireBuffer payload_buf;
    EncodeWith(options_.codec, registry_, block, payload_buf);
    WireBuffer frame_buf;
    const uint32_t wire_seq = seq;
    EncodeFrame(options_.codec, migration_id, /*trace_flags=*/0,
                std::span<const uint32_t>(&wire_seq, 1),
                std::span<const uint32_t>(&attempt, 1),
                std::span<const WireBuffer>(&payload_buf, 1), frame_buf);
    std::vector<std::byte> frame = frame_buf.TakeBytes();
    stats.bytes += frame.size();

    // In-flight corruption: one flipped bit, caught below by the frame
    // validation or the block checksum — never applied to the store.
    if (injector_ != nullptr &&
        injector_->ShouldCorruptMigrationFrame(source, target, seq,
                                               attempt) &&
        !frame.empty()) {
      frame[frame.size() / 2] ^= std::byte{0x10};
    }

    // Receiver side: split the frame, decode the block, verify the
    // checksum before a single column lands.
    auto parts = SplitFrame(frame, options_.codec);
    if (!parts.ok() || parts.value().items.size() != 1) continue;
    auto decoded = DecodeWith<MigrationBlock>(options_.codec, registry_,
                                              parts.value().items[0].payload);
    if (!decoded.ok()) continue;
    const MigrationBlock& received = decoded.value();
    if (received.migration_id != migration_id ||
        received.keys.size() != received.payloads.size() ||
        received.checksum != MigrationBlockChecksum(received.payloads)) {
      continue;
    }

    Table& table_ref = target_store->GetOrCreateTable(received.table);
    for (size_t i = 0; i < received.keys.size(); ++i) {
      auto columns = DecodeColumns(PayloadBytes(received.payloads[i]));
      // The checksum already vouched for these bytes; an undecodable
      // payload means the sender encoded garbage, not wire damage.
      if (!columns.ok()) {
        return Status::Internal("migration payload undecodable for key " +
                                received.keys[i]);
      }
      for (Column& column : columns.value()) {
        table_ref.Put(received.keys[i], std::move(column));
      }
      ++stats.partitions;
      stats.columns += columns.value().size();
    }
    ++stats.blocks;
    return Status::Ok();
  }
  return Status::Corruption(
      "migration block " + std::to_string(seq) + " from node " +
      std::to_string(source) + " failed validation " +
      std::to_string(options_.max_block_attempts) + " times");
}

Result<MigrationStreamStats> MigrationEngine::Run(
    uint64_t migration_id, std::vector<PartitionMove> moves) {
  MigrationStreamStats stats;
  // Group by (table, target): one logical stream per pair, so the blocks
  // a target applies arrive in one ordered sequence per table.
  std::map<std::pair<std::string, NodeId>, std::vector<PartitionMove>>
      streams;
  for (PartitionMove& move : moves) {
    streams[{move.table, move.target}].push_back(std::move(move));
  }

  uint32_t seq = 0;
  for (auto& [stream_key, stream_moves] : streams) {
    const std::string& table = stream_key.first;
    const NodeId target = stream_key.second;

    // Assemble blocks: consecutive keys served by the same live source.
    std::vector<std::string> keys;
    std::vector<std::string> payloads;
    NodeId block_source = 0;
    bool begun = false;
    const MigrationStreamStats before = stats;
    auto flush_block = [&]() -> Status {
      if (keys.empty()) return Status::Ok();
      const NodeId source = block_source;
      if (!begun) {
        MigrationBegin begin;
        begin.migration_id = migration_id;
        begin.source = source;
        begin.target = target;
        begin.table = table;
        begin.partitions = stream_moves.size();
        KV_RETURN_IF_ERROR(RoundTripControlFrame(
            options_.codec, registry_, migration_id, begin, stats.bytes));
        begun = true;
      }
      KV_RETURN_IF_ERROR(ShipBlock(migration_id, seq++, source, target,
                                   table, std::move(keys),
                                   std::move(payloads), stats));
      keys.clear();
      payloads.clear();
      // An armed mid-stream kill fires here: the remaining partitions of
      // this stream fail over to the next surviving replica.
      if (injector_ != nullptr &&
          injector_->OnMigrationBlockStreamed(source)) {
        ++stats.source_failovers;
      }
      return Status::Ok();
    };

    for (const PartitionMove& move : stream_moves) {
      // Pick the first live replica that actually holds the partition.
      bool shipped = false;
      for (const NodeId source : move.sources) {
        if (injector_ != nullptr && injector_->IsNodeDown(source)) continue;
        std::shared_ptr<LocalStore> store = stores_(source);
        if (store == nullptr) continue;
        auto found = store->FindTable(move.table);
        if (!found.ok()) continue;
        auto columns = found.value()->GetPartition(move.key);
        if (!columns.ok()) continue;
        if (!keys.empty() &&
            (block_source != source || keys.size() >= options_.keys_per_block)) {
          KV_RETURN_IF_ERROR(flush_block());
        }
        block_source = source;
        keys.push_back(move.key);
        payloads.push_back(EncodePayload(columns.value()));
        shipped = true;
        break;
      }
      if (!shipped) {
        // No live replica holds it: genuine loss (or a racing kill), the
        // caller folds this into its repair report.
        ++stats.partitions_skipped;
        stats.skipped_keys.push_back(move.key);
      }
    }
    KV_RETURN_IF_ERROR(flush_block());
    if (begun) {
      MigrationDone done;
      done.migration_id = migration_id;
      done.target = target;
      done.blocks = stats.blocks - before.blocks;
      done.partitions = stats.partitions - before.partitions;
      done.columns = stats.columns - before.columns;
      KV_RETURN_IF_ERROR(RoundTripControlFrame(
          options_.codec, registry_, migration_id, done, stats.bytes));
    }
  }
  std::sort(stats.skipped_keys.begin(), stats.skipped_keys.end());
  stats.skipped_keys.erase(
      std::unique(stats.skipped_keys.begin(), stats.skipped_keys.end()),
      stats.skipped_keys.end());
  return stats;
}

}  // namespace kvscale
