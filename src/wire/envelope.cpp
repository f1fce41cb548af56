#include "wire/envelope.hpp"

#include <algorithm>
#include <limits>
#include <optional>

namespace kvscale {

std::string_view WireCodecName(WireCodecKind kind) {
  switch (kind) {
    case WireCodecKind::kTagged:
      return "tagged";
    case WireCodecKind::kCompact:
      return "compact";
  }
  return "unknown";
}

Result<WireCodecKind> ParseWireCodec(std::string_view name) {
  if (name == "tagged") return WireCodecKind::kTagged;
  if (name == "compact") return WireCodecKind::kCompact;
  return Status::InvalidArgument("unknown codec '" + std::string(name) +
                                 "' (expected tagged|compact)");
}

namespace {

void WriteFrameHeader(WireCodecKind codec, uint64_t query_id,
                      uint8_t trace_flags, size_t count, WireBuffer& out) {
  out.WriteU16(kFrameMagic);
  out.WriteU8(kFrameVersion);
  out.WriteU8(static_cast<uint8_t>(codec));
  out.WriteU8(trace_flags);
  out.WriteVarint(query_id);
  out.WriteVarint(count);
}

void WriteFrameItem(uint32_t sub_id, uint32_t attempt,
                    std::span<const std::byte> payload, WireBuffer& out) {
  out.WriteVarint(sub_id);
  out.WriteVarint(attempt);
  // WriteBytes emits the varint length prefix itself.
  out.WriteBytes(payload);
}

/// Frames `messages` (each carrying query_id and sub_id) with one
/// attempt ordinal per message. Every payload is encoded into one reused
/// scratch buffer and copied behind its length prefix, so a frame of N
/// items costs one scratch allocation, not N buffers.
template <typename M>
void EncodeMessageFrame(std::span<const M> messages,
                        std::span<const uint32_t> attempts,
                        uint8_t trace_flags, WireCodecKind kind,
                        const CompactCodec& registry, WireBuffer& out) {
  const uint64_t query_id = messages.empty() ? 0 : messages[0].query_id;
  WriteFrameHeader(kind, query_id, trace_flags, messages.size(), out);
  WireBuffer scratch;
  for (size_t i = 0; i < messages.size(); ++i) {
    scratch.clear();
    EncodeWith(kind, registry, messages[i], scratch);
    WriteFrameItem(messages[i].sub_id, i < attempts.size() ? attempts[i] : 0,
                   scratch.data(), out);
  }
}

/// The sub_id some two items of `items` share, if any. Frames built by
/// the master list their items in ascending sub_id order, so the common
/// case is one linear pass with no allocation.
std::optional<uint32_t> DuplicateSubId(const std::vector<FrameItem>& items) {
  bool ascending = true;
  for (size_t i = 1; i < items.size() && ascending; ++i) {
    ascending = items[i - 1].sub_id < items[i].sub_id;
  }
  if (ascending) return std::nullopt;
  std::vector<uint32_t> ids;
  ids.reserve(items.size());
  for (const FrameItem& item : items) ids.push_back(item.sub_id);
  std::sort(ids.begin(), ids.end());
  const auto dup = std::adjacent_find(ids.begin(), ids.end());
  if (dup == ids.end()) return std::nullopt;
  return *dup;
}

/// Decodes one item's payload and checks it against its envelope: the
/// payload's query_id must be the frame's and its sub_id the item's.
/// `what` names the frame kind in error messages.
template <typename M>
Result<M> DecodeFrameItem(const FrameParts& parts, const FrameItem& item,
                          WireCodecKind kind, const CompactCodec& registry,
                          std::string_view what) {
  auto decoded = DecodeWith<M>(kind, registry, item.payload);
  if (!decoded.ok()) return decoded.status();
  if (decoded.value().query_id != parts.query_id) {
    return Status::Corruption(
        std::string(what) + ": payload query_id " +
        std::to_string(decoded.value().query_id) +
        " disagrees with the envelope's " + std::to_string(parts.query_id));
  }
  if (decoded.value().sub_id != item.sub_id) {
    return Status::Corruption(
        std::string(what) + ": payload sub_id " +
        std::to_string(decoded.value().sub_id) +
        " disagrees with the envelope's " + std::to_string(item.sub_id));
  }
  return decoded;
}

/// Splits `frame` and checks the item-set invariants every multi-item
/// frame shares: at least one item and no sub_id twice.
Result<FrameParts> SplitItemFrame(std::span<const std::byte> frame,
                                  WireCodecKind kind, std::string_view what) {
  auto split = SplitFrame(frame, kind);
  if (!split.ok()) return split.status();
  if (split.value().items.empty()) {
    return Status::Corruption(std::string(what) + ": empty frame");
  }
  if (const auto dup = DuplicateSubId(split.value().items)) {
    return Status::Corruption(std::string(what) + ": duplicate sub_id " +
                              std::to_string(*dup));
  }
  return split;
}

/// Splits a reply frame and applies the frame-level checks every reply
/// decoder shares: the item-set rules and, with a non-null
/// `expected_query_id`, the demultiplexer's — a frame naming another
/// query is kCorruption. Each item's payload is then checked by
/// DecodeFrameItem, so the batch and single-reply decoders share one
/// parser.
Result<FrameParts> SplitReplyFrame(std::span<const std::byte> frame,
                                   WireCodecKind kind,
                                   const uint64_t* expected_query_id) {
  auto split = SplitItemFrame(frame, kind, "reply frame");
  if (!split.ok()) return split.status();
  if (expected_query_id != nullptr &&
      split.value().query_id != *expected_query_id) {
    return Status::Corruption(
        "reply frame: demux mismatch (reply names query " +
        std::to_string(split.value().query_id) + ", channel belongs to " +
        std::to_string(*expected_query_id) + ")");
  }
  return split;
}

/// A reply frame that must hold exactly one reply.
Result<DecodedReplyFrame> DecodeSingleReply(std::span<const std::byte> frame,
                                            WireCodecKind kind,
                                            const CompactCodec& registry,
                                            const uint64_t* expected_query_id) {
  auto split = SplitReplyFrame(frame, kind, expected_query_id);
  if (!split.ok()) return split.status();
  const FrameParts& parts = split.value();
  if (parts.items.size() != 1) {
    return Status::Corruption("reply frame: expected exactly one payload");
  }
  auto decoded = DecodeFrameItem<SubQueryReply>(
      parts, parts.items.front(), kind, registry, "reply frame");
  if (!decoded.ok()) return decoded.status();
  DecodedReplyFrame out;
  out.trace_flags = parts.trace_flags;
  out.attempt = parts.items.front().attempt;
  out.reply = std::move(decoded).value();
  return out;
}

}  // namespace

void EncodeFrame(WireCodecKind codec, uint64_t query_id, uint8_t trace_flags,
                 std::span<const uint32_t> sub_ids,
                 std::span<const uint32_t> attempts,
                 std::span<const WireBuffer> items, WireBuffer& out) {
  WriteFrameHeader(codec, query_id, trace_flags, items.size(), out);
  for (size_t i = 0; i < items.size(); ++i) {
    WriteFrameItem(i < sub_ids.size() ? sub_ids[i] : 0,
                   i < attempts.size() ? attempts[i] : 0, items[i].data(),
                   out);
  }
}

Result<FrameParts> SplitFrame(std::span<const std::byte> frame,
                              WireCodecKind expected) {
  WireReader r(frame);
  const uint16_t magic = r.ReadU16();
  const uint8_t version = r.ReadU8();
  const uint8_t codec = r.ReadU8();
  if (!r.ok() || magic != kFrameMagic) {
    return Status::Corruption("frame: bad magic");
  }
  if (version != kFrameVersion) {
    return Status::Corruption("frame: unsupported version " +
                              std::to_string(version));
  }
  if (codec != static_cast<uint8_t>(WireCodecKind::kTagged) &&
      codec != static_cast<uint8_t>(WireCodecKind::kCompact)) {
    return Status::Corruption("frame: unknown codec id " +
                              std::to_string(codec));
  }
  if (codec != static_cast<uint8_t>(expected)) {
    return Status::Corruption(
        "frame: codec mismatch (frame is " +
        std::string(WireCodecName(static_cast<WireCodecKind>(codec))) +
        ", decoder expected " + std::string(WireCodecName(expected)) + ")");
  }
  const uint8_t trace_flags = r.ReadU8();
  if (!r.ok()) return Status::Corruption("frame: truncated trace flags");
  if ((trace_flags & ~kTraceFlagsMask) != 0) {
    return Status::Corruption("frame: unknown trace flag bits " +
                              std::to_string(trace_flags & ~kTraceFlagsMask));
  }
  const uint64_t query_id = r.ReadVarint();
  if (!r.ok()) return Status::Corruption("frame: bad query id");
  const uint64_t count = r.ReadVarint();
  if (!r.ok()) return Status::Corruption("frame: bad item count");
  // Each item needs at least three bytes (sub_id, attempt, and length
  // varints), so a count larger than a third of the remaining bytes is a
  // lie — reject before reserving anything.
  if (count > r.remaining() / 3) {
    return Status::Corruption("frame: item count " + std::to_string(count) +
                              " exceeds the bytes present");
  }
  FrameParts parts;
  parts.query_id = query_id;
  parts.trace_flags = trace_flags;
  parts.items.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t sub_id = r.ReadVarint();
    if (!r.ok() || sub_id > std::numeric_limits<uint32_t>::max()) {
      return Status::Corruption("frame: bad item sub_id");
    }
    const uint64_t attempt = r.ReadVarint();
    if (!r.ok() || attempt > std::numeric_limits<uint32_t>::max()) {
      return Status::Corruption("frame: bad item attempt");
    }
    const uint64_t length = r.ReadVarint();
    if (!r.ok()) return Status::Corruption("frame: bad length prefix");
    const size_t offset = frame.size() - r.remaining();
    if (length > r.remaining()) {
      return Status::Corruption("frame: length prefix " +
                                std::to_string(length) +
                                " overruns the frame");
    }
    FrameItem item;
    item.sub_id = static_cast<uint32_t>(sub_id);
    item.attempt = static_cast<uint32_t>(attempt);
    item.payload = frame.subspan(offset, static_cast<size_t>(length));
    parts.items.push_back(item);
    // Skip over the payload without copying or visiting it.
    r.Skip(static_cast<size_t>(length));
  }
  if (!r.AtEnd()) return Status::Corruption("frame: trailing bytes");
  return parts;
}

void EncodeSubQueryBatch(std::span<const SubQueryRequest> requests,
                         std::span<const uint32_t> attempts,
                         uint8_t trace_flags, WireCodecKind kind,
                         const CompactCodec& registry, WireBuffer& out) {
  EncodeMessageFrame(requests, attempts, trace_flags, kind, registry, out);
}

Result<DecodedSubQueryBatch> DecodeSubQueryBatch(
    std::span<const std::byte> frame, WireCodecKind kind,
    const CompactCodec& registry) {
  auto split = SplitItemFrame(frame, kind, "batch");
  if (!split.ok()) return split.status();
  const FrameParts& parts = split.value();
  DecodedSubQueryBatch batch;
  batch.query_id = parts.query_id;
  batch.trace_flags = parts.trace_flags;
  batch.requests.reserve(parts.items.size());
  batch.attempts.reserve(parts.items.size());
  for (const FrameItem& item : parts.items) {
    auto decoded =
        DecodeFrameItem<SubQueryRequest>(parts, item, kind, registry, "batch");
    if (!decoded.ok()) return decoded.status();
    if (!IsKnownQueryOp(decoded.value().op)) {
      return Status::Corruption("batch: unknown operator id " +
                                std::to_string(decoded.value().op));
    }
    batch.requests.push_back(std::move(decoded).value());
    batch.attempts.push_back(item.attempt);
  }
  return batch;
}

void EncodeReplyBatch(std::span<const SubQueryReply> replies,
                      std::span<const uint32_t> attempts,
                      uint8_t trace_flags, WireCodecKind kind,
                      const CompactCodec& registry, WireBuffer& out) {
  EncodeMessageFrame(replies, attempts, trace_flags, kind, registry, out);
}

Result<DecodedReplyBatch> DecodeReplyBatch(std::span<const std::byte> frame,
                                           WireCodecKind kind,
                                           const CompactCodec& registry,
                                           uint64_t expected_query_id) {
  auto split = SplitReplyFrame(frame, kind, &expected_query_id);
  if (!split.ok()) return split.status();
  const FrameParts& parts = split.value();
  DecodedReplyBatch batch;
  batch.query_id = parts.query_id;
  batch.trace_flags = parts.trace_flags;
  batch.replies.reserve(parts.items.size());
  batch.attempts.reserve(parts.items.size());
  for (const FrameItem& item : parts.items) {
    auto decoded = DecodeFrameItem<SubQueryReply>(parts, item, kind, registry,
                                                  "reply frame");
    if (!decoded.ok()) return decoded.status();
    batch.replies.push_back(std::move(decoded).value());
    batch.attempts.push_back(item.attempt);
  }
  return batch;
}

void EncodeReplyFrame(const SubQueryReply& reply, uint32_t attempt,
                      uint8_t trace_flags, WireCodecKind kind,
                      const CompactCodec& registry, WireBuffer& out) {
  EncodeReplyBatch(std::span<const SubQueryReply>(&reply, 1),
                   std::span<const uint32_t>(&attempt, 1), trace_flags, kind,
                   registry, out);
}

Result<DecodedReplyFrame> DecodeReplyFrame(std::span<const std::byte> frame,
                                           WireCodecKind kind,
                                           const CompactCodec& registry) {
  return DecodeSingleReply(frame, kind, registry, nullptr);
}

Result<DecodedReplyFrame> DecodeReplyFrame(std::span<const std::byte> frame,
                                           WireCodecKind kind,
                                           const CompactCodec& registry,
                                           uint64_t expected_query_id) {
  return DecodeSingleReply(frame, kind, registry, &expected_query_id);
}

void EncodeWriteBatchFrame(const WriteBatch& batch, uint32_t attempt,
                           uint8_t trace_flags, WireCodecKind kind,
                           const CompactCodec& registry, WireBuffer& out) {
  EncodeMessageFrame(std::span<const WriteBatch>(&batch, 1),
                     std::span<const uint32_t>(&attempt, 1), trace_flags,
                     kind, registry, out);
}

Result<DecodedWriteBatchFrame> DecodeWriteBatchFrame(
    std::span<const std::byte> frame, WireCodecKind kind,
    const CompactCodec& registry) {
  auto split = SplitFrame(frame, kind);
  if (!split.ok()) return split.status();
  if (split.value().items.size() != 1) {
    return Status::Corruption("write batch: expected exactly one payload");
  }
  const FrameItem& item = split.value().items.front();
  auto decoded = DecodeFrameItem<WriteBatch>(split.value(), item, kind,
                                             registry, "write batch");
  if (!decoded.ok()) return decoded.status();
  const WriteBatch& batch = decoded.value();
  if (batch.keys.empty()) {
    return Status::Corruption("write batch: no keys");
  }
  if (batch.clusterings.size() != batch.keys.size() ||
      batch.type_ids.size() != batch.keys.size() ||
      batch.tombstones.size() != batch.keys.size() ||
      batch.payloads.size() != batch.keys.size()) {
    return Status::Corruption(
        "write batch: column vectors disagree on length (" +
        std::to_string(batch.keys.size()) + " keys, " +
        std::to_string(batch.clusterings.size()) + " clusterings, " +
        std::to_string(batch.type_ids.size()) + " type_ids, " +
        std::to_string(batch.tombstones.size()) + " tombstones, " +
        std::to_string(batch.payloads.size()) + " payloads)");
  }
  for (size_t i = 0; i < batch.keys.size(); ++i) {
    if (batch.type_ids[i] > std::numeric_limits<uint32_t>::max()) {
      return Status::Corruption("write batch: type_id " +
                                std::to_string(batch.type_ids[i]) +
                                " does not fit uint32");
    }
    if (batch.tombstones[i] > 1) {
      return Status::Corruption("write batch: tombstone flag " +
                                std::to_string(batch.tombstones[i]) +
                                " is not 0/1");
    }
  }
  if (MigrationBlockChecksum(batch.payloads) != batch.checksum) {
    return Status::Corruption("write batch: payload checksum mismatch");
  }
  DecodedWriteBatchFrame out;
  out.trace_flags = split.value().trace_flags;
  out.attempt = item.attempt;
  out.batch = std::move(decoded).value();
  return out;
}

void EncodeWriteReplyFrame(const WriteReply& reply, uint32_t attempt,
                           uint8_t trace_flags, WireCodecKind kind,
                           const CompactCodec& registry, WireBuffer& out) {
  EncodeMessageFrame(std::span<const WriteReply>(&reply, 1),
                     std::span<const uint32_t>(&attempt, 1), trace_flags,
                     kind, registry, out);
}

Result<DecodedWriteReplyFrame> DecodeWriteReplyFrame(
    std::span<const std::byte> frame, WireCodecKind kind,
    const CompactCodec& registry) {
  auto split = SplitFrame(frame, kind);
  if (!split.ok()) return split.status();
  if (split.value().items.size() != 1) {
    return Status::Corruption("write reply: expected exactly one payload");
  }
  const FrameItem& item = split.value().items.front();
  auto decoded = DecodeFrameItem<WriteReply>(split.value(), item, kind,
                                             registry, "write reply");
  if (!decoded.ok()) return decoded.status();
  const WriteReply& reply = decoded.value();
  for (size_t i = 1; i < reply.failed_keys.size(); ++i) {
    if (reply.failed_keys[i] <= reply.failed_keys[i - 1]) {
      return Status::Corruption(
          "write reply: failed_keys not strictly increasing at index " +
          std::to_string(i));
    }
  }
  DecodedWriteReplyFrame out;
  out.trace_flags = split.value().trace_flags;
  out.attempt = item.attempt;
  out.reply = std::move(decoded).value();
  return out;
}

Result<DecodedWriteReplyFrame> DecodeWriteReplyFrame(
    std::span<const std::byte> frame, WireCodecKind kind,
    const CompactCodec& registry, uint64_t expected_query_id) {
  auto decoded = DecodeWriteReplyFrame(frame, kind, registry);
  if (!decoded.ok()) return decoded.status();
  if (decoded.value().reply.query_id != expected_query_id) {
    return Status::Corruption(
        "write reply: demux mismatch (reply names query " +
        std::to_string(decoded.value().reply.query_id) +
        ", channel belongs to " + std::to_string(expected_query_id) + ")");
  }
  return decoded;
}

}  // namespace kvscale
