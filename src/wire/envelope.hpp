// Framed message envelopes for the node runtime's real message path.
//
// The codecs (codec.hpp) encode a single message; the runtime ships
// *frames*: a fixed header naming the codec that produced the payload,
// followed by length-prefixed message payloads. Framing buys three things
// the paper's prototype relied on its RPC stack for:
//
//   * batching — one frame coalesces every sub-query bound for a node
//     (the natural next optimization after the paper's Kryo switch, see
//     ClusterConfig::send_batch_size for the modelled version);
//   * codec negotiation — a frame self-identifies as Tagged or Compact,
//     so feeding bytes to the wrong decoder is a clean Status error, not
//     silent garbage (the Java-vs-Kryo axis must never cross-decode);
//   * robustness — every length prefix is validated against the bytes
//     actually present before any allocation, so truncated or hostile
//     frames fail with kCorruption instead of crashing or OOMing.
//
// Version 2 adds trace context to the envelope so node-side worker spans
// can be causally linked to the query that issued them without trusting
// the payloads: the frame names its owning query and flags, and every
// item carries its sub-query id and attempt ordinal alongside the
// payload. The decoder cross-checks the envelope context against the
// decoded payloads — a frame whose wire metadata disagrees with its
// contents is kCorruption, exactly like a bad length prefix.
//
// Frame layout (version 2):
//   [u16 magic 0xFAB1][u8 version][u8 codec][u8 trace_flags]
//   [varint query_id][varint count]
//   count x { [varint sub_id][varint attempt][varint length][payload] }
//
// Reply-frame contract: a reply frame answers exactly one request frame.
// The worker serves every item of a SubQueryBatch frame and ships one
// reply frame holding one SubQueryReply per item, in the request's item
// order, with the request's query_id, sub_ids, attempt ordinals and
// trace flags in the envelope. The layout above is shared, so a reply
// frame of one (EncodeReplyFrame) and of many (EncodeReplyBatch) are the
// same message type and version and decode through one parser. The
// master validates a reply frame as a unit: if it fails (corruption in
// flight, a demux mismatch, disagreement with the transport metadata),
// every item it carried fails over.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "wire/buffer.hpp"
#include "wire/codec.hpp"
#include "wire/messages.hpp"

namespace kvscale {

/// Which wire codec a frame's payloads were encoded with. The two ends of
/// the paper's Section V-B serialization axis, selectable on the real
/// data path.
enum class WireCodecKind : uint8_t {
  kTagged = 1,   ///< self-describing, Java-serialization-like
  kCompact = 2,  ///< registration-based, Kryo-like
};

std::string_view WireCodecName(WireCodecKind kind);

/// Parses "tagged" / "compact" (CLI flag spelling).
Result<WireCodecKind> ParseWireCodec(std::string_view name);

inline constexpr uint16_t kFrameMagic = 0xFAB1;
inline constexpr uint8_t kFrameVersion = 2;

/// Trace flag bits carried in the envelope header. Any bit outside
/// kTraceFlagsMask is kCorruption at decode time, like every other
/// header field.
inline constexpr uint8_t kTraceSampled = 0x01;
inline constexpr uint8_t kTraceFlagsMask = kTraceSampled;

/// Deterministic nonzero flow id for one sub-query attempt, used to link
/// a master-side dispatch span to the node-side worker spans it caused
/// in a Chrome trace (flow events require a shared id). Mixes the three
/// coordinates so distinct attempts never collide in practice.
inline constexpr uint64_t TraceFlowId(uint64_t query_id, uint32_t sub_id,
                                      uint32_t attempt) {
  // splitmix64-style finalizer over the packed coordinates.
  uint64_t x = query_id * 0x9E3779B97F4A7C15ull;
  x ^= (static_cast<uint64_t>(sub_id) << 32) | attempt;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x | 1;  // never zero: 0 means "no flow" in Span
}

/// One decoded frame item: the wire-level trace coordinates plus a view
/// into the frame's payload bytes.
struct FrameItem {
  uint32_t sub_id = 0;
  uint32_t attempt = 0;
  std::span<const std::byte> payload;
};

/// A split frame: the envelope's trace context plus its items (payload
/// spans view into the original frame buffer).
struct FrameParts {
  uint64_t query_id = 0;
  uint8_t trace_flags = 0;
  std::vector<FrameItem> items;
};

/// Appends a frame holding `items` (each an already-encoded message) to
/// `out`. `sub_ids` and `attempts` must parallel `items` — they are the
/// wire-level trace coordinates of each payload.
void EncodeFrame(WireCodecKind codec, uint64_t query_id, uint8_t trace_flags,
                 std::span<const uint32_t> sub_ids,
                 std::span<const uint32_t> attempts,
                 std::span<const WireBuffer> items, WireBuffer& out);

/// Splits a frame into its trace context and payload spans (views into
/// `frame`). Fails with kCorruption on a bad header, unknown trace-flag
/// bits, a count / length / id prefix that does not fit the bytes
/// present, or trailing garbage; fails with kCorruption ("codec
/// mismatch") when the frame was produced by a codec other than
/// `expected`. Never allocates proportionally to a claimed length, only
/// to bytes actually present.
Result<FrameParts> SplitFrame(std::span<const std::byte> frame,
                              WireCodecKind expected);

/// Encodes one message with the selected codec (Compact consults
/// `registry`, which both peers must have filled via
/// RegisterClusterMessages).
template <typename M>
void EncodeWith(WireCodecKind kind, const CompactCodec& registry,
                const M& msg, WireBuffer& out) {
  if (kind == WireCodecKind::kTagged) {
    TaggedCodec::Encode(msg, out);
  } else {
    registry.Encode(msg, out);
  }
}

template <typename M>
Result<M> DecodeWith(WireCodecKind kind, const CompactCodec& registry,
                     std::span<const std::byte> data) {
  if (kind == WireCodecKind::kTagged) {
    return TaggedCodec::Decode<M>(data);
  }
  return registry.Decode<M>(data);
}

/// A decoded and validated SubQueryBatch frame: the envelope trace
/// context plus the requests with their wire attempt ordinals.
struct DecodedSubQueryBatch {
  uint64_t query_id = 0;
  uint8_t trace_flags = 0;
  std::vector<SubQueryRequest> requests;
  std::vector<uint32_t> attempts;  ///< parallel to `requests`
};

/// Encodes a SubQueryBatch frame: every request encoded with `kind`, then
/// framed with the envelope trace context (query_id from the requests,
/// sub_ids from each request, attempt ordinals from `attempts`). A batch
/// of one is how single sub-queries travel too.
void EncodeSubQueryBatch(std::span<const SubQueryRequest> requests,
                         std::span<const uint32_t> attempts,
                         uint8_t trace_flags, WireCodecKind kind,
                         const CompactCodec& registry, WireBuffer& out);

/// Decodes and validates a SubQueryBatch frame. Beyond per-message
/// decoding it enforces batch-level invariants: at least one request, no
/// duplicate sub_ids (a duplicate would double-fold a partial result on
/// the master), and envelope/payload agreement — every payload's
/// query_id must match the frame's and every payload's sub_id must match
/// its wire item's. Any violation is kCorruption.
Result<DecodedSubQueryBatch> DecodeSubQueryBatch(
    std::span<const std::byte> frame, WireCodecKind kind,
    const CompactCodec& registry);

/// A decoded and validated reply frame: the envelope trace context plus
/// one SubQueryReply per item, with the attempt ordinals the worker
/// echoed.
struct DecodedReplyBatch {
  uint64_t query_id = 0;
  uint8_t trace_flags = 0;
  std::vector<SubQueryReply> replies;
  std::vector<uint32_t> attempts;  ///< parallel to `replies`
};

/// Encodes a reply frame: one SubQueryReply per item of the request
/// frame it answers, in the request frame's order, framed with the same
/// envelope context (query_id from the replies, each reply's sub_id, the
/// request's attempt ordinals from `attempts`, the request's trace
/// flags). The layout is the request frame's; no message type or
/// version distinguishes a reply frame of one from one of many.
void EncodeReplyBatch(std::span<const SubQueryReply> replies,
                      std::span<const uint32_t> attempts,
                      uint8_t trace_flags, WireCodecKind kind,
                      const CompactCodec& registry, WireBuffer& out);

/// Decodes and validates a reply frame with the same item-set rules as
/// DecodeSubQueryBatch — at least one reply, no duplicate sub_id,
/// envelope/payload query_id and sub_id agreement — plus the
/// demultiplexer's check: a frame naming a query other than
/// `expected_query_id` is kCorruption, so a reply that slipped onto the
/// wrong query's channel is never folded. Any violation fails the whole
/// frame; the master then fails over every item it carried.
Result<DecodedReplyBatch> DecodeReplyBatch(std::span<const std::byte> frame,
                                           WireCodecKind kind,
                                           const CompactCodec& registry,
                                           uint64_t expected_query_id);

/// A decoded and validated single-reply frame with its envelope context.
struct DecodedReplyFrame {
  uint8_t trace_flags = 0;
  uint32_t attempt = 0;
  SubQueryReply reply;
};

/// Encodes one SubQueryReply as a reply frame of one (EncodeReplyBatch
/// with a single item).
void EncodeReplyFrame(const SubQueryReply& reply, uint32_t attempt,
                      uint8_t trace_flags, WireCodecKind kind,
                      const CompactCodec& registry, WireBuffer& out);

/// Decodes a reply frame that must hold exactly one reply, through the
/// same parser as DecodeReplyBatch (kCorruption on anything malformed,
/// including a frame holding more than one payload or an envelope whose
/// query_id/sub_id disagree with the decoded reply's).
Result<DecodedReplyFrame> DecodeReplyFrame(std::span<const std::byte> frame,
                                           WireCodecKind kind,
                                           const CompactCodec& registry);

/// Query-id-checked variant for demultiplexed reply channels (the
/// DecodeReplyBatch demux check on a frame of one).
Result<DecodedReplyFrame> DecodeReplyFrame(std::span<const std::byte> frame,
                                           WireCodecKind kind,
                                           const CompactCodec& registry,
                                           uint64_t expected_query_id);

/// A decoded and validated WriteBatch frame with its envelope context.
/// One frame carries exactly one WriteBatch (the batch already coalesces
/// many keys, unlike sub-queries which coalesce per frame).
struct DecodedWriteBatchFrame {
  uint8_t trace_flags = 0;
  uint32_t attempt = 0;
  WriteBatch batch;
};

/// Encodes one WriteBatch as a single-item frame; the envelope echoes
/// the batch's query_id/sub_id plus the attempt ordinal and trace flags.
void EncodeWriteBatchFrame(const WriteBatch& batch, uint32_t attempt,
                           uint8_t trace_flags, WireCodecKind kind,
                           const CompactCodec& registry, WireBuffer& out);

/// Decodes and validates a WriteBatch frame. Beyond per-message decoding
/// it enforces batch invariants: exactly one payload, envelope/payload
/// query_id and sub_id agreement, at least one key, all five column
/// vectors the same length, type ids that fit uint32, tombstone flags
/// that are 0/1, and a payload checksum matching the MigrationBlock
/// recipe. Any violation is kCorruption — a damaged batch must fail
/// before any column touches a store.
Result<DecodedWriteBatchFrame> DecodeWriteBatchFrame(
    std::span<const std::byte> frame, WireCodecKind kind,
    const CompactCodec& registry);

/// A decoded and validated single WriteReply frame.
struct DecodedWriteReplyFrame {
  uint8_t trace_flags = 0;
  uint32_t attempt = 0;
  WriteReply reply;
};

/// Encodes one WriteReply as a single-item frame (envelope mirrors the
/// reply's query_id/sub_id, like EncodeReplyFrame).
void EncodeWriteReplyFrame(const WriteReply& reply, uint32_t attempt,
                           uint8_t trace_flags, WireCodecKind kind,
                           const CompactCodec& registry, WireBuffer& out);

/// Decodes a single-item WriteReply frame; kCorruption on malformed
/// frames, envelope/payload disagreement, or a failed-key index list
/// that is not strictly increasing (a duplicate index would double-count
/// a key in the master's quorum accounting).
Result<DecodedWriteReplyFrame> DecodeWriteReplyFrame(
    std::span<const std::byte> frame, WireCodecKind kind,
    const CompactCodec& registry);

/// Query-id-checked variant for demultiplexed write-reply channels.
Result<DecodedWriteReplyFrame> DecodeWriteReplyFrame(
    std::span<const std::byte> frame, WireCodecKind kind,
    const CompactCodec& registry, uint64_t expected_query_id);

}  // namespace kvscale
