// Section V-B micro-benchmark — serialization cost and size.
//
// Paper numbers (JVM): Java default serialization ~150 us/message and
// 7.5 MB for 10k messages; Kryo ~19 us/message and 0.9 MB. Our codecs are
// C++, so absolute CPU costs are far lower; what must reproduce is the
// *structure*: the self-describing tagged codec is several times larger
// and slower than the registered compact codec. The calibrated JVM costs
// live in SerializerProfile and are reported alongside.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "wire/codec.hpp"
#include "wire/envelope.hpp"
#include "wire/messages.hpp"
#include "wire/serializer_model.hpp"

namespace kvscale {
namespace {

SubQueryRequest Request() { return MakeRepresentativeSubQuery(1, 4242, 100); }

PartialResult ResultMessage() {
  PartialResult res;
  res.query_id = 1;
  res.sub_id = 4242;
  res.node = 7;
  for (uint32_t t = 0; t < 8; ++t) {
    res.types.push_back("t" + std::to_string(t));
    res.counts.push_back(1000 + t);
  }
  res.db_micros = 5234.5;
  return res;
}

void BM_TaggedEncodeRequest(benchmark::State& state) {
  const auto msg = Request();
  WireBuffer buf;
  for (auto _ : state) {
    buf.clear();
    TaggedCodec::Encode(msg, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.counters["bytes"] = static_cast<double>(buf.size());
}
BENCHMARK(BM_TaggedEncodeRequest);

void BM_CompactEncodeRequest(benchmark::State& state) {
  CompactCodec codec;
  RegisterClusterMessages(codec);
  const auto msg = Request();
  WireBuffer buf;
  for (auto _ : state) {
    buf.clear();
    codec.Encode(msg, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.counters["bytes"] = static_cast<double>(buf.size());
}
BENCHMARK(BM_CompactEncodeRequest);

void BM_TaggedDecodeRequest(benchmark::State& state) {
  WireBuffer buf;
  TaggedCodec::Encode(Request(), buf);
  for (auto _ : state) {
    auto decoded = TaggedCodec::Decode<SubQueryRequest>(buf.data());
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_TaggedDecodeRequest);

void BM_CompactDecodeRequest(benchmark::State& state) {
  CompactCodec codec;
  RegisterClusterMessages(codec);
  WireBuffer buf;
  codec.Encode(Request(), buf);
  for (auto _ : state) {
    auto decoded = codec.Decode<SubQueryRequest>(buf.data());
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_CompactDecodeRequest);

void BM_TaggedEncodeResult(benchmark::State& state) {
  const auto msg = ResultMessage();
  WireBuffer buf;
  for (auto _ : state) {
    buf.clear();
    TaggedCodec::Encode(msg, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.counters["bytes"] = static_cast<double>(buf.size());
}
BENCHMARK(BM_TaggedEncodeResult);

void BM_CompactEncodeResult(benchmark::State& state) {
  CompactCodec codec;
  RegisterClusterMessages(codec);
  const auto msg = ResultMessage();
  WireBuffer buf;
  for (auto _ : state) {
    buf.clear();
    codec.Encode(msg, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.counters["bytes"] = static_cast<double>(buf.size());
}
BENCHMARK(BM_CompactEncodeResult);

/// `n` count replies shaped like the `fine` workload's (10 elements over
/// 8 type ids), ascending sub_ids as one node's share of a gather.
std::vector<SubQueryReply> CountReplies(size_t n) {
  std::vector<SubQueryReply> replies(n);
  for (size_t i = 0; i < n; ++i) {
    SubQueryReply& reply = replies[i];
    reply.query_id = 77;
    reply.sub_id = static_cast<uint32_t>(4 * i);
    reply.node = 2;
    for (uint64_t t = 0; t < 8; ++t) {
      reply.type_ids.push_back(t);
      reply.counts.push_back(t < 2 ? 2 : 1);
    }
    reply.db_micros = 3.5;
  }
  return replies;
}

// One reply frame per sub-query: encode and decode `n` single-reply
// frames (how every reply travelled before replies were frame-granular).
void BM_ReplyFramesPerItem(benchmark::State& state) {
  CompactCodec codec;
  RegisterClusterMessages(codec);
  const auto replies = CountReplies(static_cast<size_t>(state.range(0)));
  uint64_t bytes = 0;
  for (auto _ : state) {
    bytes = 0;
    for (const SubQueryReply& reply : replies) {
      WireBuffer frame;
      EncodeReplyFrame(reply, 0, 0, WireCodecKind::kCompact, codec, frame);
      auto decoded =
          DecodeReplyFrame(frame.data(), WireCodecKind::kCompact, codec, 77);
      benchmark::DoNotOptimize(decoded);
      bytes += frame.size();
    }
  }
  state.counters["bytes"] = static_cast<double>(bytes);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ReplyFramesPerItem)->Arg(1000);

// One reply frame answering a request frame of `n` items: encode and
// decode it once.
void BM_ReplyFrameBatched(benchmark::State& state) {
  CompactCodec codec;
  RegisterClusterMessages(codec);
  const auto replies = CountReplies(static_cast<size_t>(state.range(0)));
  const std::vector<uint32_t> attempts(replies.size(), 0);
  uint64_t bytes = 0;
  for (auto _ : state) {
    WireBuffer frame;
    EncodeReplyBatch(replies, attempts, 0, WireCodecKind::kCompact, codec,
                     frame);
    auto decoded =
        DecodeReplyBatch(frame.data(), WireCodecKind::kCompact, codec, 77);
    benchmark::DoNotOptimize(decoded);
    bytes = frame.size();
  }
  state.counters["bytes"] = static_cast<double>(bytes);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ReplyFrameBatched)->Arg(1000);

}  // namespace
}  // namespace kvscale

int main(int argc, char** argv) {
  std::printf(
      "--------------------------------------------------------------\n"
      "Section V-B: serialization (paper: Java 150 us & 750 B/msg vs "
      "Kryo 19 us & 90 B/msg)\n");
  {
    using namespace kvscale;
    CompactCodec codec;
    RegisterClusterMessages(codec);
    const auto req = MakeRepresentativeSubQuery(1, 4242, 100);
    const size_t tagged = TaggedEncodedSize(req);
    const size_t compact = CompactEncodedSize(codec, req);
    std::printf("encoded SubQueryRequest: tagged=%zu B, compact=%zu B "
                "(%.1fx smaller; paper ratio ~8.3x)\n",
                tagged, compact,
                static_cast<double>(tagged) / static_cast<double>(compact));
    std::printf("10k messages on the wire: tagged=%s, compact=%s "
                "(paper: 7.5 MB -> 0.9 MB incl. JVM metadata)\n",
                FormatBytes(tagged * 10000).c_str(),
                FormatBytes(compact * 10000).c_str());
    std::printf("calibrated JVM cost models: java-default %.0f us/msg, "
                "kryo-like %.0f us/msg\n",
                JavaLikeProfile().TypicalCost(),
                KryoLikeProfile().TypicalCost());
  }
  std::printf(
      "--------------------------------------------------------------\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
