// The transport pair both engines drive — the gather loop
// (gather_engine.cpp) and the write round (write_path.cpp): read frames go
// out with Dispatch and come back through AwaitReply, write batches go
// out with DispatchWrite and come back through AwaitWriteReply. Both
// transports serve through the same two store bindings the runtime's
// workers call. Cluster-internal.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "cluster/node_runtime.hpp"
#include "common/check.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "hash/token_ring.hpp"
#include "wire/messages.hpp"

namespace kvscale {

class SpanTracer;

/// The in-process transport. A read frame is answered with one reply
/// frame, as a runtime worker would: with one thread it is served on the
/// caller's thread as it is sent; with more, sent frames wait, and the
/// next AwaitReply serves that whole round over the threads and hands
/// the replies back in send order. A write batch is always served at
/// once. Injected latency is charged to the query's virtual clock at
/// send time.
class LocalTransport {
 public:
  using DecodedReply = NodeRuntime::DecodedReply;
  using DecodedWriteReply = NodeRuntime::DecodedWriteReply;

  /// `bind` and `write` are the cluster's store bindings; with `threads`
  /// > 1, round worker t records its span on track
  /// `first_worker_track + t`.
  LocalTransport(FrameHandler bind, WriteBatchHandler write,
                 SpanTracer* spans, uint32_t threads,
                 uint32_t first_worker_track)
      : bind_(std::move(bind)),
        write_(std::move(write)),
        spans_(spans),
        threads_(threads),
        first_worker_track_(first_worker_track) {}
  virtual ~LocalTransport() = default;
  LocalTransport(const LocalTransport&) = delete;
  LocalTransport& operator=(const LocalTransport&) = delete;

  /// Sends one frame of `requests` (with per-item attempt numbers and
  /// injected latency charges) to `node`. One reply frame, holding one
  /// reply per request, eventually comes out of AwaitReply.
  virtual Status Dispatch(NodeId node,
                          std::span<const SubQueryRequest> requests,
                          std::span<const uint32_t> attempts,
                          std::span<const Micros> extra_latency_us) {
    for (const Micros us : extra_latency_us) AdvanceClock(us);
    if (threads_ <= 1) {
      ready_.push_back(Serve(node, requests, attempts));
    } else {
      pending_.push_back(Frame{node,
                               {requests.begin(), requests.end()},
                               {attempts.begin(), attempts.end()}});
    }
    return Status::Ok();
  }

  /// The next reply frame. Call exactly once per sent frame.
  virtual std::vector<DecodedReply> AwaitReply() {
    if (ready_.empty()) ServeRound();
    KV_CHECK(!ready_.empty());
    std::vector<DecodedReply> frame = std::move(ready_.front());
    ready_.pop_front();
    return frame;
  }

  /// Sends one write batch (attempt `attempt`) to `node`. Never refused:
  /// one reply eventually comes out of AwaitWriteReply. Served with no
  /// flush watermark, as there is no runtime to schedule maintenance on,
  /// and no payload checksum, as there is no wire to guard.
  virtual void DispatchWrite(NodeId node, WriteBatch batch,
                             uint32_t /*attempt*/) {
    written_.push_back({batch.sub_id, write_(node, batch, 0, nullptr)});
  }

  /// The next write reply. Call exactly once per sent batch.
  virtual DecodedWriteReply AwaitWriteReply() {
    KV_CHECK(!written_.empty());
    DecodedWriteReply reply = std::move(written_.front());
    written_.pop_front();
    return reply;
  }

  /// The query's one virtual clock: injected latency plus failover
  /// backoff, the clock the deadline is checked against.
  virtual Micros clock_us() const { return clock_us_; }
  virtual void AdvanceClock(Micros us) { clock_us_ += us; }

 protected:
  /// True when nothing sent here still awaits its reply.
  bool idle() const {
    return ready_.empty() && pending_.empty() && written_.empty();
  }

 private:
  struct Frame {
    NodeId node = 0;
    std::vector<SubQueryRequest> requests;
    std::vector<uint32_t> attempts;
  };

  std::vector<DecodedReply> Serve(NodeId node,
                                  std::span<const SubQueryRequest> requests,
                                  std::span<const uint32_t> attempts) const;

  /// Serves every pending frame, frame k on round worker k % workers
  /// (the caller's thread is worker 0), and queues the replies in send
  /// order, so the loop settles them exactly as a serial gather would.
  void ServeRound();

  FrameHandler bind_;
  WriteBatchHandler write_;
  SpanTracer* spans_;
  uint32_t threads_;
  uint32_t first_worker_track_;
  Micros clock_us_ = 0.0;
  std::vector<Frame> pending_;  ///< sent, not yet served (threads > 1)
  std::deque<std::vector<DecodedReply>> ready_;  ///< served, not yet awaited
  std::deque<DecodedWriteReply> written_;  ///< served, not yet awaited
};

/// The wire transport: a thin adapter over the shared NodeRuntime for one
/// registered query. It owns the query's admission slot (Begin / End) and
/// its wire accounting, and the runtime's per-query clock is the query's
/// virtual clock (workers charge injected latency to it after serving,
/// so a deadline can shed requests still queued). A node the runtime
/// predates — a join raced this query — has no queue in it, yet its
/// store is live and may hold the only reachable copy while the
/// migration window is open, so that node's frames and batches take the
/// local path instead of burning every attempt on kUnavailable. A write
/// batch whose send is refused (kReject backpressure) is applied in
/// process too: a write must not be lost to transport shape.
class MessageTransport final : public LocalTransport {
 public:
  MessageTransport(std::shared_ptr<NodeRuntime> runtime, uint64_t query_id,
                   FrameHandler bind, WriteBatchHandler write,
                   SpanTracer* spans)
      : LocalTransport(std::move(bind), std::move(write), spans, 1, 0),
        runtime_(std::move(runtime)),
        query_id_(query_id) {}

  /// Admission: registers the query with the runtime.
  Status Begin(const NodeRuntime::QueryOptions& options) {
    return runtime_->BeginQuery(query_id_, options);
  }

  /// Copies the query's private wire accounting into `result` (a
  /// GatherResult or a PutResult) and releases its slot. Every sent
  /// frame must have been awaited.
  template <typename QueryResult>
  void End(QueryResult& result) {
    result.queue_wait_us = runtime_->query_queue_wait_us(query_id_);
    const NodeRuntime::WireStats wire = runtime_->query_wire_stats(query_id_);
    result.wire_frames_sent = wire.frames_sent;
    result.wire_bytes_sent = wire.bytes_sent;
    result.wire_bytes_received = wire.bytes_received;
    result.wire_encode_us = wire.encode_us;
    result.wire_decode_us = wire.decode_us;
    runtime_->EndQuery(query_id_);
  }

  /// True when frames to `node` cross the wire (and so carry the real
  /// stage timestamps); false for the local fallback.
  bool Wired(NodeId node) const { return node < runtime_->node_count(); }

  /// Wall-clock microseconds on the runtime's stage-timestamp scale.
  Micros now_us() const { return runtime_->now_us(); }

  Status Dispatch(NodeId node, std::span<const SubQueryRequest> requests,
                  std::span<const uint32_t> attempts,
                  std::span<const Micros> extra_latency_us) override {
    if (!Wired(node)) {
      return LocalTransport::Dispatch(node, requests, attempts,
                                      extra_latency_us);
    }
    return runtime_->Dispatch(query_id_, node, requests, attempts,
                              extra_latency_us);
  }

  /// Local fallback replies are ready at once, so they go first; the
  /// runtime only ever surfaces this query's replies.
  std::vector<DecodedReply> AwaitReply() override {
    return idle() ? runtime_->AwaitReply(query_id_)
                  : LocalTransport::AwaitReply();
  }

  /// Seals the payload checksum the decoder verifies. Unwired or
  /// refused, the runtime said no before queueing anything.
  void DispatchWrite(NodeId node, WriteBatch batch,
                     uint32_t attempt) override {
    batch.checksum = MigrationBlockChecksum(batch.payloads);
    if (!runtime_->DispatchWrite(query_id_, node, batch, attempt).ok()) {
      LocalTransport::DispatchWrite(node, std::move(batch), attempt);
    }
  }
  DecodedWriteReply AwaitWriteReply() override {
    return idle() ? runtime_->AwaitWriteReply(query_id_)
                  : LocalTransport::AwaitWriteReply();
  }

  Micros clock_us() const override { return runtime_->clock_us(query_id_); }
  void AdvanceClock(Micros us) override {
    runtime_->AdvanceClock(query_id_, us);
  }

 private:
  std::shared_ptr<NodeRuntime> runtime_;
  uint64_t query_id_;
};

}  // namespace kvscale
