#include "cluster/transport.hpp"

#include <algorithm>
#include <string>
#include <thread>

#include "telemetry/span_tracer.hpp"

namespace kvscale {

std::vector<LocalTransport::DecodedReply> LocalTransport::Serve(
    NodeId node, std::span<const SubQueryRequest> requests,
    std::span<const uint32_t> attempts) const {
  std::vector<DecodedReply> replies(requests.size());
  // The frame's store binding, made for its first item and kept while
  // the items name the same table.
  ItemServer serve;
  const std::string* bound_table = nullptr;
  for (size_t k = 0; k < requests.size(); ++k) {
    const SubQueryRequest& request = requests[k];
    DecodedReply& r = replies[k];
    r.node = node;
    r.sub_id = request.sub_id;
    r.attempt = attempts[k];
    r.store_read = true;
    if (bound_table == nullptr || *bound_table != request.table) {
      serve = bind_(node, request.table);
      bound_table = &request.table;
    }
    SpanTracer::Scope read;
    if (spans_ != nullptr) {
      read = spans_->StartSpan("store-read", node);
      read.Attr("partition", request.partition_key);
      read.Attr("attempt", std::to_string(r.attempt));
    }
    Result<OperatorResult> columns = serve(request, &r.probe);
    if (read.active()) {
      read.Attr("blocks_decoded", std::to_string(r.probe.blocks_decoded));
      read.Attr("blocks_from_cache", std::to_string(r.probe.blocks_from_cache));
      read.Attr("bloom_negatives", std::to_string(r.probe.bloom_negatives));
      read.End();
    }
    SubQueryReply reply;
    reply.query_id = request.query_id;
    reply.sub_id = request.sub_id;
    reply.node = node;
    if (columns.ok()) {
      reply.type_ids = std::move(columns.value().col_a);
      reply.counts = std::move(columns.value().col_b);
    } else {
      reply.status = static_cast<uint32_t>(columns.status().code());
    }
    r.reply = std::move(reply);
  }
  return replies;
}

void LocalTransport::ServeRound() {
  ready_.resize(pending_.size());  // empty before: AwaitReply drained it
  const size_t workers = std::min<size_t>(threads_, pending_.size());
  auto work = [&](size_t t) {
    SpanTracer::Scope span;
    if (spans_ != nullptr) {
      span = spans_->StartSpan("worker",
                               first_worker_track_ + static_cast<uint32_t>(t));
    }
    for (size_t k = t; k < pending_.size(); k += workers) {
      ready_[k] = Serve(pending_[k].node, pending_[k].requests,
                        pending_[k].attempts);
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 1; t < workers; ++t) pool.emplace_back(work, t);
  if (workers > 0) work(0);
  for (std::thread& worker : pool) worker.join();
  pending_.clear();
}

}  // namespace kvscale
