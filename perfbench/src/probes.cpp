#include "probes.hpp"

#include <chrono>
#include <map>

#include "cluster/query_ops.hpp"
#include "wire/envelope.hpp"

namespace kvbench {

using kvscale::QueryPlan;
using Clock = std::chrono::steady_clock;

namespace {

double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

kvscale::SubQueryRequest MakeRequest(const QueryPlan& plan, size_t i) {
  kvscale::SubQueryRequest req;
  req.query_id = 1;
  req.sub_id = static_cast<uint32_t>(i);
  req.table = plan.table;
  req.partition_key = plan.partitions[i].part.key;
  req.expected_elements = plan.partitions[i].part.elements;
  req.op = plan.op;
  req.arg_lo = plan.arg_lo;
  req.arg_hi = plan.arg_hi;
  req.arg_limit = plan.arg_limit;
  return req;
}

}  // namespace

StoreProbe ProbeStore(kvscale::InProcessCluster& cluster,
                      const std::vector<QueryPlan>& plans,
                      kvscale::SpanTracer* spans) {
  StoreProbe probe;
  for (const QueryPlan& plan : plans) {
    kvscale::SpanTracer::Scope span;
    if (spans != nullptr) span = spans->StartSpan("probe-store", 0);
    for (const kvscale::PlanPartition& part : plan.partitions) {
      const kvscale::NodeId owner = cluster.ReplicasOf(part.part.key)[0];
      auto table = cluster.node(owner).FindTable(plan.table);
      if (!table.ok()) {
        probe.ok = false;
        continue;
      }
      const auto t0 = Clock::now();
      uint64_t columns = 0;
      if (plan.op == kvscale::kOpCountByType) {
        auto counts = table.value()->CountByType(part.part.key);
        if (!counts.ok()) probe.ok = false;
        else for (const auto& [type, n] : counts.value()) columns += n;
      } else {
        auto rows = table.value()->ScanRange(part.part.key, plan.arg_lo,
                                             plan.arg_hi, plan.arg_limit);
        if (!rows.ok()) probe.ok = false;
        else columns = rows.value().size();
      }
      const double us = MicrosSince(t0);
      probe.call_us.push_back(us);
      probe.total_ns += us * 1e3;
      probe.columns += columns;
    }
  }
  return probe;
}

WireProbe ProbeWire(kvscale::InProcessCluster& cluster,
                    const std::vector<QueryPlan>& plans,
                    kvscale::SpanTracer* spans) {
  kvscale::CompactCodec registry;
  kvscale::RegisterClusterMessages(registry);
  constexpr auto kCodec = kvscale::WireCodecKind::kCompact;
  WireProbe probe;
  for (const QueryPlan& plan : plans) {
    kvscale::SpanTracer::Scope span;
    if (spans != nullptr) span = spans->StartSpan("probe-wire", 0);
    // The batched scatter: one request frame per primary owner.
    std::map<kvscale::NodeId, std::vector<kvscale::SubQueryRequest>> by_node;
    std::vector<kvscale::SubQueryReply> replies;
    for (size_t i = 0; i < plan.partitions.size(); ++i) {
      kvscale::SubQueryRequest req = MakeRequest(plan, i);
      const kvscale::NodeId owner = cluster.ReplicasOf(req.partition_key)[0];
      // The reply frame carries the real answer of the owner's store.
      kvscale::SubQueryReply reply;
      reply.query_id = req.query_id;
      reply.sub_id = req.sub_id;
      reply.node = owner;
      auto table = cluster.node(owner).FindTable(plan.table);
      if (!table.ok()) {
        probe.ok = false;
        continue;
      }
      auto answer = kvscale::ExecuteOperator(*table.value(), req, nullptr);
      if (!answer.ok()) {
        probe.ok = false;
        continue;
      }
      reply.type_ids = std::move(answer.value().col_a);
      reply.counts = std::move(answer.value().col_b);
      replies.push_back(std::move(reply));
      by_node[owner].push_back(std::move(req));
    }

    for (const auto& [node, requests] : by_node) {
      const std::vector<uint32_t> attempts(requests.size(), 0);
      kvscale::WireBuffer frame;
      const auto t0 = Clock::now();
      kvscale::EncodeSubQueryBatch(requests, attempts, 0, kCodec, registry,
                                   frame);
      probe.encode_us += MicrosSince(t0);
      const auto t1 = Clock::now();
      auto decoded =
          kvscale::DecodeSubQueryBatch(frame.data(), kCodec, registry);
      probe.decode_us += MicrosSince(t1);
      if (!decoded.ok() ||
          decoded.value().requests.size() != requests.size()) {
        probe.ok = false;
      }
      ++probe.frames;
    }
    for (const kvscale::SubQueryReply& reply : replies) {
      kvscale::WireBuffer frame;
      const auto t0 = Clock::now();
      kvscale::EncodeReplyFrame(reply, 0, 0, kCodec, registry, frame);
      probe.encode_us += MicrosSince(t0);
      const auto t1 = Clock::now();
      auto decoded = kvscale::DecodeReplyFrame(frame.data(), kCodec, registry);
      probe.decode_us += MicrosSince(t1);
      if (!decoded.ok() || decoded.value().reply.counts != reply.counts ||
          decoded.value().reply.type_ids != reply.type_ids) {
        probe.ok = false;
      }
      ++probe.frames;
    }
  }
  return probe;
}

}  // namespace kvbench
