#include "cluster/node_runtime.hpp"

#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/span_tracer.hpp"

namespace kvscale {

std::string_view QueueFullPolicyName(QueueFullPolicy policy) {
  switch (policy) {
    case QueueFullPolicy::kBlock:
      return "block";
    case QueueFullPolicy::kReject:
      return "reject";
  }
  return "unknown";
}

Result<QueueFullPolicy> ParseQueueFullPolicy(std::string_view name) {
  if (name == "block") return QueueFullPolicy::kBlock;
  if (name == "reject") return QueueFullPolicy::kReject;
  return Status::InvalidArgument("unknown queue policy '" + std::string(name) +
                                 "' (expected block|reject)");
}

namespace {

uint64_t MicrosToNanos(Micros us) {
  return us <= 0.0 ? 0 : static_cast<uint64_t>(std::llround(us * 1000.0));
}

double NanosToMicros(uint64_t nanos) {
  return static_cast<double>(nanos) / 1000.0;
}

/// Charges `us` of codec work to the lifetime total, the query's total
/// and the histogram of one direction (encode or decode).
void ChargeCodec(std::atomic<uint64_t>& lifetime,
                 std::atomic<uint64_t>& per_query, LatencyHistogram* hist,
                 Micros us) {
  const uint64_t nanos = MicrosToNanos(us);
  lifetime.fetch_add(nanos, std::memory_order_relaxed);
  per_query.fetch_add(nanos, std::memory_order_relaxed);
  if (hist != nullptr) hist->Record(us);
}

/// A frame binding with nothing to resolve: every item calls `handler`
/// with its node.
FrameHandler PerItem(SubQueryHandler handler) {
  KV_CHECK(handler != nullptr);
  auto shared = std::make_shared<SubQueryHandler>(std::move(handler));
  return [shared](uint32_t node, const std::string&) -> ItemServer {
    return [shared, node](const SubQueryRequest& request, ReadProbe* probe) {
      return (*shared)(node, request, probe);
    };
  };
}

}  // namespace

NodeRuntime::NodeRuntime(uint32_t nodes, NodeRuntimeOptions options,
                         SubQueryHandler handler, const CompactCodec& registry,
                         FaultInjector* injector, MetricsRegistry* metrics,
                         SpanTracer* spans, WriteBatchHandler write_handler,
                         MaintenanceHandler maintenance_handler)
    : NodeRuntime(nodes, options, PerItem(std::move(handler)), registry,
                  injector, metrics, spans, std::move(write_handler),
                  std::move(maintenance_handler)) {}

NodeRuntime::NodeRuntime(uint32_t nodes, NodeRuntimeOptions options,
                         FrameHandler handler, const CompactCodec& registry,
                         FaultInjector* injector, MetricsRegistry* metrics,
                         SpanTracer* spans, WriteBatchHandler write_handler,
                         MaintenanceHandler maintenance_handler)
    : options_(options),
      handler_(std::move(handler)),
      write_handler_(std::move(write_handler)),
      maintenance_handler_(std::move(maintenance_handler)),
      registry_(registry),
      injector_(injector),
      spans_(spans),
      // kvscale-lint: allow(sim-wallclock) real data path epoch
      epoch_(std::chrono::steady_clock::now()) {
  KV_CHECK(nodes >= 1);
  KV_CHECK(handler_ != nullptr);
  options_.queue_depth = std::max<uint32_t>(options_.queue_depth, 1);
  options_.workers_per_node = std::max<uint32_t>(options_.workers_per_node, 1);
  {
    MutexLock lock(queries_mu_);
    max_inflight_ = options_.max_inflight_queries;
    admission_policy_ = options_.on_admission_full;
  }
  if (metrics != nullptr) {
    bytes_sent_counter_ = &metrics->GetCounter("wire.bytes.sent");
    bytes_received_counter_ = &metrics->GetCounter("wire.bytes.received");
    frames_counter_ = &metrics->GetCounter("wire.frames.sent");
    admitted_counter_ = &metrics->GetCounter("master.admission.admitted");
    shed_counter_ = &metrics->GetCounter("master.admission.shed");
    inflight_gauge_ = &metrics->GetGauge("master.queries.inflight");
    encode_hist_ = &metrics->GetHistogram("wire.encode.latency_us");
    decode_hist_ = &metrics->GetHistogram("wire.decode.latency_us");
    queue_wait_hist_ = &metrics->GetHistogram("cluster.queue.wait_us");
    admission_wait_hist_ = &metrics->GetHistogram("master.admission.wait_us");
    query_queue_wait_hist_ =
        &metrics->GetHistogram("master.query.queue_wait_us");
    maintenance_runs_counter_ =
        &metrics->GetCounter("cluster.maintenance.runs");
    maintenance_dropped_counter_ =
        &metrics->GetCounter("cluster.maintenance.dropped");
    depth_gauges_.reserve(nodes);
    for (uint32_t n = 0; n < nodes; ++n) {
      depth_gauges_.push_back(
          &metrics->GetGauge("cluster.queue.depth.node" + std::to_string(n)));
    }
  }
  queues_.reserve(nodes);
  for (uint32_t n = 0; n < nodes; ++n) {
    queues_.push_back(std::make_unique<BoundedQueue<RequestEnvelope>>(
        options_.queue_depth));
  }
  workers_.reserve(static_cast<size_t>(nodes) * options_.workers_per_node);
  for (uint32_t n = 0; n < nodes; ++n) {
    for (uint32_t w = 0; w < options_.workers_per_node; ++w) {
      workers_.emplace_back([this, n] { WorkerLoop(n); });
    }
  }
}

NodeRuntime::~NodeRuntime() { Shutdown(); }

Micros NodeRuntime::NowMicros() const {
  return std::chrono::duration<double, std::micro>(
             // kvscale-lint: allow(sim-wallclock) real data path epoch
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Micros NodeRuntime::ClockMicros(const QueryState& query) {
  return NanosToMicros(query.clock_nanos.load(std::memory_order_relaxed));
}

std::shared_ptr<NodeRuntime::QueryState> NodeRuntime::FindQuery(
    uint64_t query_id) const {
  MutexLock lock(queries_mu_);
  auto it = queries_.find(query_id);
  return it == queries_.end() ? nullptr : it->second;
}

Status NodeRuntime::BeginQuery(uint64_t query_id, const QueryOptions& query) {
  const Micros wait_start = NowMicros();
  MutexLock lock(queries_mu_);
  // Re-read the limit each pass: SetAdmissionLimit can re-arm the
  // controller while admitters sleep.
  while (!shut_down_.load(std::memory_order_relaxed) && max_inflight_ > 0 &&
         queries_.size() >= max_inflight_ &&
         admission_policy_ == QueueFullPolicy::kBlock) {
    admission_cv_.Wait(queries_mu_);
  }
  if (shut_down_.load(std::memory_order_relaxed)) {
    return Status::Unavailable("node runtime shut down");
  }
  if (max_inflight_ > 0 && queries_.size() >= max_inflight_) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    if (shed_counter_ != nullptr) shed_counter_->Increment();
    return Status::ResourceExhausted(
        "admission: " + std::to_string(queries_.size()) +
        " queries in flight (limit " + std::to_string(max_inflight_) + ")");
  }
  auto [it, inserted] = queries_.emplace(
      query_id, std::make_shared<QueryState>(query_id, query));
  KV_CHECK(inserted);  // query_id collision would cross-route replies
  admitted_.fetch_add(1, std::memory_order_relaxed);
  if (admitted_counter_ != nullptr) admitted_counter_->Increment();
  if (inflight_gauge_ != nullptr) {
    inflight_gauge_->Set(static_cast<double>(queries_.size()));
  }
  if (admission_wait_hist_ != nullptr) {
    admission_wait_hist_->Record(NowMicros() - wait_start);
  }
  return Status::Ok();
}

void NodeRuntime::EndQuery(uint64_t query_id) {
  MutexLock lock(queries_mu_);
  auto it = queries_.find(query_id);
  KV_CHECK(it != queries_.end());
  if (query_queue_wait_hist_ != nullptr) {
    query_queue_wait_hist_->Record(NanosToMicros(
        it->second->queue_wait_nanos.load(std::memory_order_relaxed)));
  }
  // No replies for this query can be outstanding (the gather awaits one
  // reply per dispatch), so closing is purely defensive: a stray late
  // reply would hit a closed queue instead of leaking.
  it->second->replies.Close();
  queries_.erase(it);
  if (inflight_gauge_ != nullptr) {
    inflight_gauge_->Set(static_cast<double>(queries_.size()));
  }
  admission_cv_.NotifyAll();
}

uint32_t NodeRuntime::inflight_queries() const {
  MutexLock lock(queries_mu_);
  return static_cast<uint32_t>(queries_.size());
}

void NodeRuntime::SetAdmissionLimit(uint32_t max_inflight,
                                    QueueFullPolicy policy) {
  MutexLock lock(queries_mu_);
  max_inflight_ = max_inflight;
  admission_policy_ = policy;
  admission_cv_.NotifyAll();
}

Micros NodeRuntime::clock_us(uint64_t query_id) const {
  auto query = FindQuery(query_id);
  KV_CHECK(query != nullptr);
  return ClockMicros(*query);
}

void NodeRuntime::AdvanceClock(uint64_t query_id, Micros us) {
  if (us <= 0.0) return;
  auto query = FindQuery(query_id);
  KV_CHECK(query != nullptr);
  query->clock_nanos.fetch_add(MicrosToNanos(us), std::memory_order_relaxed);
}

size_t NodeRuntime::queue_depth(uint32_t node) const {
  KV_CHECK(node < queues_.size());
  return queues_[node]->size();
}

void NodeRuntime::SetDepthGauge(uint32_t node) {
  if (node < depth_gauges_.size()) {
    depth_gauges_[node]->Set(static_cast<double>(queues_[node]->size()));
  }
}

NodeRuntime::WireStats NodeRuntime::wire_stats() const {
  WireStats stats;
  stats.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  stats.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  stats.bytes_received = bytes_received_.load(std::memory_order_relaxed);
  stats.encode_us =
      NanosToMicros(encode_nanos_.load(std::memory_order_relaxed));
  stats.decode_us =
      NanosToMicros(decode_nanos_.load(std::memory_order_relaxed));
  return stats;
}

NodeRuntime::WireStats NodeRuntime::query_wire_stats(uint64_t query_id) const {
  auto query = FindQuery(query_id);
  KV_CHECK(query != nullptr);
  WireStats stats;
  stats.frames_sent = query->frames_sent.load(std::memory_order_relaxed);
  stats.bytes_sent = query->bytes_sent.load(std::memory_order_relaxed);
  stats.bytes_received =
      query->bytes_received.load(std::memory_order_relaxed);
  stats.encode_us =
      NanosToMicros(query->encode_nanos.load(std::memory_order_relaxed));
  stats.decode_us =
      NanosToMicros(query->decode_nanos.load(std::memory_order_relaxed));
  return stats;
}

Micros NodeRuntime::query_queue_wait_us(uint64_t query_id) const {
  auto query = FindQuery(query_id);
  KV_CHECK(query != nullptr);
  return NanosToMicros(query->queue_wait_nanos.load(std::memory_order_relaxed));
}

template <typename Encode>
Status NodeRuntime::Enqueue(uint64_t query_id, uint32_t node,
                            RequestEnvelope env, Encode&& encode) {
  if (node >= queues_.size()) {
    // A query holding a runtime built before a membership change can
    // route to a node this runtime never had a queue for. That is a
    // transport failure, not a bug: the caller retries against the
    // current ring or serves the frame in process.
    return Status::Unavailable("node " + std::to_string(node) +
                               " is not part of this runtime");
  }
  std::shared_ptr<QueryState> query = FindQuery(query_id);
  KV_CHECK(query != nullptr);  // dispatch before BeginQuery / after EndQuery
  env.node = node;
  env.query = query;
  env.issued_us = NowMicros();  // encode time belongs to master-to-slave
  WireBuffer buf;
  encode(*query, buf);
  ChargeCodec(encode_nanos_, query->encode_nanos, encode_hist_,
              NowMicros() - env.issued_us);
  const uint64_t frame_bytes = buf.size();
  env.frame = buf.TakeBytes();

  auto stamp_received = [this](RequestEnvelope& e) {
    e.received_us = NowMicros();
  };
  const bool pushed =
      options_.on_queue_full == QueueFullPolicy::kBlock
          ? queues_[node]->Push(std::move(env), stamp_received)
          : queues_[node]->TryPush(std::move(env), stamp_received);
  if (!pushed) {
    return Status::ResourceExhausted(
        "node " + std::to_string(node) + " queue full (depth " +
        std::to_string(options_.queue_depth) + ")");
  }
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(frame_bytes, std::memory_order_relaxed);
  query->frames_sent.fetch_add(1, std::memory_order_relaxed);
  query->bytes_sent.fetch_add(frame_bytes, std::memory_order_relaxed);
  if (frames_counter_ != nullptr) frames_counter_->Increment();
  if (bytes_sent_counter_ != nullptr) {
    bytes_sent_counter_->Increment(frame_bytes);
  }
  SetDepthGauge(node);
  return Status::Ok();
}

Status NodeRuntime::Dispatch(uint64_t query_id, uint32_t node,
                             std::span<const SubQueryRequest> requests,
                             std::span<const uint32_t> attempts,
                             std::span<const Micros> extra_latency_us) {
  KV_CHECK(!requests.empty());
  KV_CHECK(requests.size() == attempts.size());
  KV_CHECK(requests.size() == extra_latency_us.size());
  RequestEnvelope env;
  env.sub_ids.reserve(requests.size());
  for (const SubQueryRequest& req : requests) env.sub_ids.push_back(req.sub_id);
  env.attempts.assign(attempts.begin(), attempts.end());
  env.extra_latency_us.assign(extra_latency_us.begin(),
                              extra_latency_us.end());
  return Enqueue(query_id, node, std::move(env),
                 [&](const QueryState& query, WireBuffer& buf) {
                   EncodeSubQueryBatch(requests, attempts, query.trace_flags,
                                       query.codec, registry_, buf);
                 });
}

Status NodeRuntime::DispatchWrite(uint64_t query_id, uint32_t node,
                                  const WriteBatch& batch, uint32_t attempt) {
  KV_CHECK(write_handler_ != nullptr);  // runtime built without a write path
  KV_CHECK(!batch.keys.empty());
  RequestEnvelope env;
  env.kind = EnvelopeKind::kWrite;
  env.sub_ids = {batch.sub_id};
  env.attempts = {attempt};
  return Enqueue(query_id, node, std::move(env),
                 [&](const QueryState& query, WireBuffer& buf) {
                   EncodeWriteBatchFrame(batch, attempt, query.trace_flags,
                                         query.codec, registry_, buf);
                 });
}

bool NodeRuntime::ScheduleMaintenance(uint32_t node, std::string table) {
  if (node >= queues_.size() || maintenance_handler_ == nullptr) {
    return false;
  }
  RequestEnvelope env;
  env.kind = EnvelopeKind::kMaintenance;
  env.node = node;
  env.maintenance_table = std::move(table);
  auto stamp_received = [this](RequestEnvelope& e) {
    e.received_us = NowMicros();
  };
  // Always TryPush: maintenance is scheduled from inside the worker
  // pool, and a blocking push into one's own full queue would deadlock.
  // A full queue means the node is saturated — backing off *is* the
  // scheduling policy.
  if (!queues_[node]->TryPush(std::move(env), stamp_received)) {
    maintenance_dropped_.fetch_add(1, std::memory_order_relaxed);
    if (maintenance_dropped_counter_ != nullptr) {
      maintenance_dropped_counter_->Increment();
    }
    return false;
  }
  SetDepthGauge(node);
  return true;
}

void NodeRuntime::WorkerLoop(uint32_t node) {
  BoundedQueue<RequestEnvelope>& queue = *queues_[node];
  while (auto popped = queue.Pop()) {
    RequestEnvelope env = std::move(*popped);
    SetDepthGauge(node);
    const Micros wait_us = NowMicros() - env.received_us;
    if (queue_wait_hist_ != nullptr) queue_wait_hist_->Record(wait_us);
    if (env.kind == EnvelopeKind::kMaintenance) {
      // A background step no query owns: run it on this worker, where it
      // competes with reads and writes for the node's threads.
      SpanTracer::Scope step;
      if (spans_ != nullptr) {
        step = spans_->StartSpan("maintenance", node);
        step.Attr("table", env.maintenance_table);
      }
      maintenance_handler_(node, env.maintenance_table);
      maintenance_runs_.fetch_add(1, std::memory_order_relaxed);
      if (maintenance_runs_counter_ != nullptr) {
        maintenance_runs_counter_->Increment();
      }
      continue;
    }
    env.query->queue_wait_nanos.fetch_add(MicrosToNanos(wait_us),
                                          std::memory_order_relaxed);
    if (env.kind == EnvelopeKind::kWrite) {
      ServeWrite(node, env);
      continue;
    }

    ServeReads(node, env, wait_us);
  }
}

void NodeRuntime::ServeReads(uint32_t node, const RequestEnvelope& env,
                             Micros wait_us) {
  QueryState& query = *env.query;
  const Micros decode_start = NowMicros();
  auto decoded = DecodeSubQueryBatch(env.frame, query.codec, registry_);
  const Micros decode_us = NowMicros() - decode_start;
  ChargeCodec(decode_nanos_, query.decode_nanos, decode_hist_, decode_us);

  // Node-side observability runs off the *decoded wire context*, not
  // the in-memory transport metadata: a frame is only traced when its
  // envelope carried the sampled bit across the (simulated) wire.
  const bool sampled = decoded.ok() && spans_ != nullptr &&
                       (decoded.value().trace_flags & kTraceSampled) != 0;
  // The frame-level stages (queue residency, decode, reply encode) are
  // flow-linked to the first sub-query the frame served.
  const uint64_t frame_flow =
      sampled ? TraceFlowId(decoded.value().query_id,
                            decoded.value().requests.front().sub_id,
                            decoded.value().attempts.front())
              : 0;
  if (sampled) {
    Span queue_span;
    queue_span.name = "queue-wait";
    queue_span.track = node;
    queue_span.start_us = spans_->NowMicros() - decode_us - wait_us;
    queue_span.duration_us = wait_us;
    queue_span.flow_id = frame_flow;
    queue_span.flow_phase = FlowPhase::kStep;
    queue_span.attributes.emplace_back(
        "query", std::to_string(decoded.value().query_id));
    spans_->Record(std::move(queue_span));
    Span decode_span;
    decode_span.name = "decode";
    decode_span.track = node;
    decode_span.start_us = spans_->NowMicros() - decode_us;
    decode_span.duration_us = decode_us;
    decode_span.flow_id = frame_flow;
    decode_span.flow_phase = FlowPhase::kStep;
    decode_span.attributes.emplace_back(
        "query", std::to_string(decoded.value().query_id));
    decode_span.attributes.emplace_back(
        "items", std::to_string(decoded.value().requests.size()));
    spans_->Record(std::move(decode_span));
  }

  const size_t count = env.sub_ids.size();
  Status frame_transport = Status::Ok();
  if (!decoded.ok()) {
    frame_transport = decoded.status();
  } else if (decoded.value().requests.size() != count) {
    frame_transport =
        Status::Corruption("batch does not match its transport metadata");
  }
  const uint8_t wire_flags =
      decoded.ok() ? decoded.value().trace_flags : query.trace_flags;
  // Dequeue injection point, once per frame: the node died after the
  // master's dispatch-time liveness view let the frame through.
  const bool node_down = injector_ != nullptr && injector_->IsNodeDown(node);

  ReplyEnvelope out;
  out.node = node;
  out.issued_us = env.issued_us;
  out.received_us = env.received_us;
  out.items.resize(count);
  std::vector<SubQueryReply> replies(count);
  // The frame's store binding, made when its first item reaches a store
  // and kept while the items name the same table.
  ItemServer serve;
  const std::string* bound_table = nullptr;
  bool corrupt_reply = false;
  for (size_t i = 0; i < count; ++i) {
    ReplyItem& item = out.items[i];
    item.sub_id = env.sub_ids[i];
    item.attempt = env.attempts[i];
    SubQueryReply& reply = replies[i];
    reply.query_id = decoded.ok() ? decoded.value().query_id : query.query_id;
    reply.sub_id = item.sub_id;
    reply.node = node;

    Status transport = frame_transport;
    if (transport.ok() && (decoded.value().requests[i].sub_id != item.sub_id ||
                           decoded.value().attempts[i] != item.attempt)) {
      transport =
          Status::Corruption("batch does not match its transport metadata");
    }
    if (!transport.ok()) {
      reply.status = static_cast<uint32_t>(transport.code());
      continue;
    }
    if (node_down) {
      reply.status = static_cast<uint32_t>(StatusCode::kUnavailable);
      continue;
    }
    if (query.deadline_us > 0.0 && ClockMicros(query) >= query.deadline_us) {
      // The owning query's deadline expired (on its own clock) while this
      // request waited: shed it without touching the store.
      reply.status = static_cast<uint32_t>(StatusCode::kResourceExhausted);
      continue;
    }
    const SubQueryRequest& request = decoded.value().requests[i];
    if (bound_table == nullptr || *bound_table != request.table) {
      serve = handler_(node, request.table);
      bound_table = &request.table;
    }
    item.db_start_us = NowMicros();
    SpanTracer::Scope read;
    if (spans_ != nullptr) {
      read = spans_->StartSpan("store-read", node);
      read.Attr("partition", request.partition_key);
      read.Attr("attempt", std::to_string(item.attempt));
      if ((wire_flags & kTraceSampled) != 0) {
        read.Flow(TraceFlowId(query.query_id, item.sub_id, item.attempt),
                  FlowPhase::kStep);
        read.Attr("query", std::to_string(query.query_id));
        read.Attr("sub", std::to_string(item.sub_id));
      }
    }
    auto columns = serve(request, &item.probe);
    item.db_end_us = NowMicros();
    item.store_read = true;
    if (read.active()) {
      read.Attr("blocks_decoded", std::to_string(item.probe.blocks_decoded));
      read.Attr("blocks_from_cache",
                std::to_string(item.probe.blocks_from_cache));
      read.Attr("bloom_negatives", std::to_string(item.probe.bloom_negatives));
      read.End();
    }
    if (columns.ok()) {
      // The operator's paired result columns ride the reply's two u64
      // vectors; the master's fold interprets them per the plan's kind.
      reply.type_ids = std::move(columns.value().col_a);
      reply.counts = std::move(columns.value().col_b);
    } else {
      reply.status = static_cast<uint32_t>(columns.status().code());
    }
    reply.db_micros = item.db_end_us - item.db_start_us;
    // The injected latency is charged after serving (to the owning
    // query's private clock), so the request that burned the clock past
    // a deadline still completes and only the ones behind it shed —
    // deterministic under one worker.
    query.clock_nanos.fetch_add(MicrosToNanos(env.extra_latency_us[i]),
                                std::memory_order_relaxed);
    // Every served item's corruption decision is drawn (no short cut),
    // so the injector's tally stays per item; one firing corrupts the
    // whole reply frame.
    if (injector_ != nullptr &&
        injector_->ShouldCorruptReply(node, request.partition_key,
                                      item.attempt)) {
      corrupt_reply = true;
    }
  }

  const Micros encode_start = NowMicros();
  SpanTracer::Scope encode_scope;
  if (sampled) {
    encode_scope = spans_->StartSpan("encode", node);
    encode_scope.Flow(frame_flow, FlowPhase::kStep);
    encode_scope.Attr("query", std::to_string(decoded.value().query_id));
    encode_scope.Attr("sub",
                      std::to_string(decoded.value().requests.front().sub_id));
    encode_scope.Attr("attempt",
                      std::to_string(decoded.value().attempts.front()));
    encode_scope.Attr("items", std::to_string(count));
  }
  WireBuffer buf;
  EncodeReplyBatch(replies, env.attempts, wire_flags, query.codec, registry_,
                   buf);
  encode_scope.End();
  ChargeCodec(encode_nanos_, query.encode_nanos, encode_hist_,
              NowMicros() - encode_start);
  out.frame = buf.TakeBytes();

  if (corrupt_reply) {
    // In-flight reply corruption: flip a header bit so the frame fails
    // validation at the master (the frame header plays the role a
    // checksum would on a real wire) and every item it carried fails
    // over.
    out.frame[0] ^= std::byte{0x01};
  }

  // Demultiplex: the reply lands on the owning query's private channel,
  // never on another query's collector.
  query.replies.Push(std::move(out));
}

void NodeRuntime::ServeWrite(uint32_t node, const RequestEnvelope& env) {
  QueryState& query = *env.query;
  ReplyEnvelope out;
  out.node = node;
  out.issued_us = env.issued_us;
  out.received_us = env.received_us;
  ReplyItem& item = out.items.emplace_back();
  item.sub_id = env.sub_ids.front();
  item.attempt = env.attempts.front();

  const Micros decode_start = NowMicros();
  auto decoded = DecodeWriteBatchFrame(env.frame, query.codec, registry_);
  ChargeCodec(decode_nanos_, query.decode_nanos, decode_hist_,
              NowMicros() - decode_start);

  Status transport = Status::Ok();
  if (!decoded.ok()) {
    transport = decoded.status();
  } else if (decoded.value().batch.sub_id != item.sub_id ||
             decoded.value().attempt != item.attempt) {
    transport =
        Status::Corruption("write batch does not match its transport metadata");
  } else if (decoded.value().batch.target != node) {
    transport = Status::Corruption(
        "write batch names target " +
        std::to_string(decoded.value().batch.target) +
        " but arrived at node " + std::to_string(node));
  }
  const uint8_t wire_flags =
      decoded.ok() ? decoded.value().trace_flags : query.trace_flags;

  WriteReply reply;
  reply.query_id = query.query_id;
  reply.sub_id = item.sub_id;
  reply.node = node;

  if (!transport.ok()) {
    reply.status = static_cast<uint32_t>(transport.code());
  } else if (injector_ != nullptr && injector_->IsNodeDown(node)) {
    // Dequeue injection point, same as reads: the node died while the
    // batch sat in its queue. Nothing reached the WAL.
    reply.status = static_cast<uint32_t>(StatusCode::kUnavailable);
  } else {
    const WriteBatch& batch = decoded.value().batch;
    item.db_start_us = NowMicros();
    SpanTracer::Scope write_span;
    if (spans_ != nullptr) {
      write_span = spans_->StartSpan("store-write", node);
      write_span.Attr("keys", std::to_string(batch.keys.size()));
      write_span.Attr("attempt", std::to_string(item.attempt));
    }
    WriteReply served =
        write_handler_(node, batch, query.flush_watermark_bytes, this);
    item.db_end_us = NowMicros();
    write_span.End();
    // The routing fields are the runtime's, not the handler's: a handler
    // bug must not be able to misroute a reply past the demultiplexer.
    served.query_id = query.query_id;
    served.sub_id = item.sub_id;
    served.node = node;
    served.db_micros = item.db_end_us - item.db_start_us;
    reply = std::move(served);
  }

  const Micros encode_start = NowMicros();
  WireBuffer buf;
  EncodeWriteReplyFrame(reply, item.attempt, wire_flags, query.codec,
                        registry_, buf);
  ChargeCodec(encode_nanos_, query.encode_nanos, encode_hist_,
              NowMicros() - encode_start);
  out.frame = buf.TakeBytes();

  query.replies.Push(std::move(out));
}

std::optional<NodeRuntime::ReplyEnvelope> NodeRuntime::PopReply(
    QueryState& query) {
  std::optional<ReplyEnvelope> popped = query.replies.Pop();
  if (popped) {
    const uint64_t bytes = popped->frame.size();
    bytes_received_.fetch_add(bytes, std::memory_order_relaxed);
    query.bytes_received.fetch_add(bytes, std::memory_order_relaxed);
    if (bytes_received_counter_ != nullptr) {
      bytes_received_counter_->Increment(bytes);
    }
  }
  return popped;
}

std::vector<NodeRuntime::DecodedReply> NodeRuntime::AwaitReply(
    uint64_t query_id) {
  auto query = FindQuery(query_id);
  KV_CHECK(query != nullptr);
  std::optional<ReplyEnvelope> popped = PopReply(*query);
  if (!popped) {
    std::vector<DecodedReply> closed(1);
    closed.front().reply = Status::Unavailable("node runtime shut down");
    return closed;
  }
  ReplyEnvelope env = std::move(*popped);

  const Micros decode_start = NowMicros();
  // The query_id-checked decode is the wire half of the demultiplexer: a
  // frame naming another query is kCorruption, handled like any other
  // unreadable reply (failover), never folded. The frame is one unit:
  // any item disagreeing with the transport metadata fails all of them.
  auto decoded =
      DecodeReplyBatch(env.frame, query->codec, registry_, query_id);
  Status frame_status = Status::Ok();
  if (!decoded.ok()) {
    frame_status = decoded.status();
  } else if (decoded.value().replies.size() != env.items.size()) {
    frame_status = Status::Corruption(
        "reply frame: " + std::to_string(decoded.value().replies.size()) +
        " replies for " + std::to_string(env.items.size()) + " requests");
  } else {
    for (size_t i = 0; i < env.items.size(); ++i) {
      const SubQueryReply& reply = decoded.value().replies[i];
      const uint32_t attempt = decoded.value().attempts[i];
      if (reply.sub_id != env.items[i].sub_id ||
          attempt != env.items[i].attempt) {
        frame_status = Status::Corruption(
            "reply frame: item " + std::to_string(i) + " (sub " +
            std::to_string(reply.sub_id) + ", attempt " +
            std::to_string(attempt) +
            ") disagrees with the transport metadata's (sub " +
            std::to_string(env.items[i].sub_id) + ", attempt " +
            std::to_string(env.items[i].attempt) + ")");
        break;
      }
    }
  }

  std::vector<DecodedReply> out(env.items.size());
  for (size_t i = 0; i < env.items.size(); ++i) {
    const ReplyItem& item = env.items[i];
    DecodedReply& r = out[i];
    r.node = env.node;
    r.sub_id = item.sub_id;
    r.attempt = item.attempt;
    r.store_read = item.store_read;
    r.probe = item.probe;
    r.issued_us = env.issued_us;
    r.received_us = env.received_us;
    r.db_start_us = item.db_start_us;
    r.db_end_us = item.db_end_us;
    if (frame_status.ok()) {
      r.trace_flags = decoded.value().trace_flags;
      r.reply = std::move(decoded.value().replies[i]);
    } else {
      r.reply = frame_status;
    }
  }
  ChargeCodec(decode_nanos_, query->decode_nanos, decode_hist_,
              NowMicros() - decode_start);
  return out;
}

NodeRuntime::DecodedWriteReply NodeRuntime::AwaitWriteReply(
    uint64_t query_id) {
  auto query = FindQuery(query_id);
  KV_CHECK(query != nullptr);
  DecodedWriteReply out;
  std::optional<ReplyEnvelope> popped = PopReply(*query);
  if (!popped) {
    out.reply = Status::Unavailable("node runtime shut down");
    return out;
  }
  const ReplyEnvelope& env = *popped;
  const ReplyItem& item = env.items.front();
  out.sub_id = item.sub_id;

  const Micros decode_start = NowMicros();
  auto decoded =
      DecodeWriteReplyFrame(env.frame, query->codec, registry_, query_id);
  if (!decoded.ok()) {
    out.reply = decoded.status();
  } else if (decoded.value().attempt != item.attempt) {
    out.reply = Status::Corruption(
        "write reply: envelope attempt " +
        std::to_string(decoded.value().attempt) +
        " disagrees with the transport metadata's " +
        std::to_string(item.attempt));
  } else {
    out.reply = std::move(decoded).value().reply;
  }
  ChargeCodec(decode_nanos_, query->decode_nanos, decode_hist_,
              NowMicros() - decode_start);
  return out;
}

void NodeRuntime::Shutdown() {
  if (shut_down_.exchange(true)) return;
  for (auto& queue : queues_) queue->Close();
  for (auto& worker : workers_) worker.join();
  MutexLock lock(queries_mu_);
  // Wake live queries: their AwaitReply calls drain whatever the workers
  // already replied, then observe the closed channel as kUnavailable.
  for (auto& [id, query] : queries_) query->replies.Close();
  admission_cv_.NotifyAll();
}

}  // namespace kvscale
