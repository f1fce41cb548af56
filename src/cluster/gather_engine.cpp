// The query-plan gather engine: one scatter/gather loop for every
// transport.
//
// This TU holds the execution half of InProcessCluster — the part that
// runs a QueryPlan. One loop (RunGather) routes every sub-query, asks the
// shared failover decision loop (SubQueryFailover::NextAttempt) for its
// next viable attempt — which replica it targets, when a retry backs off
// on the gather's virtual clock, when a hedge races a second copy, and
// when a ring-epoch bump forces the replica set to be re-resolved —
// sends it per node or per item, awaits one reply frame at a time, and
// settles or fails over every item the frame answers. It drives either
// transport of cluster/transport.hpp — the pair PutBatch writes through
// too — with the same two calls, Dispatch and AwaitReply: the local one
// (on the caller's thread or over GatherParallel's threads) or the
// message one through the shared NodeRuntime. Folding is the plan's
// PlanFold either way.
//
// Membership, placement, and storage plumbing stay in
// in_process_cluster.cpp.

#include "cluster/in_process_cluster.hpp"

// kvscale-lint: allow-file(sim-wallclock) real data path: gathers time
// actual store and network work with the wall clock, not simulated time

#include <algorithm>
#include <chrono>
#include <thread>

#include "cluster/query_ops.hpp"
#include "cluster/transport.hpp"
#include "common/check.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/span_tracer.hpp"
#include "telemetry/timeseries.hpp"
#include "trace/stage_trace.hpp"

namespace kvscale {

namespace {

using DecodedReply = NodeRuntime::DecodedReply;

double ElapsedMicros(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// Grows a per-node tally vector to cover `node` (a slot added by a
/// membership change after the gather's vectors were sized).
template <typename T>
void EnsureSlot(std::vector<T>& v, size_t node) {
  if (v.size() <= node) v.resize(node + 1);
}

}  // namespace

/// The single retry/hedge/deadline/epoch loop. One instance drives one
/// sub-query; NextAttempt() yields the next viable (target, attempt,
/// latency charge) or returns false once the attempts are exhausted or
/// the deadline passed. Backoff and the deadline both run on the
/// transport's virtual clock.
struct InProcessCluster::SubQueryFailover {
  /// One viable attempt: where to read, which attempt number it is, and
  /// the injected latency the transport must charge before the read.
  struct Decision {
    NodeId target = 0;
    uint32_t attempt = 0;
    Micros extra_latency_us = 0.0;
  };

  InProcessCluster* cluster = nullptr;
  const GatherOptions* options = nullptr;
  GatherResult* result = nullptr;
  LocalTransport* transport = nullptr;  ///< owns the gather's clock
  const std::string* key = nullptr;  ///< the partition under query
  std::vector<NodeId> replicas;      ///< snapshot from `epoch`
  uint64_t epoch = 0;                ///< ring epoch the set was resolved at
  uint32_t next_attempt = 0;
  uint32_t attempts = 0;  ///< attempts actually consumed (incl. faulted)

  /// Tallies one per-replica error (transport refusal, fault, or a store
  /// error a retry may still fix).
  void RecordError(NodeId node) {
    EnsureSlot(result->errors_per_node, node);
    ++result->errors_per_node[node];
    if (cluster->errors_counter_ != nullptr) {
      cluster->errors_counter_->Increment();
    }
  }

  bool NextAttempt(Decision& out) {
    const uint32_t max_attempts = std::max<uint32_t>(options->max_attempts, 1);
    while (next_attempt < max_attempts) {
      const uint32_t a = next_attempt;
      if (a > 0) {
        // Retries stop once the virtual clock passes the deadline: the
        // gather degrades instead of spinning on a sick cluster.
        if (options->deadline_us > 0.0 &&
            transport->clock_us() >= options->deadline_us) {
          break;
        }
        ++result->retries;
        if (cluster->retries_counter_ != nullptr) {
          cluster->retries_counter_->Increment();
        }
        transport->AdvanceClock(options->backoff_base_us *
                                static_cast<double>(uint64_t{1} << (a - 1)));
        // A ring-epoch bump means ownership moved while this sub-query
        // was failing over: re-resolve so the retry chases the data to
        // its new owner instead of re-probing a set that no longer
        // holds it.
        const uint64_t epoch_now = cluster->ring_epoch();
        if (epoch_now != epoch) {
          replicas = cluster->ReplicasOf(*key);
          epoch = epoch_now;
        }
      }
      next_attempt = a + 1;
      ++attempts;
      const uint32_t fanout = static_cast<uint32_t>(replicas.size());
      NodeId target = replicas[(options->replica + a) % fanout];
      FaultInjector::ReadFault fault;
      if (cluster->injector_ != nullptr) {
        fault = cluster->injector_->OnRead(target, *key, a);
      }

      // Hedge: an attempt stalled past the threshold races a duplicate
      // read against the next replica; the faster copy wins and the
      // loser is abandoned (only the winner's read reaches a store).
      if (fault.status.ok() && options->hedge && fanout > 1 &&
          cluster->injector_ != nullptr &&
          fault.extra_latency_us >= options->hedge_threshold_us &&
          (options->deadline_us <= 0.0 ||
           transport->clock_us() < options->deadline_us)) {
        const NodeId alt = replicas[(options->replica + a + 1) % fanout];
        const FaultInjector::ReadFault alt_fault =
            cluster->injector_->OnRead(alt, *key, a);
        ++result->hedged;
        if (cluster->hedged_counter_ != nullptr) {
          cluster->hedged_counter_->Increment();
        }
        if (alt_fault.status.ok()) {
          const Micros hedge_latency =
              options->hedge_threshold_us + alt_fault.extra_latency_us;
          if (hedge_latency < fault.extra_latency_us) {
            target = alt;
            fault.extra_latency_us = hedge_latency;
          }
        } else {
          RecordError(alt);
        }
      }

      if (!fault.status.ok()) {
        RecordError(target);
        continue;  // fail over to the next replica
      }
      out.target = target;
      out.attempt = a;
      out.extra_latency_us = fault.extra_latency_us;
      return true;
    }
    return false;
  }
};

void InProcessCluster::RecordGather(uint64_t query_id, QueryKind kind,
                                    const std::string& table,
                                    std::string_view transport,
                                    const GatherResult& result,
                                    std::vector<SubQueryTimelineEntry> timeline) {
  Counter* kind_counter = query_kind_counters_[static_cast<size_t>(kind)];
  if (kind_counter != nullptr) kind_counter->Increment();
  // Advance the cadence clock even when nothing is attached: a collector
  // attached mid-run starts from the cluster's accumulated time, not 0.
  const uint64_t advance =
      static_cast<uint64_t>(std::max(result.wall_us, 0.0) * 1e3);
  const uint64_t clock_nanos =
      telemetry_clock_nanos_.fetch_add(advance, std::memory_order_relaxed) +
      advance;
  if (flight_recorder_ != nullptr) {
    QueryRecord record;
    record.query_id = query_id;
    record.table = table;
    record.transport = std::string(transport);
    record.query_kind = std::string(QueryKindName(kind));
    record.subqueries = result.subqueries;
    record.completed = result.completed;
    record.failed = result.failed;
    record.retries = result.retries;
    record.hedged = result.hedged;
    record.partial = result.partial;
    record.shed_by_admission = result.shed_by_admission;
    record.admission_wait_us = result.admission_wait_us;
    record.queue_wait_us = result.queue_wait_us;
    record.virtual_latency_us = result.virtual_latency_us;
    record.wall_us = result.wall_us;
    record.wire_bytes_sent = result.wire_bytes_sent;
    record.wire_bytes_received = result.wire_bytes_received;
    record.wire_frames_sent = result.wire_frames_sent;
    record.ring_epoch = ring_epoch();
    record.timeline = std::move(timeline);
    flight_recorder_->Record(std::move(record));
  }
  if (timeseries_ != nullptr) {
    timeseries_->Tick(static_cast<Micros>(clock_nanos) / 1e3, ring_epoch());
  }
}

std::shared_ptr<NodeRuntime> InProcessCluster::EnsureRuntime(
    const GatherOptions& options) {
  MutexLock lock(runtime_mu_);
  const RuntimeConfig wanted{options.queue_depth, options.workers_per_node,
                             options.queue_policy};
  const bool reusable =
      runtime_ != nullptr &&
      runtime_config_.queue_depth == wanted.queue_depth &&
      runtime_config_.workers_per_node == wanted.workers_per_node &&
      runtime_config_.queue_policy == wanted.queue_policy;
  if (reusable) {
    // Admission is a controller setting, not a structural one: re-arm it
    // without touching the queues or workers.
    runtime_->SetAdmissionLimit(options.max_inflight,
                                options.admission_policy);
    return runtime_;
  }
  NodeRuntimeOptions rt_options;
  rt_options.queue_depth = options.queue_depth;
  rt_options.workers_per_node = options.workers_per_node;
  rt_options.on_queue_full = options.queue_policy;
  rt_options.max_inflight_queries = options.max_inflight;
  rt_options.on_admission_full = options.admission_policy;
  runtime_ = std::make_shared<NodeRuntime>(
      node_count(), rt_options, frame_binding_, codec_registry_, injector_,
      metrics_, spans_, write_binding_,
      [this](uint32_t node, const std::string& table) {
        RunMaintenanceStep(node, table);
      });
  runtime_config_ = wanted;
  ++runtime_builds_;
  return runtime_;
}

ItemServer InProcessCluster::BindFrame(uint32_t node,
                                       const std::string& table) const {
  // One resolution per frame: the store's shared_ptr rides in the item
  // server, keeping the table alive while the frame's items run, and a
  // failed lookup refuses each of them the same way.
  std::shared_ptr<LocalStore> store = NodePtr(node);
  Result<Table*> found =
      store != nullptr
          ? store->FindTable(table)
          : Result<Table*>(Status::Unavailable(
                "node " + std::to_string(node) + " has no store"));
  if (!found.ok()) {
    return [status = found.status()](const SubQueryRequest&, ReadProbe*) {
      return Result<OperatorResult>(status);
    };
  }
  // Operator dispatch: the request names what to run; the server has no
  // query-type knowledge of its own.
  return [store = std::move(store), t = found.value()](
             const SubQueryRequest& req, ReadProbe* probe) {
    return ExecuteOperator(*t, req, probe);
  };
}

GatherResult InProcessCluster::RunGather(const QueryPlan& plan,
                                         const GatherOptions& options,
                                         uint32_t threads) {
  const auto t0 = std::chrono::steady_clock::now();
  GatherResult result;
  result.requests_per_node.assign(node_count(), 0);
  result.probes_per_node.assign(node_count(), ReadProbe{});
  result.errors_per_node.assign(node_count(), 0);
  PlanFold fold(plan);

  const size_t total = plan.partitions.size();
  const bool message = options.transport == GatherTransport::kMessage;
  const std::string_view transport_name = message ? "message" : "direct";
  // Direct gathers have no wire query_id; mint one only when someone is
  // recording, so the message path's id sequence stays undisturbed.
  const uint64_t query_id =
      message || flight_recorder_ != nullptr
          ? next_query_id_.fetch_add(1, std::memory_order_relaxed)
          : 0;

  // With tracing on, the sampled bit rides in every frame this query
  // sends: workers see it *on the wire* and record their spans
  // flow-linked to the sub-query that caused the work.
  const bool sampled = message && spans_ != nullptr && spans_->enabled();

  std::unique_ptr<LocalTransport> transport;
  MessageTransport* wire = nullptr;  // set on the message path only
  if (message) {
    // The shared runtime: built on the first message gather, reused by
    // every one after it (and by every one running concurrently).
    auto owned = std::make_unique<MessageTransport>(
        EnsureRuntime(options), query_id, frame_binding_, write_binding_,
        spans_);
    wire = owned.get();
    transport = std::move(owned);
    NodeRuntime::QueryOptions query_options;
    query_options.codec = options.codec;
    query_options.deadline_us = options.deadline_us;
    query_options.trace_flags = sampled ? kTraceSampled : 0;
    const auto admission_t0 = std::chrono::steady_clock::now();
    const Status admitted = wire->Begin(query_options);
    result.admission_wait_us = ElapsedMicros(admission_t0);
    if (!admitted.ok()) {
      // Shed at admission: nothing was dispatched, every sub-query is
      // reported lost, and the caller sees a degraded (but accounted-for)
      // result instead of an exception path.
      result.shed_by_admission = true;
      for (const PlanPartition& part : plan.partitions) {
        ++result.subqueries;
        if (subqueries_counter_ != nullptr) subqueries_counter_->Increment();
        ++result.failed;
        if (failed_counter_ != nullptr) failed_counter_->Increment();
        result.lost_partitions.push_back(part.part.key);
      }
      fold.Finish(result);
      FinalizeGatherAccounting(result);
      result.wall_us = ElapsedMicros(t0);
      RecordGather(query_id, plan.kind, plan.table, transport_name, result,
                   {});
      return result;
    }
  } else {
    transport = std::make_unique<LocalTransport>(
        frame_binding_, write_binding_, spans_, threads, master_track() + 1);
  }

  SpanTracer::Scope gather;
  if (spans_ != nullptr) {
    gather = spans_->StartSpan(message       ? "gather-message"
                               : threads > 1 ? "gather-parallel"
                                             : "gather",
                               master_track());
    gather.Attr("table", plan.table);
    gather.Attr("kind", std::string(QueryKindName(plan.kind)));
    gather.Attr("partitions", std::to_string(total));
    if (message) {
      gather.Attr("codec", WireCodecName(options.codec));
      gather.Attr("batch", options.batch ? "true" : "false");
      gather.Attr("query", std::to_string(query_id));
    } else if (threads > 1) {
      gather.Attr("threads", std::to_string(threads));
      for (uint32_t t = 0; t < threads; ++t) {
        spans_->SetTrackName(master_track() + 1 + t,
                             "worker-" + std::to_string(t));
      }
    }
  }

  struct Pending {
    SubQueryFailover failover;
    /// When the master first processed this sub-query: a late-scattered
    /// one is not charged its predecessors' dispatch work.
    std::chrono::steady_clock::time_point t0;
  };
  std::vector<Pending> subs(total);
  // Every replica set under one routing-lock acquisition, the epoch read
  // before it (a flip in between makes a retry re-resolve).
  const uint64_t epoch = ring_epoch();
  std::vector<std::vector<NodeId>> replica_sets = ReplicaSetsOf(plan);
  for (size_t i = 0; i < total; ++i) {
    SubQueryFailover& failover = subs[i].failover;
    failover.cluster = this;
    failover.options = &options;
    failover.result = &result;
    failover.transport = transport.get();
    failover.key = &plan.partitions[i].part.key;
    failover.epoch = epoch;
    failover.replicas = std::move(replica_sets[i]);
  }

  // The flight recorder's per-sub-query stage stamps (last attempt wins);
  // only the wire has stages to stamp.
  std::vector<SubQueryTimelineEntry> timeline;
  if (flight_recorder_ != nullptr && message) {
    timeline.resize(total);
    for (size_t i = 0; i < total; ++i) {
      timeline[i].sub_id = static_cast<uint32_t>(i);
    }
  }

  // Settles one sub-query's fate in the result. `columns` is non-null
  // only when real data came back.
  auto resolve = [&](size_t i, bool answered, const OperatorResult* columns) {
    const Pending& s = subs[i];
    if (!timeline.empty()) {
      SubQueryTimelineEntry& entry = timeline[i];
      entry.attempts = s.failover.attempts;
      entry.completed = answered;
      entry.completed_us = wire->now_us();
    }
    if (answered) {
      ++result.completed;
      if (columns != nullptr) {
        SpanTracer::Scope fold_span;
        if (spans_ != nullptr) {
          fold_span = spans_->StartSpan("fold", master_track());
          fold_span.Attr("partition", plan.partitions[i].part.key);
        }
        fold.Accept(i, columns->col_a, columns->col_b, result);
      } else {
        ++result.partitions_missing;
        if (missing_counter_ != nullptr) missing_counter_->Increment();
      }
    } else {
      ++result.failed;
      if (failed_counter_ != nullptr) failed_counter_->Increment();
      result.lost_partitions.push_back(plan.partitions[i].part.key);
    }
    const double wall_us = ElapsedMicros(s.t0);
    if (subquery_latency_ != nullptr) subquery_latency_->Record(wall_us);
    if (s.failover.attempts > 1 && failover_latency_ != nullptr) {
      failover_latency_->Record(wall_us);
    }
  };

  // One frame per node, filled only during a batched scatter.
  struct NodeBatch {
    std::vector<SubQueryRequest> requests;
    std::vector<uint32_t> attempts;
    std::vector<Micros> extras;
  };
  std::vector<NodeBatch> per_node;

  // Advances sub-query `i` to its next viable attempt via the shared
  // failover loop, then either hands the attempt to the transport (or to
  // `collect` during a batched scatter) and returns true, or exhausts
  // the attempts, records the loss, and returns false.
  auto try_dispatch = [&](size_t i, std::vector<NodeBatch>* collect) {
    Pending& s = subs[i];
    SubQueryFailover::Decision decision;
    while (s.failover.NextAttempt(decision)) {
      const uint32_t a = decision.attempt;
      const NodeId target = decision.target;
      SubQueryRequest req;
      req.query_id = query_id;
      req.sub_id = static_cast<uint32_t>(i);
      req.table = plan.table;
      req.partition_key = *s.failover.key;
      req.expected_elements = plan.partitions[i].part.elements;
      req.op = plan.op;
      req.arg_lo = plan.arg_lo;
      req.arg_hi = plan.arg_hi;
      req.arg_limit = plan.arg_limit;
      if (collect != nullptr) {
        EnsureSlot(*collect, target);
        NodeBatch& frame = (*collect)[target];
        frame.requests.push_back(std::move(req));
        frame.attempts.push_back(a);
        frame.extras.push_back(decision.extra_latency_us);
        return true;
      }
      // The flow's origin: the dispatch span covers encode + enqueue (any
      // backpressure blocking included) and starts the arrow the node's
      // worker spans and the master's reply span attach to.
      SpanTracer::Scope dispatch;
      if (sampled) {
        dispatch = spans_->StartSpan("dispatch", master_track());
        dispatch.Attr("partition", *s.failover.key);
        dispatch.Attr("node", std::to_string(target));
        dispatch.Attr("attempt", std::to_string(a));
        dispatch.Flow(TraceFlowId(query_id, static_cast<uint32_t>(i), a),
                      FlowPhase::kStart);
      }
      const Status sent = transport->Dispatch(
          target, std::span<const SubQueryRequest>(&req, 1),
          std::span<const uint32_t>(&a, 1),
          std::span<const Micros>(&decision.extra_latency_us, 1));
      if (dispatch.active() && !sent.ok()) dispatch.Attr("refused", "true");
      dispatch.End();
      if (!sent.ok()) {
        // kReject backpressure: the send itself was refused; fail over
        // like any other transport error.
        s.failover.RecordError(target);
        continue;
      }
      RecordDispatch(target);  // a request actually left the master
      return true;
    }
    resolve(i, /*answered=*/false, nullptr);
    return false;
  };

  // Scatter: every sub-query's first viable attempt, coalesced per node
  // when the message path batches.
  const bool batch = message && options.batch;
  size_t outstanding = 0;
  if (batch) per_node.resize(node_count());
  for (size_t i = 0; i < total; ++i) {
    ++result.subqueries;
    if (subqueries_counter_ != nullptr) subqueries_counter_->Increment();
    subs[i].t0 = std::chrono::steady_clock::now();
    SpanTracer::Scope route;
    if (spans_ != nullptr) route = spans_->StartSpan("route", master_track());
    if (route.active()) {
      const std::vector<NodeId>& replicas = subs[i].failover.replicas;
      route.Attr("partition", *subs[i].failover.key);
      route.Attr("node",
                 std::to_string(replicas[options.replica % replicas.size()]));
      route.End();
    }
    if (try_dispatch(i, batch ? &per_node : nullptr) && !batch) {
      ++outstanding;
    }
  }
  for (uint32_t n = 0; n < per_node.size(); ++n) {
    const auto& [requests, attempts, extras] = per_node[n];
    if (requests.empty()) continue;
    // One dispatch span per coalesced sub-query: each starts its own
    // flow even though they all travelled in a single frame.
    std::vector<SpanTracer::Scope> dispatch_spans;
    if (sampled) {
      dispatch_spans.reserve(requests.size());
      for (size_t k = 0; k < requests.size(); ++k) {
        SpanTracer::Scope span = spans_->StartSpan("dispatch", master_track());
        span.Attr("partition", requests[k].partition_key);
        span.Attr("node", std::to_string(n));
        span.Attr("attempt", std::to_string(attempts[k]));
        span.Attr("batched", "true");
        span.Flow(TraceFlowId(query_id, requests[k].sub_id, attempts[k]),
                  FlowPhase::kStart);
        dispatch_spans.push_back(std::move(span));
      }
    }
    const Status sent = transport->Dispatch(n, requests, attempts, extras);
    for (SpanTracer::Scope& span : dispatch_spans) {
      if (!sent.ok()) span.Attr("refused", "true");
      span.End();
    }
    if (sent.ok()) {
      RecordDispatch(n, requests.size());
      outstanding += requests.size();
      continue;
    }
    // The whole frame was refused (kReject): every sub-query in it
    // fails over individually, unbatched.
    for (const SubQueryRequest& request : requests) {
      subs[request.sub_id].failover.RecordError(n);
      if (try_dispatch(request.sub_id, nullptr)) ++outstanding;
    }
  }

  // Collect: take reply frames as they land, folding answers and failing
  // unanswered sub-queries over until every one is settled. A frame
  // carries one reply per item of the request frame it answers, and
  // only ever this gather's replies — concurrent gathers drain their
  // own channels.
  while (outstanding > 0) {
    std::vector<DecodedReply> frame = transport->AwaitReply();
    KV_CHECK(frame.size() <= outstanding);
    outstanding -= frame.size();
    for (DecodedReply& r : frame) {
      const size_t i = r.sub_id;
      KV_CHECK(i < total);
      // The flow's terminus: the reply span covers this reply's fold (or
      // failover decision) and closes the arrow the dispatch span opened
      // — but only when the wire actually carried the sampled bit back.
      SpanTracer::Scope reply_span;
      if (sampled && (r.trace_flags & kTraceSampled) != 0) {
        reply_span = spans_->StartSpan("reply", master_track());
        reply_span.Attr("sub", std::to_string(r.sub_id));
        reply_span.Attr("node", std::to_string(r.node));
        reply_span.Attr("attempt", std::to_string(r.attempt));
        reply_span.Flow(TraceFlowId(query_id, r.sub_id, r.attempt),
                        FlowPhase::kFinish);
      }
      if (r.store_read) {
        if (wire != nullptr && wire->Wired(r.node)) {
          if (!timeline.empty()) {
            SubQueryTimelineEntry& entry = timeline[i];
            entry.node = r.node;
            entry.issued_us = r.issued_us;
            entry.received_us = r.received_us;
            entry.db_start_us = r.db_start_us;
            entry.db_end_us = r.db_end_us;
          }
          if (stage_tracer_ != nullptr) {
            RequestTrace trace;
            trace.query_id = query_id;
            trace.sub_id = r.sub_id;
            trace.node = r.node;
            trace.keysize =
                static_cast<double>(plan.partitions[i].part.elements);
            trace.issued = r.issued_us;
            trace.received = r.received_us;
            trace.db_start = r.db_start_us;
            trace.db_end = r.db_end_us;
            trace.completed = wire->now_us();
            stage_tracer_->Record(trace);
          }
        }
        EnsureSlot(result.requests_per_node, r.node);
        EnsureSlot(result.probes_per_node, r.node);
        ++result.requests_per_node[r.node];
        result.probes_per_node[r.node].MergeFrom(r.probe);
      }
      StatusCode code = StatusCode::kCorruption;  // unreadable reply frame
      if (r.reply.ok()) code = static_cast<StatusCode>(r.reply.value().status);
      if (code == StatusCode::kOk) {
        // The reply's paired u64 vectors are the operator's result
        // columns; the fold reads them the same way on every transport.
        OperatorResult columns;
        columns.col_a = std::move(r.reply.value().type_ids);
        columns.col_b = std::move(r.reply.value().counts);
        resolve(i, /*answered=*/true, &columns);
      } else if (code == StatusCode::kNotFound) {
        // Authoritative miss: every replica stores the same partition
        // set, so one clean NotFound settles the sub-query.
        resolve(i, /*answered=*/true, nullptr);
      } else {
        // kCorruption and friends are retryable: the next replica holds a
        // clean copy of the same data. A shed (kResourceExhausted) is the
        // deadline's doing, not the node's: it retries without an error
        // tally, and the deadline check inside the failover loop settles
        // its fate.
        if (code != StatusCode::kResourceExhausted) {
          subs[i].failover.RecordError(r.node);
        }
        if (try_dispatch(i, nullptr)) ++outstanding;
      }
    }
  }

  result.virtual_latency_us = transport->clock_us();
  if (wire != nullptr) wire->End(result);
  fold.Finish(result);
  FinalizeGatherAccounting(result);
  result.wall_us = ElapsedMicros(t0);
  RecordGather(query_id, plan.kind, plan.table, transport_name, result,
               std::move(timeline));
  return result;
}

GatherResult InProcessCluster::Gather(const QueryPlan& plan,
                                      const GatherOptions& options) {
  return RunGather(plan, options, 1);
}

GatherResult InProcessCluster::GatherParallel(const QueryPlan& plan,
                                              uint32_t threads,
                                              const GatherOptions& options) {
  KV_CHECK(threads >= 1);
  if (options.transport == GatherTransport::kMessage) {
    // On the message path the parallelism lives in the per-node worker
    // pools, not in master-side threads: scale the pools instead.
    GatherOptions scaled = options;
    scaled.workers_per_node = std::max(scaled.workers_per_node, threads);
    return RunGather(plan, scaled, 1);
  }
  return RunGather(plan, options, threads);
}

ConcurrentGatherReport InProcessCluster::GatherConcurrent(
    const QueryPlan& plan, uint32_t clients, uint32_t queries_per_client,
    const GatherOptions& options) {
  KV_CHECK(clients >= 1);
  KV_CHECK(queries_per_client >= 1);
  GatherOptions opts = options;
  opts.transport = GatherTransport::kMessage;

  // Warm the routing directory and the shared runtime outside the timed
  // region: the measurement is queries per second, not setup.
  for (const PlanPartition& part : plan.partitions) {
    ReplicasOf(part.part.key);
  }
  EnsureRuntime(opts);

  ConcurrentGatherReport report;
  report.results.resize(static_cast<size_t>(clients) * queries_per_client);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> client_threads;
  client_threads.reserve(clients);
  for (uint32_t c = 0; c < clients; ++c) {
    client_threads.emplace_back([this, &plan, &opts, &report,
                                 queries_per_client, c] {
      for (uint32_t q = 0; q < queries_per_client; ++q) {
        report.results[static_cast<size_t>(c) * queries_per_client + q] =
            Gather(plan, opts);
      }
    });
  }
  for (auto& client : client_threads) client.join();
  report.wall_us = ElapsedMicros(start);
  report.queries = report.results.size();
  for (const GatherResult& r : report.results) {
    if (r.shed_by_admission) {
      ++report.shed;
    } else {
      ++report.admitted;
    }
  }
  if (report.wall_us > 0.0) {
    report.queries_per_sec =
        static_cast<double>(report.admitted) * 1e6 / report.wall_us;
  }
  return report;
}

// -- Count-by-type wrappers: the original API as thin plan adapters ---------

GatherResult InProcessCluster::CountByTypeAll(const WorkloadSpec& workload,
                                              const GatherOptions& options) {
  return Gather(MakeCountPlan(workload), options);
}

GatherResult InProcessCluster::CountByTypeAll(const WorkloadSpec& workload,
                                              uint32_t replica) {
  GatherOptions options;
  options.replica = replica;
  return Gather(MakeCountPlan(workload), options);
}

GatherResult InProcessCluster::CountByTypeAllParallel(
    const WorkloadSpec& workload, uint32_t threads,
    const GatherOptions& options) {
  return GatherParallel(MakeCountPlan(workload), threads, options);
}

ConcurrentGatherReport InProcessCluster::CountByTypeAllConcurrent(
    const WorkloadSpec& workload, uint32_t clients,
    uint32_t queries_per_client, const GatherOptions& options) {
  return GatherConcurrent(MakeCountPlan(workload), clients,
                          queries_per_client, options);
}

}  // namespace kvscale
