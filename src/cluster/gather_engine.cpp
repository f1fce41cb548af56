// The query-plan gather engine: every transport's scatter/gather.
//
// This TU holds the execution half of InProcessCluster — the part that
// runs a QueryPlan. The one failover decision loop
// (SubQueryFailover::NextAttempt) is shared verbatim by the direct,
// parallel, and message transports: it decides which replica an attempt
// targets, when a retry backs off on the caller's virtual clock, when a
// hedge races a second copy, and when a ring-epoch bump forces the
// replica set to be re-resolved. The transports differ only in how a
// viable attempt reaches a store (plain call vs encoded frame) and how
// its answer comes back; folding is the plan's PlanFold either way.
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
#include "common/check.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/span_tracer.hpp"
#include "telemetry/timeseries.hpp"
#include "trace/stage_trace.hpp"

namespace kvscale {

namespace {

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
/// the deadline passed. The clock binding is the only transport-specific
/// part: direct gathers advance the caller's Micros, message gathers the
/// runtime's per-query clock.
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
  const std::string* key = nullptr;  ///< the partition under query
  std::vector<NodeId> replicas;      ///< snapshot from `epoch`
  uint64_t epoch = 0;                ///< ring epoch the set was resolved at
  uint32_t next_attempt = 0;
  uint32_t attempts = 0;  ///< attempts actually consumed (incl. faulted)

  // Clock binding: exactly one of the two is set.
  Micros* vclock = nullptr;        ///< direct/parallel gathers
  NodeRuntime* runtime = nullptr;  ///< message gathers
  uint64_t query_id = 0;

  Micros ClockNow() const {
    return vclock != nullptr ? *vclock : runtime->clock_us(query_id);
  }
  void ClockAdvance(Micros us) {
    if (vclock != nullptr) {
      *vclock += us;
    } else {
      runtime->AdvanceClock(query_id, us);
    }
  }

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
        if (options->deadline_us > 0.0 && ClockNow() >= options->deadline_us) {
          break;
        }
        ++result->retries;
        if (cluster->retries_counter_ != nullptr) {
          cluster->retries_counter_->Increment();
        }
        ClockAdvance(options->backoff_base_us *
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
          (options->deadline_us <= 0.0 || ClockNow() < options->deadline_us)) {
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
      node_count(), rt_options,
      [this](uint32_t node, const std::string& table) -> ItemServer {
        // One resolution per frame: the store's shared_ptr rides in the
        // item server, keeping the table alive while the frame's items
        // run, and a failed lookup refuses each of them the same way.
        std::shared_ptr<LocalStore> store = NodePtr(node);
        Result<Table*> found =
            store != nullptr ? store->FindTable(table)
                             : Result<Table*>(Status::Unavailable(
                                   "node " + std::to_string(node) +
                                   " has no store"));
        if (!found.ok()) {
          return [status = found.status()](const SubQueryRequest&,
                                           ReadProbe*) {
            return Result<OperatorResult>(status);
          };
        }
        // Operator dispatch: the request names what to run; the worker
        // has no query-type knowledge of its own.
        return [store = std::move(store), t = found.value()](
                   const SubQueryRequest& req, ReadProbe* probe) {
          return ExecuteOperator(*t, req, probe);
        };
      },
      codec_registry_, injector_, metrics_, spans_,
      [this](uint32_t node, const WriteBatch& batch, NodeRuntime& self) {
        return ServeWriteBatchMessage(node, batch, self);
      },
      [this](uint32_t node, const std::string& table) {
        RunMaintenanceStep(node, table);
      });
  runtime_config_ = wanted;
  ++runtime_builds_;
  return runtime_;
}

void InProcessCluster::ExecuteSubQuery(const QueryPlan& plan, size_t index,
                                       std::vector<NodeId> replicas,
                                       uint64_t resolved_epoch,
                                       const GatherOptions& options,
                                       PlanFold& fold, GatherResult& out,
                                       Micros& vclock) {
  const PlanPartition& part = plan.partitions[index];
  const auto t0 = std::chrono::steady_clock::now();
  ++out.subqueries;
  if (subqueries_counter_ != nullptr) subqueries_counter_->Increment();

  SpanTracer::Scope route;
  if (spans_ != nullptr) route = spans_->StartSpan("route", master_track());
  if (route.active()) {
    route.Attr("partition", part.part.key);
    route.Attr("node",
               std::to_string(replicas[options.replica % replicas.size()]));
    route.End();
  }

  SubQueryFailover failover;
  failover.cluster = this;
  failover.options = &options;
  failover.result = &out;
  failover.key = &part.part.key;
  failover.replicas = std::move(replicas);
  failover.epoch = resolved_epoch;
  failover.vclock = &vclock;

  bool answered = false;  // data folded, or an authoritative miss
  bool have_data = false;
  OperatorResult columns;
  SubQueryFailover::Decision decision;
  while (!answered && failover.NextAttempt(decision)) {
    const NodeId target = decision.target;
    vclock += decision.extra_latency_us;

    SpanTracer::Scope read;
    if (spans_ != nullptr) {
      read = spans_->StartSpan("store-read", target);
      read.Attr("partition", part.part.key);
      read.Attr("attempt", std::to_string(decision.attempt));
    }
    RecordDispatch(target);  // a read actually issued against the store
    EnsureSlot(out.requests_per_node, target);
    EnsureSlot(out.probes_per_node, target);
    ++out.requests_per_node[target];
    ReadProbe probe;
    std::shared_ptr<LocalStore> store = NodePtr(target);
    auto found = store != nullptr
                     ? store->FindTable(plan.table)
                     : Result<Table*>(Status::Unavailable(
                           "node " + std::to_string(target) + " has no store"));
    Result<OperatorResult> op = Status::NotFound(part.part.key);
    if (found.ok()) {
      op = ExecuteOperator(*found.value(), part.part.key, plan.op, plan.arg_lo,
                           plan.arg_hi, plan.arg_limit, &probe);
      out.probes_per_node[target].MergeFrom(probe);
    } else {
      op = found.status();
    }
    if (read.active()) {
      read.Attr("blocks_decoded", std::to_string(probe.blocks_decoded));
      read.Attr("blocks_from_cache", std::to_string(probe.blocks_from_cache));
      read.Attr("bloom_negatives", std::to_string(probe.bloom_negatives));
      read.End();
    }

    if (op.ok()) {
      answered = true;
      have_data = true;
      columns = std::move(op).value();
    } else if (op.status().code() == StatusCode::kNotFound) {
      // Authoritative miss: every replica stores the same partition set,
      // so one clean NotFound settles the sub-query.
      answered = true;
    } else {
      // kCorruption and friends are retryable: the next replica holds a
      // clean copy of the same data.
      failover.RecordError(target);
    }
  }

  if (answered) {
    ++out.completed;
    if (have_data) {
      SpanTracer::Scope fold_span;
      if (spans_ != nullptr) {
        fold_span = spans_->StartSpan("fold", master_track());
        fold_span.Attr("partition", part.part.key);
      }
      fold.Accept(index, columns.col_a, columns.col_b, out);
    } else {
      ++out.partitions_missing;
      if (missing_counter_ != nullptr) missing_counter_->Increment();
    }
  } else {
    ++out.failed;
    if (failed_counter_ != nullptr) failed_counter_->Increment();
    out.lost_partitions.push_back(part.part.key);
  }

  const double wall_us = ElapsedMicros(t0);
  if (subquery_latency_ != nullptr) subquery_latency_->Record(wall_us);
  if (failover.attempts > 1 && failover_latency_ != nullptr) {
    failover_latency_->Record(wall_us);
  }
}

GatherResult InProcessCluster::Gather(const QueryPlan& plan,
                                      const GatherOptions& options) {
  if (options.transport == GatherTransport::kMessage) {
    return GatherMessage(plan, options);
  }
  const auto t0 = std::chrono::steady_clock::now();
  GatherResult result;
  result.requests_per_node.assign(node_count(), 0);
  result.probes_per_node.assign(node_count(), ReadProbe{});
  result.errors_per_node.assign(node_count(), 0);
  PlanFold fold(plan);

  SpanTracer::Scope gather;
  if (spans_ != nullptr) {
    gather = spans_->StartSpan("gather", master_track());
    gather.Attr("table", plan.table);
    gather.Attr("kind", std::string(QueryKindName(plan.kind)));
    gather.Attr("partitions", std::to_string(plan.partitions.size()));
  }

  Micros vclock = 0.0;
  for (size_t i = 0; i < plan.partitions.size(); ++i) {
    const uint64_t epoch = ring_epoch();
    ExecuteSubQuery(plan, i, ReplicasOf(plan.partitions[i].part.key), epoch,
                    options, fold, result, vclock);
  }
  result.virtual_latency_us = vclock;
  fold.Finish(result);
  FinalizeGatherAccounting(result);
  result.wall_us = ElapsedMicros(t0);
  // Direct gathers have no wire query_id; mint one only when someone is
  // recording, so the message path's id sequence stays undisturbed.
  RecordGather(flight_recorder_ != nullptr
                   ? next_query_id_.fetch_add(1, std::memory_order_relaxed)
                   : 0,
               plan.kind, plan.table, "direct", result, {});
  return result;
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
    return GatherMessage(plan, scaled);
  }
  const auto t0 = std::chrono::steady_clock::now();
  // Resolve every replica set up front, snapshotting the epoch *before*
  // the resolution so a worker's retry can tell whether its set predates
  // a concurrent membership flip.
  const uint64_t epoch = ring_epoch();
  const std::vector<std::vector<NodeId>> replica_sets = ReplicaSetsOf(plan);

  // The fold is shared: workers settle disjoint sub-query indices, so
  // row buffering never races; count folds land in worker partials.
  PlanFold fold(plan);
  std::vector<GatherResult> partials(threads);
  std::vector<Micros> clocks(threads, 0.0);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  const size_t total = plan.partitions.size();
  SpanTracer::Scope gather;
  if (spans_ != nullptr) {
    gather = spans_->StartSpan("gather-parallel", master_track());
    gather.Attr("table", plan.table);
    gather.Attr("kind", std::string(QueryKindName(plan.kind)));
    gather.Attr("partitions", std::to_string(total));
    gather.Attr("threads", std::to_string(threads));
    for (uint32_t t = 0; t < threads; ++t) {
      spans_->SetTrackName(master_track() + 1 + t,
                           "worker-" + std::to_string(t));
    }
  }
  const uint32_t slots = node_count();
  for (uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([this, &plan, &replica_sets, epoch, &partials,
                          &clocks, &options, &fold, t, threads, total,
                          slots] {
      GatherResult& local = partials[t];
      local.requests_per_node.assign(slots, 0);
      local.probes_per_node.assign(slots, ReadProbe{});
      local.errors_per_node.assign(slots, 0);
      SpanTracer::Scope worker_span;
      if (spans_ != nullptr) {
        worker_span = spans_->StartSpan("worker", master_track() + 1 + t);
      }
      for (size_t i = t; i < total; i += threads) {
        ExecuteSubQuery(plan, i, replica_sets[i], epoch, options, fold,
                        local, clocks[t]);
      }
    });
  }
  for (auto& worker : workers) worker.join();

  SpanTracer::Scope fold_span;
  if (spans_ != nullptr) fold_span = spans_->StartSpan("fold", master_track());
  GatherResult result;
  result.requests_per_node.assign(node_count(), 0);
  result.probes_per_node.assign(node_count(), ReadProbe{});
  result.errors_per_node.assign(node_count(), 0);
  for (uint32_t t = 0; t < threads; ++t) {
    const GatherResult& partial = partials[t];
    result.partitions_missing += partial.partitions_missing;
    result.subqueries += partial.subqueries;
    result.completed += partial.completed;
    result.failed += partial.failed;
    result.retries += partial.retries;
    result.hedged += partial.hedged;
    for (const auto& [type, count] : partial.totals) {
      result.totals[type] += count;
    }
    for (const auto& [type, count] : partial.boundary_totals) {
      result.boundary_totals[type] += count;
    }
    for (size_t n = 0; n < partial.requests_per_node.size(); ++n) {
      EnsureSlot(result.requests_per_node, n);
      EnsureSlot(result.probes_per_node, n);
      EnsureSlot(result.errors_per_node, n);
      result.requests_per_node[n] += partial.requests_per_node[n];
      result.probes_per_node[n].MergeFrom(partial.probes_per_node[n]);
      result.errors_per_node[n] += partial.errors_per_node[n];
    }
    result.lost_partitions.insert(result.lost_partitions.end(),
                                  partial.lost_partitions.begin(),
                                  partial.lost_partitions.end());
    // Workers burn backoff in parallel: the gather's virtual latency is
    // the slowest worker's clock.
    result.virtual_latency_us = std::max(result.virtual_latency_us, clocks[t]);
  }
  fold.Finish(result);
  FinalizeGatherAccounting(result);
  result.wall_us = ElapsedMicros(t0);
  RecordGather(flight_recorder_ != nullptr
                   ? next_query_id_.fetch_add(1, std::memory_order_relaxed)
                   : 0,
               plan.kind, plan.table, "direct", result, {});
  return result;
}

GatherResult InProcessCluster::GatherMessage(const QueryPlan& plan,
                                             const GatherOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  GatherResult result;
  result.requests_per_node.assign(node_count(), 0);
  result.probes_per_node.assign(node_count(), ReadProbe{});
  result.errors_per_node.assign(node_count(), 0);
  PlanFold fold(plan);

  const size_t total = plan.partitions.size();
  const uint64_t query_id =
      next_query_id_.fetch_add(1, std::memory_order_relaxed);

  // The shared runtime: built on the first message gather, reused by
  // every one after it (and by every one running concurrently).
  std::shared_ptr<NodeRuntime> runtime = EnsureRuntime(options);

  // With tracing on, the sampled bit rides in every frame this query
  // sends: workers see it *on the wire* and record their spans
  // flow-linked to the sub-query that caused the work.
  const bool sampled = spans_ != nullptr && spans_->enabled();

  NodeRuntime::QueryOptions query_options;
  query_options.codec = options.codec;
  query_options.deadline_us = options.deadline_us;
  query_options.trace_flags = sampled ? kTraceSampled : 0;
  const auto admission_t0 = std::chrono::steady_clock::now();
  const Status admitted = runtime->BeginQuery(query_id, query_options);
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
    RecordGather(query_id, plan.kind, plan.table, "message", result, {});
    return result;
  }

  SpanTracer::Scope gather;
  if (spans_ != nullptr) {
    gather = spans_->StartSpan("gather-message", master_track());
    gather.Attr("table", plan.table);
    gather.Attr("kind", std::string(QueryKindName(plan.kind)));
    gather.Attr("partitions", std::to_string(total));
    gather.Attr("codec", WireCodecName(options.codec));
    gather.Attr("batch", options.batch ? "true" : "false");
    gather.Attr("query", std::to_string(query_id));
  }

  struct Pending {
    SubQueryFailover failover;
    bool started = false;  ///< t0 stamped (first dispatch processing)
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
    failover.key = &plan.partitions[i].part.key;
    failover.epoch = epoch;
    failover.replicas = std::move(replica_sets[i]);
    failover.runtime = runtime.get();
    failover.query_id = query_id;
  }

  // The flight recorder's per-sub-query stage stamps (last attempt wins).
  std::vector<SubQueryTimelineEntry> timeline;
  if (flight_recorder_ != nullptr) {
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
      entry.completed_us = runtime->now_us();
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

  // One batch slot per node, filled only during a batched scatter.
  struct BatchItem {
    SubQueryRequest request;
    uint32_t attempt = 0;
    Micros extra_latency_us = 0.0;
    size_t index = 0;
  };
  std::vector<std::vector<BatchItem>> per_node;

  // Advances sub-query `i` to its next viable attempt via the shared
  // failover loop, then either hands the attempt to the transport (or to
  // `collect` during a batched scatter) and returns true, or exhausts
  // the attempts, records the loss, and returns false.
  auto try_dispatch = [&](size_t i,
                          std::vector<std::vector<BatchItem>>* collect) {
    Pending& s = subs[i];
    if (!s.started) {
      // The latency clock starts when the master first *processes* this
      // sub-query, not when the scatter loop began: a late-scattered
      // sub-query must not be charged its predecessors' dispatch work.
      s.started = true;
      s.t0 = std::chrono::steady_clock::now();
    }
    SubQueryFailover::Decision decision;
    while (s.failover.NextAttempt(decision)) {
      const uint32_t a = decision.attempt;
      const NodeId target = decision.target;

      if (target >= runtime->node_count()) {
        // A join raced this gather: the shared runtime predates the new
        // node, so the stale pool has no queue for it — yet the store is
        // live and may hold the only reachable copy while the migration
        // window is open. Read it directly (a fresh connection outside
        // the stale pool) instead of burning every attempt on
        // kUnavailable.
        runtime->AdvanceClock(query_id, decision.extra_latency_us);
        RecordDispatch(target);
        EnsureSlot(result.requests_per_node, target);
        EnsureSlot(result.probes_per_node, target);
        ++result.requests_per_node[target];
        ReadProbe probe;
        std::shared_ptr<LocalStore> store = NodePtr(target);
        auto found = store != nullptr
                         ? store->FindTable(plan.table)
                         : Result<Table*>(Status::Unavailable(
                               "node " + std::to_string(target) +
                               " has no store"));
        Result<OperatorResult> op = Status::NotFound(*s.failover.key);
        if (found.ok()) {
          op = ExecuteOperator(*found.value(), *s.failover.key, plan.op,
                               plan.arg_lo, plan.arg_hi, plan.arg_limit,
                               &probe);
          result.probes_per_node[target].MergeFrom(probe);
        } else {
          op = found.status();
        }
        if (op.ok()) {
          resolve(i, /*answered=*/true, &op.value());
          return false;  // settled here, nothing left in flight
        }
        if (op.status().code() == StatusCode::kNotFound) {
          resolve(i, /*answered=*/true, nullptr);  // authoritative miss
          return false;
        }
        s.failover.RecordError(target);
        continue;  // retryable: fail over like any transport error
      }

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
        (*collect)[target].push_back(
            {std::move(req), a, decision.extra_latency_us, i});
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
      const Status sent = runtime->Dispatch(
          query_id, target, std::span<const SubQueryRequest>(&req, 1),
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
  // when batching is on.
  size_t outstanding = 0;
  if (options.batch) per_node.resize(node_count());
  for (size_t i = 0; i < total; ++i) {
    ++result.subqueries;
    if (subqueries_counter_ != nullptr) subqueries_counter_->Increment();
    SpanTracer::Scope route;
    if (spans_ != nullptr) route = spans_->StartSpan("route", master_track());
    if (route.active()) {
      const std::vector<NodeId>& replicas = subs[i].failover.replicas;
      route.Attr("partition", *subs[i].failover.key);
      route.Attr("node",
                 std::to_string(replicas[options.replica % replicas.size()]));
      route.End();
    }
    if (try_dispatch(i, options.batch ? &per_node : nullptr) &&
        !options.batch) {
      ++outstanding;
    }
  }
  if (options.batch) {
    for (uint32_t n = 0; n < node_count(); ++n) {
      std::vector<BatchItem>& items = per_node[n];
      if (items.empty()) continue;
      std::vector<SubQueryRequest> requests;
      std::vector<uint32_t> attempts;
      std::vector<Micros> extras;
      requests.reserve(items.size());
      attempts.reserve(items.size());
      extras.reserve(items.size());
      for (BatchItem& item : items) {
        requests.push_back(std::move(item.request));
        attempts.push_back(item.attempt);
        extras.push_back(item.extra_latency_us);
      }
      // One dispatch span per coalesced sub-query: each starts its own
      // flow even though they all travelled in a single frame.
      std::vector<SpanTracer::Scope> dispatch_spans;
      if (sampled) {
        dispatch_spans.reserve(requests.size());
        for (size_t k = 0; k < requests.size(); ++k) {
          SpanTracer::Scope span = spans_->StartSpan("dispatch",
                                                     master_track());
          span.Attr("partition", requests[k].partition_key);
          span.Attr("node", std::to_string(n));
          span.Attr("attempt", std::to_string(attempts[k]));
          span.Attr("batched", "true");
          span.Flow(TraceFlowId(query_id, requests[k].sub_id, attempts[k]),
                    FlowPhase::kStart);
          dispatch_spans.push_back(std::move(span));
        }
      }
      const Status sent =
          runtime->Dispatch(query_id, n, requests, attempts, extras);
      for (SpanTracer::Scope& span : dispatch_spans) {
        if (!sent.ok()) span.Attr("refused", "true");
        span.End();
      }
      if (sent.ok()) {
        RecordDispatch(n, items.size());
        outstanding += items.size();
        continue;
      }
      // The whole frame was refused (kReject): every sub-query in it
      // fails over individually, unbatched.
      for (const BatchItem& item : items) {
        ++result.errors_per_node[n];
        if (errors_counter_ != nullptr) errors_counter_->Increment();
        if (try_dispatch(item.index, nullptr)) ++outstanding;
      }
    }
  }

  // Collect: decode reply frames as they land, folding answers and
  // failing unanswered sub-queries over until every one is settled. A
  // frame carries one reply per item of the request frame it answers.
  // AwaitReply only ever surfaces this query's replies — concurrent
  // gathers drain their own channels.
  while (outstanding > 0) {
    std::vector<NodeRuntime::DecodedReply> frame =
        runtime->AwaitReply(query_id);
    KV_CHECK(frame.size() <= outstanding);
    outstanding -= frame.size();
    for (NodeRuntime::DecodedReply& r : frame) {
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
        if (!timeline.empty()) {
          SubQueryTimelineEntry& entry = timeline[i];
          entry.node = r.node;
          entry.issued_us = r.issued_us;
          entry.received_us = r.received_us;
          entry.db_start_us = r.db_start_us;
          entry.db_end_us = r.db_end_us;
        }
        EnsureSlot(result.requests_per_node, r.node);
        EnsureSlot(result.probes_per_node, r.node);
        ++result.requests_per_node[r.node];
        result.probes_per_node[r.node].MergeFrom(r.probe);
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
          trace.completed = runtime->now_us();
          stage_tracer_->Record(trace);
        }
      }
      StatusCode code = StatusCode::kCorruption;  // unreadable reply frame
      if (r.reply.ok()) code = static_cast<StatusCode>(r.reply.value().status);
      if (code == StatusCode::kOk) {
        // The reply's paired u64 vectors are the operator's result
        // columns; hand them to the fold exactly as the direct path would.
        OperatorResult columns;
        columns.col_a = std::move(r.reply.value().type_ids);
        columns.col_b = std::move(r.reply.value().counts);
        resolve(i, /*answered=*/true, &columns);
      } else if (code == StatusCode::kNotFound) {
        // Authoritative miss, exactly as on the direct path.
        resolve(i, /*answered=*/true, nullptr);
      } else {
        // A shed (kResourceExhausted) is the deadline's doing, not the
        // node's: it retries without an error tally, and the deadline
        // check inside the failover loop settles its fate.
        if (code != StatusCode::kResourceExhausted) {
          subs[i].failover.RecordError(r.node);
        }
        if (try_dispatch(i, nullptr)) ++outstanding;
      }
    }
  }

  // Read the query's private accounting before releasing its slot.
  result.virtual_latency_us = runtime->clock_us(query_id);
  result.queue_wait_us = runtime->query_queue_wait_us(query_id);
  const NodeRuntime::WireStats wire = runtime->query_wire_stats(query_id);
  result.wire_frames_sent = wire.frames_sent;
  result.wire_bytes_sent = wire.bytes_sent;
  result.wire_bytes_received = wire.bytes_received;
  result.wire_encode_us = wire.encode_us;
  result.wire_decode_us = wire.decode_us;
  runtime->EndQuery(query_id);
  fold.Finish(result);
  FinalizeGatherAccounting(result);
  result.wall_us = ElapsedMicros(t0);
  RecordGather(query_id, plan.kind, plan.table, "message", result,
               std::move(timeline));
  return result;
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
            GatherMessage(plan, opts);
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
