// Tests for the message-driven node runtime and the message-transport
// gather: bounded-queue semantics, backpressure policies, codec/batch
// parity with the direct gather (healthy and under chaos), deadline
// sheds, in-flight reply corruption, and the real four-stage timestamps.
#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cluster/in_process_cluster.hpp"
#include "cluster/node_runtime.hpp"
#include "fault/fault_injector.hpp"
#include "store/row.hpp"
#include "telemetry/metrics_registry.hpp"
#include "trace/stage_trace.hpp"
#include "wire/messages.hpp"

namespace kvscale {
namespace {

/// Same loader the fault-injection suite uses: `partitions` partitions of
/// `columns` columns, five type ids, with the expected aggregation in
/// `truth`.
WorkloadSpec LoadUniform(InProcessCluster& cluster, int partitions,
                         int columns, TypeCounts* truth = nullptr) {
  WorkloadSpec workload;
  workload.table = "t";
  for (int part = 0; part < partitions; ++part) {
    const std::string key = "p" + std::to_string(part);
    for (int i = 0; i < columns; ++i) {
      Column c;
      c.clustering = i;
      c.type_id = i % 5;
      c.payload = MakePayload(part, i, 24);
      EXPECT_TRUE(cluster.Put("t", key, std::move(c)).ok());
      if (truth != nullptr) ++(*truth)[i % 5];
    }
    workload.partitions.push_back(
        PartitionRef{key, static_cast<uint32_t>(columns)});
  }
  return workload;
}

/// Field-by-field comparison of the accounting two gathers produced.
void ExpectSameAccounting(const GatherResult& a, const GatherResult& b,
                          const std::string& label) {
  EXPECT_EQ(a.totals, b.totals) << label;
  EXPECT_EQ(a.requests_per_node, b.requests_per_node) << label;
  EXPECT_EQ(a.errors_per_node, b.errors_per_node) << label;
  EXPECT_EQ(a.partitions_missing, b.partitions_missing) << label;
  EXPECT_EQ(a.subqueries, b.subqueries) << label;
  EXPECT_EQ(a.completed, b.completed) << label;
  EXPECT_EQ(a.failed, b.failed) << label;
  EXPECT_EQ(a.retries, b.retries) << label;
  EXPECT_EQ(a.hedged, b.hedged) << label;
  EXPECT_EQ(a.partial, b.partial) << label;
  EXPECT_EQ(a.lost_partitions, b.lost_partitions) << label;
  EXPECT_DOUBLE_EQ(a.virtual_latency_us, b.virtual_latency_us) << label;
}

// ---------------------------------------------------------------------------
// BoundedQueue

TEST(BoundedQueueTest, PushPopIsFifo) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(queue.Push(i));
  EXPECT_EQ(queue.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    auto item = queue.Pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);
  }
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedQueueTest, TryPushRejectsExactlyAtCapacity) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));  // full: deterministic, no consumer racing
  ASSERT_TRUE(queue.Pop().has_value());
  EXPECT_TRUE(queue.TryPush(4));  // one slot freed, one accepted again
}

TEST(BoundedQueueTest, BlockingPushWaitsForASlot) {
  BoundedQueue<int> queue(1);
  EXPECT_TRUE(queue.Push(1));
  std::thread producer([&] { EXPECT_TRUE(queue.Push(2)); });  // must block
  // The consumer drains both items; the producer can only finish if its
  // blocked Push was woken by the first Pop.
  EXPECT_EQ(queue.Pop().value(), 1);
  EXPECT_EQ(queue.Pop().value(), 2);
  producer.join();
}

TEST(BoundedQueueTest, CloseDrainsRemainingItemsThenSignalsEnd) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.Push(7));
  queue.Close();
  EXPECT_FALSE(queue.Push(8));     // closed: producers are refused
  EXPECT_FALSE(queue.TryPush(9));
  EXPECT_EQ(queue.Pop().value(), 7);        // the backlog still drains
  EXPECT_FALSE(queue.Pop().has_value());    // then the end is signalled
}

TEST(BoundedQueueTest, OnEnqueueHookRunsBeforeInsertion) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.Push(1, [](int& v) { v *= 10; }));
  EXPECT_TRUE(queue.TryPush(2, [](int& v) { v *= 10; }));
  EXPECT_EQ(queue.Pop().value(), 10);
  EXPECT_EQ(queue.Pop().value(), 20);
}

// ---------------------------------------------------------------------------
// NodeRuntime

TEST(NodeRuntimeTest, DispatchRoundTripsOneSubQuery) {
  CompactCodec registry;
  RegisterClusterMessages(registry);
  NodeRuntimeOptions options;
  NodeRuntime runtime(
      2, options,
      [](uint32_t, const SubQueryRequest& req, ReadProbe* probe)
          -> Result<OperatorResult> {
        probe->columns_returned = req.expected_elements;
        return OperatorResult{{3}, {req.expected_elements}};
      },
      registry, nullptr, nullptr, nullptr);
  ASSERT_TRUE(runtime.BeginQuery(42, NodeRuntime::QueryOptions{}).ok());

  SubQueryRequest req;
  req.query_id = 42;
  req.sub_id = 7;
  req.table = "t";
  req.partition_key = "p7";
  req.expected_elements = 11;
  const uint32_t attempt = 0;
  const Micros extra = 0.0;
  ASSERT_TRUE(runtime
                  .Dispatch(42, 1, std::span<const SubQueryRequest>(&req, 1),
                            std::span<const uint32_t>(&attempt, 1),
                            std::span<const Micros>(&extra, 1))
                  .ok());

  const std::vector<NodeRuntime::DecodedReply> frame = runtime.AwaitReply(42);
  ASSERT_EQ(frame.size(), 1u);  // one reply frame answers one request frame
  const NodeRuntime::DecodedReply& reply = frame.front();
  EXPECT_EQ(reply.node, 1u);
  EXPECT_EQ(reply.sub_id, 7u);
  EXPECT_TRUE(reply.store_read);
  ASSERT_TRUE(reply.reply.ok());
  EXPECT_EQ(reply.reply.value().status, 0u);
  ASSERT_EQ(reply.reply.value().type_ids.size(), 1u);
  EXPECT_EQ(reply.reply.value().type_ids[0], 3u);
  EXPECT_EQ(reply.reply.value().counts[0], 11u);
  EXPECT_EQ(reply.probe.columns_returned, 11u);
  // The five timestamps delimit the paper's four stages in order.
  EXPECT_LE(reply.issued_us, reply.received_us);
  EXPECT_LE(reply.received_us, reply.db_start_us);
  EXPECT_LE(reply.db_start_us, reply.db_end_us);

  const NodeRuntime::WireStats wire = runtime.wire_stats();
  EXPECT_EQ(wire.frames_sent, 1u);
  EXPECT_GT(wire.bytes_sent, 0u);
  EXPECT_GT(wire.bytes_received, 0u);
  // The query's private accounting matches: it was the only traffic.
  const NodeRuntime::WireStats own = runtime.query_wire_stats(42);
  EXPECT_EQ(own.frames_sent, wire.frames_sent);
  EXPECT_EQ(own.bytes_sent, wire.bytes_sent);
  EXPECT_EQ(own.bytes_received, wire.bytes_received);
  runtime.EndQuery(42);
  EXPECT_EQ(runtime.inflight_queries(), 0u);
}

TEST(NodeRuntimeTest, RejectPolicyShedsWhenQueueAndWorkerAreBusy) {
  CompactCodec registry;
  RegisterClusterMessages(registry);
  std::latch worker_started(1);
  std::latch release_worker(1);
  NodeRuntimeOptions options;
  options.queue_depth = 1;
  options.workers_per_node = 1;
  options.on_queue_full = QueueFullPolicy::kReject;
  NodeRuntime runtime(
      1, options,
      [&](uint32_t, const SubQueryRequest& req, ReadProbe*)
          -> Result<OperatorResult> {
        if (req.sub_id == 0) {
          worker_started.count_down();
          release_worker.wait();
        }
        return OperatorResult{};
      },
      registry, nullptr, nullptr, nullptr);
  ASSERT_TRUE(runtime.BeginQuery(9, NodeRuntime::QueryOptions{}).ok());

  auto dispatch_one = [&](uint32_t sub_id) {
    SubQueryRequest req;
    req.query_id = 9;
    req.sub_id = sub_id;
    req.table = "t";
    req.partition_key = "p" + std::to_string(sub_id);
    const uint32_t attempt = 0;
    const Micros extra = 0.0;
    return runtime.Dispatch(9, 0, std::span<const SubQueryRequest>(&req, 1),
                            std::span<const uint32_t>(&attempt, 1),
                            std::span<const Micros>(&extra, 1));
  };

  ASSERT_TRUE(dispatch_one(0).ok());
  worker_started.wait();  // the only worker now holds sub 0, queue empty
  ASSERT_TRUE(dispatch_one(1).ok());  // fills the depth-1 queue
  const Status rejected = dispatch_one(2);
  ASSERT_FALSE(rejected.ok());  // deterministically full
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);

  release_worker.count_down();
  for (int frame = 0; frame < 2; ++frame) {
    const std::vector<NodeRuntime::DecodedReply> replies =
        runtime.AwaitReply(9);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_TRUE(replies.front().reply.ok());
  }
  EXPECT_EQ(runtime.wire_stats().frames_sent, 2u);  // the reject sent nothing
  runtime.EndQuery(9);
}

// A frame is the unit of work on both sides: one binding per request
// frame, every item served through it, and one reply frame back holding
// one reply per item in dispatch order.
TEST(NodeRuntimeTest, OneReplyFrameAnswersABatchedFrame) {
  CompactCodec registry;
  RegisterClusterMessages(registry);
  std::atomic<int> bindings{0};
  NodeRuntime runtime(
      2, NodeRuntimeOptions{},
      [&](uint32_t node, const std::string& table) -> ItemServer {
        ++bindings;
        EXPECT_EQ(node, 1u);
        EXPECT_EQ(table, "t");
        return [](const SubQueryRequest& req, ReadProbe*)
                   -> Result<OperatorResult> {
          if (req.sub_id == 3) return Status::NotFound(req.partition_key);
          return OperatorResult{{req.sub_id}, {req.expected_elements}};
        };
      },
      registry, nullptr, nullptr, nullptr);
  ASSERT_TRUE(runtime.BeginQuery(5, NodeRuntime::QueryOptions{}).ok());

  std::vector<SubQueryRequest> requests(5);
  std::vector<uint32_t> attempts = {0, 1, 0, 2, 0};
  std::vector<Micros> extras(5, 0.0);
  for (uint32_t i = 0; i < 5; ++i) {
    requests[i].query_id = 5;
    requests[i].sub_id = i;
    requests[i].table = "t";
    requests[i].partition_key = "p" + std::to_string(i);
    requests[i].expected_elements = 10 + i;
  }
  ASSERT_TRUE(runtime.Dispatch(5, 1, requests, attempts, extras).ok());

  const std::vector<NodeRuntime::DecodedReply> frame = runtime.AwaitReply(5);
  ASSERT_EQ(frame.size(), 5u);
  EXPECT_EQ(bindings.load(), 1);  // store and table resolved once
  for (uint32_t i = 0; i < 5; ++i) {
    const NodeRuntime::DecodedReply& r = frame[i];
    EXPECT_EQ(r.node, 1u);
    EXPECT_EQ(r.sub_id, i);
    EXPECT_EQ(r.attempt, attempts[i]);
    EXPECT_TRUE(r.store_read);
    ASSERT_TRUE(r.reply.ok());
    EXPECT_EQ(r.reply.value().sub_id, i);
    EXPECT_EQ(r.issued_us, frame[0].issued_us);  // the frame's stamps
    EXPECT_EQ(r.received_us, frame[0].received_us);
    EXPECT_LE(r.received_us, r.db_start_us);
    EXPECT_LE(r.db_start_us, r.db_end_us);
    if (i > 0) {
      EXPECT_LE(frame[i - 1].db_end_us, r.db_start_us);  // served in order
    }
    if (i == 3) {
      EXPECT_EQ(r.reply.value().status,
                static_cast<uint32_t>(StatusCode::kNotFound));
      continue;
    }
    EXPECT_EQ(r.reply.value().status, 0u);
    EXPECT_EQ(r.reply.value().type_ids, (std::vector<uint64_t>{i}));
    EXPECT_EQ(r.reply.value().counts, (std::vector<uint64_t>{10 + i}));
  }
  // One request frame out, one reply frame back.
  const NodeRuntime::WireStats wire = runtime.query_wire_stats(5);
  EXPECT_EQ(wire.frames_sent, 1u);
  EXPECT_GT(wire.bytes_received, 0u);
  runtime.EndQuery(5);
}

// Liveness is checked once, when a worker dequeues a frame: a node killed
// while a frame waits in its queue bounces every item of that frame with
// kUnavailable, and none of them reaches the store.
TEST(NodeRuntimeTest, KillWhileQueuedBouncesEveryItemOfTheFrame) {
  CompactCodec registry;
  RegisterClusterMessages(registry);
  FaultInjector injector;
  std::latch worker_started(1);
  std::latch release_worker(1);
  std::atomic<int> served{0};
  NodeRuntime runtime(
      1, NodeRuntimeOptions{},
      [&](uint32_t, const SubQueryRequest& req, ReadProbe*)
          -> Result<OperatorResult> {
        ++served;
        if (req.sub_id == 0) {
          worker_started.count_down();
          release_worker.wait();
        }
        return OperatorResult{};
      },
      registry, &injector, nullptr, nullptr);
  ASSERT_TRUE(runtime.BeginQuery(3, NodeRuntime::QueryOptions{}).ok());

  auto dispatch = [&](std::vector<uint32_t> sub_ids) {
    std::vector<SubQueryRequest> requests(sub_ids.size());
    for (size_t i = 0; i < sub_ids.size(); ++i) {
      requests[i].query_id = 3;
      requests[i].sub_id = sub_ids[i];
      requests[i].table = "t";
    }
    const std::vector<uint32_t> attempts(sub_ids.size(), 0);
    const std::vector<Micros> extras(sub_ids.size(), 0.0);
    return runtime.Dispatch(3, 0, requests, attempts, extras);
  };
  ASSERT_TRUE(dispatch({0}).ok());
  worker_started.wait();  // the only worker holds frame {0}
  ASSERT_TRUE(dispatch({1, 2, 3}).ok());
  injector.KillNode(0);  // dies while frame {1, 2, 3} is queued
  release_worker.count_down();

  const auto first = runtime.AwaitReply(3);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_TRUE(first.front().store_read);  // dequeued before the kill
  const auto second = runtime.AwaitReply(3);
  ASSERT_EQ(second.size(), 3u);
  for (const NodeRuntime::DecodedReply& r : second) {
    EXPECT_FALSE(r.store_read);
    ASSERT_TRUE(r.reply.ok());
    EXPECT_EQ(r.reply.value().status,
              static_cast<uint32_t>(StatusCode::kUnavailable));
  }
  EXPECT_EQ(served.load(), 1);
  runtime.EndQuery(3);
}

// ---------------------------------------------------------------------------
// Message-transport gather: parity with the direct path

TEST(MessageGatherTest, HealthyRunMatchesDirectAcrossCodecsAndBatching) {
  InProcessCluster cluster(4, PlacementKind::kDhtRandom, StoreOptions{}, 7,
                           2);
  TypeCounts truth;
  const WorkloadSpec workload = LoadUniform(cluster, 48, 12, &truth);
  cluster.FlushAll();

  const GatherResult direct = cluster.CountByTypeAll(workload);
  ASSERT_EQ(direct.totals, truth);

  for (const WireCodecKind codec :
       {WireCodecKind::kTagged, WireCodecKind::kCompact}) {
    for (const bool batch : {false, true}) {
      for (const uint32_t workers : {1u, 3u}) {
        GatherOptions options;
        options.transport = GatherTransport::kMessage;
        options.codec = codec;
        options.batch = batch;
        options.workers_per_node = workers;
        const GatherResult message = cluster.CountByTypeAll(workload, options);
        const std::string label = std::string(WireCodecName(codec)) +
                                  (batch ? "/batch" : "/single") + "/w" +
                                  std::to_string(workers);
        ExpectSameAccounting(message, direct, label);
        EXPECT_GT(message.wire_frames_sent, 0u) << label;
        EXPECT_GT(message.wire_bytes_sent, 0u) << label;
        EXPECT_GT(message.wire_bytes_received, 0u) << label;
      }
    }
  }
}

// The PR 2 headline chaos scenario (replication 3, one dead node, 1%
// injected errors, one corrupted block) executed over real encoded
// messages must land on the exact healthy answer with the exact same
// accounting as the direct failover path.
TEST(MessageGatherTest, ChaosRunMatchesDirectBitForBit) {
  InProcessCluster cluster(6, PlacementKind::kDhtRandom, StoreOptions{}, 7,
                           3);
  TypeCounts truth;
  const WorkloadSpec workload = LoadUniform(cluster, 60, 30, &truth);
  cluster.FlushAll();

  FaultConfig config;
  config.seed = 1234;
  config.read_error_rate = 0.01;
  FaultInjector injector(config);
  cluster.AttachFaultInjector(&injector);
  cluster.KillNode(1);
  auto table = cluster.node(0).FindTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(table.value()->CorruptBlockForFaultInjection(0, 0, 12345).ok());

  GatherOptions direct_options;
  direct_options.max_attempts = 4;
  const GatherResult direct = cluster.CountByTypeAll(workload, direct_options);
  ASSERT_EQ(direct.totals, truth);
  ASSERT_GT(direct.retries, 0u);

  GatherOptions message_options = direct_options;
  message_options.transport = GatherTransport::kMessage;
  message_options.codec = WireCodecKind::kCompact;
  message_options.batch = true;
  const GatherResult message =
      cluster.CountByTypeAll(workload, message_options);

  EXPECT_EQ(message.totals, truth);
  ExpectSameAccounting(message, direct, "chaos compact/batch");
  EXPECT_GT(message.errors_per_node[1], 0u);  // the dead node was tried
  // Batching coalesced the scatter: far fewer frames than sub-queries.
  EXPECT_LT(message.wire_frames_sent,
            message.subqueries + message.retries);
}

TEST(MessageGatherTest, HedgedSpikyRunMatchesDirect) {
  InProcessCluster cluster(4, PlacementKind::kDhtRandom, StoreOptions{}, 7,
                           2);
  TypeCounts truth;
  const WorkloadSpec workload = LoadUniform(cluster, 60, 6, &truth);
  cluster.FlushAll();

  FaultConfig config;
  config.seed = 9;
  config.latency_spike_rate = 0.3;
  config.latency_spike_us = 10.0 * kMillisecond;
  FaultInjector injector(config);
  cluster.AttachFaultInjector(&injector);

  GatherOptions direct_options;
  direct_options.hedge = true;
  direct_options.hedge_threshold_us = 1.0 * kMillisecond;
  const GatherResult direct = cluster.CountByTypeAll(workload, direct_options);
  ASSERT_GT(direct.hedged, 0u);

  GatherOptions message_options = direct_options;
  message_options.transport = GatherTransport::kMessage;
  const GatherResult message =
      cluster.CountByTypeAll(workload, message_options);
  EXPECT_EQ(message.totals, truth);
  ExpectSameAccounting(message, direct, "hedged spiky");
}

TEST(MessageGatherTest, ParallelDelegatesToWorkerPoolsAndMatches) {
  InProcessCluster cluster(4, PlacementKind::kDhtRandom, StoreOptions{}, 7,
                           2);
  const WorkloadSpec workload = LoadUniform(cluster, 50, 12);
  cluster.FlushAll();

  FaultConfig config;
  config.seed = 555;
  config.read_error_rate = 0.05;
  FaultInjector injector(config);
  cluster.AttachFaultInjector(&injector);
  cluster.KillNode(3);

  GatherOptions options;
  options.max_attempts = 3;
  options.transport = GatherTransport::kMessage;
  const GatherResult serial = cluster.CountByTypeAll(workload, options);
  const GatherResult parallel =
      cluster.CountByTypeAllParallel(workload, 4, options);
  ExpectSameAccounting(parallel, serial, "parallel message");
}

// ---------------------------------------------------------------------------
// Backpressure, deadline sheds, reply corruption

TEST(MessageGatherTest, BlockPolicyIsLosslessUnderATinyQueue) {
  InProcessCluster cluster(2, PlacementKind::kDhtRandom, StoreOptions{}, 7);
  TypeCounts truth;
  const WorkloadSpec workload = LoadUniform(cluster, 80, 4, &truth);
  cluster.FlushAll();

  GatherOptions options;
  options.transport = GatherTransport::kMessage;
  options.queue_depth = 1;  // the master must block on nearly every send
  options.queue_policy = QueueFullPolicy::kBlock;
  const GatherResult result = cluster.CountByTypeAll(workload, options);
  EXPECT_EQ(result.totals, truth);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.completed + result.failed, result.subqueries);
}

TEST(MessageGatherTest, RejectPolicyKeepsTheAccountingInvariant) {
  InProcessCluster cluster(1, PlacementKind::kDhtRandom, StoreOptions{}, 7);
  TypeCounts truth;
  const WorkloadSpec workload = LoadUniform(cluster, 400, 2, &truth);
  cluster.FlushAll();

  GatherOptions options;
  options.transport = GatherTransport::kMessage;
  options.queue_depth = 1;
  options.queue_policy = QueueFullPolicy::kReject;
  options.max_attempts = 2;
  const GatherResult result = cluster.CountByTypeAll(workload, options);
  // How many sends bounce depends on scheduling, but the degraded-result
  // report must balance exactly and name every loss.
  EXPECT_EQ(result.completed + result.failed, result.subqueries);
  EXPECT_EQ(result.lost_partitions.size(), result.failed);
  EXPECT_EQ(result.partial, result.failed > 0);
  if (result.failed == 0) {
    EXPECT_EQ(result.totals, truth);
  }
}

TEST(MessageGatherTest, DeadlineExpiryWhileEnqueuedShedsDeterministically) {
  InProcessCluster cluster(1, PlacementKind::kDhtRandom, StoreOptions{}, 7);
  const WorkloadSpec workload = LoadUniform(cluster, 10, 4);
  cluster.FlushAll();

  // Every served request charges 10 ms of virtual latency against a 1 ms
  // deadline: with one worker and one batched frame, the first request
  // completes and burns the budget, and everything behind it in the
  // queue is shed without touching the store.
  FaultConfig config;
  config.latency_spike_rate = 1.0;
  config.latency_spike_us = 10.0 * kMillisecond;
  FaultInjector injector(config);
  cluster.AttachFaultInjector(&injector);

  GatherOptions options;
  options.transport = GatherTransport::kMessage;
  options.batch = true;
  options.workers_per_node = 1;
  options.max_attempts = 1;
  options.deadline_us = 1.0 * kMillisecond;
  const GatherResult result = cluster.CountByTypeAll(workload, options);

  EXPECT_EQ(result.completed, 1u);
  EXPECT_EQ(result.failed, workload.partitions.size() - 1);
  EXPECT_TRUE(result.partial);
  EXPECT_EQ(result.lost_partitions.size(), result.failed);
  EXPECT_EQ(result.completed + result.failed, result.subqueries);
  // The shed requests never reached the store.
  EXPECT_EQ(result.requests_per_node[0], 1u);
  // Exactly the first scattered partition survived.
  for (const std::string& lost : result.lost_partitions) {
    EXPECT_NE(lost, workload.partitions[0].key);
  }
}

TEST(MessageGatherTest, CorruptedRepliesAreDetectedAndFailedOver) {
  InProcessCluster cluster(3, PlacementKind::kDhtRandom, StoreOptions{}, 7,
                           2);
  TypeCounts truth;
  const WorkloadSpec workload = LoadUniform(cluster, 40, 8, &truth);
  cluster.FlushAll();

  FaultConfig config;
  config.seed = 4242;
  config.reply_corrupt_rate = 0.25;
  FaultInjector injector(config);
  cluster.AttachFaultInjector(&injector);

  GatherOptions options;
  options.transport = GatherTransport::kMessage;
  options.max_attempts = 6;
  const GatherResult result = cluster.CountByTypeAll(workload, options);

  EXPECT_GT(injector.corrupted_replies(), 0u);  // the fault really fired
  EXPECT_EQ(result.totals, truth);  // and the master routed around it
  EXPECT_EQ(result.failed, 0u);
  EXPECT_GT(result.retries, 0u);
  uint64_t errors = 0;
  for (const uint64_t e : result.errors_per_node) errors += e;
  EXPECT_GT(errors, 0u);
  // The direct path never consults the reply injection point.
  const uint64_t before = injector.corrupted_replies();
  const GatherResult direct = cluster.CountByTypeAll(workload);
  EXPECT_EQ(direct.totals, truth);
  EXPECT_EQ(direct.retries, 0u);
  EXPECT_EQ(injector.corrupted_replies(), before);
}

// Reply corruption is frame-granular once a frame carries many replies:
// one firing item's decision spoils the whole reply frame, and every item
// it carried fails over and is tallied as an error on the node that
// served it. The expected tallies are replayed from a twin injector: the
// first-round frames are one per node (each partition's primary), and
// every retry travels alone.
TEST(MessageGatherTest, BatchedCorruptedRepliesFailOverPerFrame) {
  InProcessCluster cluster(3, PlacementKind::kDhtRandom, StoreOptions{}, 7,
                           2);
  TypeCounts truth;
  const WorkloadSpec workload = LoadUniform(cluster, 40, 8, &truth);
  cluster.FlushAll();

  FaultConfig config;
  config.seed = 4242;
  config.reply_corrupt_rate = 0.1;
  FaultInjector injector(config);
  cluster.AttachFaultInjector(&injector);
  const FaultInjector twin(config);
  const uint32_t max_attempts = 8;

  // First round: a node's frame is corrupted when any of its items fires.
  std::vector<bool> frame_corrupted(cluster.node_count(), false);
  uint64_t fired = 0;
  for (const PartitionRef& part : workload.partitions) {
    const NodeId primary = cluster.ReplicasOf(part.key)[0];
    if (twin.ShouldCorruptReply(primary, part.key, 0)) {
      frame_corrupted[primary] = true;
      ++fired;
    }
  }
  std::vector<uint64_t> expected_errors(cluster.node_count(), 0);
  uint64_t expected_retries = 0;
  for (const PartitionRef& part : workload.partitions) {
    const std::vector<NodeId> replicas = cluster.ReplicasOf(part.key);
    if (!frame_corrupted[replicas[0]]) continue;
    ++expected_errors[replicas[0]];
    // Retries are single-item frames: each fails only on its own draw.
    for (uint32_t a = 1; a < max_attempts; ++a) {
      ++expected_retries;
      const NodeId target = replicas[a % replicas.size()];
      if (!twin.ShouldCorruptReply(target, part.key, a)) break;
      ++fired;
      ++expected_errors[target];
    }
  }
  uint64_t expected_total = 0;
  for (const uint64_t e : expected_errors) expected_total += e;
  // The scenario must exercise frame granularity: more items failed over
  // than item-level decisions fired.
  ASSERT_GT(expected_total, fired);

  GatherOptions options;
  options.transport = GatherTransport::kMessage;
  options.batch = true;
  options.max_attempts = max_attempts;
  const GatherResult result = cluster.CountByTypeAll(workload, options);

  EXPECT_EQ(result.totals, truth);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.errors_per_node, expected_errors);
  EXPECT_EQ(result.retries, expected_retries);
  EXPECT_EQ(injector.corrupted_replies(), fired);
}

// ---------------------------------------------------------------------------
// Telemetry: stage timestamps and wire instruments

TEST(MessageGatherTest, RecordsOrderedFourStageTimestamps) {
  InProcessCluster cluster(3, PlacementKind::kDhtRandom, StoreOptions{}, 7);
  const WorkloadSpec workload = LoadUniform(cluster, 30, 6);
  cluster.FlushAll();

  StageTracer stages;
  cluster.AttachStageTracer(&stages);
  GatherOptions options;
  options.transport = GatherTransport::kMessage;
  options.batch = true;
  const GatherResult result = cluster.CountByTypeAll(workload, options);
  ASSERT_EQ(result.failed, 0u);

  // One trace per sub-query that reached a store.
  ASSERT_EQ(stages.size(), workload.partitions.size());
  for (const RequestTrace& trace : stages.traces()) {
    EXPECT_LE(trace.issued, trace.received);
    EXPECT_LE(trace.received, trace.db_start);
    EXPECT_LE(trace.db_start, trace.db_end);
    EXPECT_LE(trace.db_end, trace.completed);
    EXPECT_GT(trace.keysize, 0.0);
  }
  EXPECT_GT(stages.Makespan(), 0.0);
  // Every stage has a defined summary over the run.
  for (const Stage stage :
       {Stage::kMasterToSlave, Stage::kInQueue, Stage::kInDb,
        Stage::kSlaveToMaster}) {
    EXPECT_EQ(stages.StageSummary(stage).count(),
              workload.partitions.size());
  }
  // The direct transport records no stages (nothing is queued or encoded).
  stages.Clear();
  cluster.CountByTypeAll(workload);
  EXPECT_EQ(stages.size(), 0u);
}

TEST(MessageGatherTest, ExportsWireCountersAndQueueGauges) {
  MetricsRegistry registry;
  InProcessCluster cluster(2, PlacementKind::kDhtRandom, StoreOptions{}, 7);
  cluster.AttachTelemetry(nullptr, &registry);
  const WorkloadSpec workload = LoadUniform(cluster, 20, 5);
  cluster.FlushAll();

  GatherOptions options;
  options.transport = GatherTransport::kMessage;
  const GatherResult result = cluster.CountByTypeAll(workload, options);

  EXPECT_EQ(registry.GetCounter("wire.bytes.sent").Value(),
            result.wire_bytes_sent);
  EXPECT_EQ(registry.GetCounter("wire.bytes.received").Value(),
            result.wire_bytes_received);
  EXPECT_EQ(registry.GetCounter("wire.frames.sent").Value(),
            result.wire_frames_sent);
  EXPECT_EQ(registry.GetHistogram("wire.encode.latency_us").Count(),
            result.wire_frames_sent + result.subqueries);  // + replies
  EXPECT_GT(registry.GetHistogram("wire.decode.latency_us").Count(), 0u);
  EXPECT_GT(registry.GetHistogram("cluster.queue.wait_us").Count(), 0u);
  // The per-node depth gauges exist (drained back to zero by the end).
  EXPECT_EQ(registry.GetGauge("cluster.queue.depth.node0").Value(), 0.0);
  EXPECT_EQ(registry.GetGauge("cluster.queue.depth.node1").Value(), 0.0);
}

// Batched: one request encode and one reply encode per frame — the reply
// side answers a frame with a frame, not with one frame per item.
TEST(MessageGatherTest, ExportsWireCountersAndQueueGaugesBatched) {
  MetricsRegistry registry;
  InProcessCluster cluster(2, PlacementKind::kDhtRandom, StoreOptions{}, 7);
  cluster.AttachTelemetry(nullptr, &registry);
  const WorkloadSpec workload = LoadUniform(cluster, 20, 5);
  cluster.FlushAll();

  GatherOptions options;
  options.transport = GatherTransport::kMessage;
  options.batch = true;
  const GatherResult result = cluster.CountByTypeAll(workload, options);
  ASSERT_EQ(result.failed, 0u);

  EXPECT_LT(result.wire_frames_sent, result.subqueries);  // coalesced
  EXPECT_EQ(registry.GetCounter("wire.frames.sent").Value(),
            result.wire_frames_sent);
  EXPECT_EQ(registry.GetCounter("wire.bytes.sent").Value(),
            result.wire_bytes_sent);
  EXPECT_EQ(registry.GetCounter("wire.bytes.received").Value(),
            result.wire_bytes_received);
  EXPECT_EQ(registry.GetHistogram("wire.encode.latency_us").Count(),
            2 * result.wire_frames_sent);
  EXPECT_EQ(registry.GetHistogram("wire.decode.latency_us").Count(),
            2 * result.wire_frames_sent);
  EXPECT_GT(registry.GetHistogram("cluster.queue.wait_us").Count(), 0u);
  EXPECT_EQ(registry.GetGauge("cluster.queue.depth.node0").Value(), 0.0);
  EXPECT_EQ(registry.GetGauge("cluster.queue.depth.node1").Value(), 0.0);
}

TEST(MessageGatherTest, TaggedCodecCostsMoreBytesThanCompact) {
  InProcessCluster cluster(2, PlacementKind::kDhtRandom, StoreOptions{}, 7);
  const WorkloadSpec workload = LoadUniform(cluster, 50, 4);
  cluster.FlushAll();

  GatherOptions tagged;
  tagged.transport = GatherTransport::kMessage;
  tagged.codec = WireCodecKind::kTagged;
  GatherOptions compact = tagged;
  compact.codec = WireCodecKind::kCompact;

  const GatherResult t = cluster.CountByTypeAll(workload, tagged);
  const GatherResult c = cluster.CountByTypeAll(workload, compact);
  EXPECT_EQ(t.totals, c.totals);
  // The Section V-B gap: self-describing frames dwarf registered-id ones.
  EXPECT_GT(t.wire_bytes_sent, 2 * c.wire_bytes_sent);
  EXPECT_GT(t.wire_bytes_received, c.wire_bytes_received);
}

}  // namespace
}  // namespace kvscale
