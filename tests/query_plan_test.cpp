// Tests for the generic query-plan engine: range scan, top-k, and
// D8tree box queries on the shared retry/hedge/admission gather loop,
// plus the legacy count-by-type wrappers' bit-identical parity.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>

#include "cluster/in_process_cluster.hpp"
#include "fault/fault_injector.hpp"
#include "store/row.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics_registry.hpp"
#include "workload/alya.hpp"
#include "workload/box_query.hpp"
#include "workload/d8tree.hpp"

namespace kvscale {
namespace {

/// Loads `keys` partitions of elements/keys columns each: clustering
/// j = 0..n-1, type j % 8 — the same shape the CLI's gather loads.
WorkloadSpec LoadUniform(InProcessCluster& cluster, uint64_t elements,
                         uint64_t keys, TypeCounts* truth = nullptr) {
  const WorkloadSpec workload = UniformWorkload(elements, keys, "t");
  uint64_t part_seed = 0;
  for (const PartitionRef& part : workload.partitions) {
    for (uint32_t j = 0; j < part.elements; ++j) {
      Column column;
      column.clustering = j;
      column.type_id = j % 8;
      column.payload = MakePayload(part_seed, j, 16);
      EXPECT_TRUE(cluster.Put("t", part.key, std::move(column)).ok());
      if (truth != nullptr) ++(*truth)[j % 8];
    }
    ++part_seed;
  }
  cluster.FlushAll();
  return workload;
}

/// Ground truth for a scan over the uniform workload: clustering j in
/// [lo, hi] appears once per partition, globally ascending, capped.
std::vector<QueryRow> ExpectedScan(const WorkloadSpec& workload, uint64_t lo,
                                   uint64_t hi, uint32_t limit) {
  std::vector<QueryRow> rows;
  const uint32_t per_part = workload.partitions.front().elements;
  for (uint64_t j = lo; j <= hi && j < per_part; ++j) {
    for (size_t p = 0; p < workload.partitions.size(); ++p) {
      rows.push_back(QueryRow{j, static_cast<uint32_t>(j % 8)});
    }
  }
  if (limit > 0 && rows.size() > limit) rows.resize(limit);
  return rows;
}

/// Ground truth for a global top-k: the k largest clustering keys,
/// descending, across every partition's identical 0..n-1 column set.
std::vector<QueryRow> ExpectedTopK(const WorkloadSpec& workload, uint32_t k) {
  std::vector<QueryRow> rows;
  const uint32_t per_part = workload.partitions.front().elements;
  for (uint64_t j = per_part; j-- > 0 && rows.size() < k;) {
    for (size_t p = 0; p < workload.partitions.size() && rows.size() < k;
         ++p) {
      rows.push_back(QueryRow{j, static_cast<uint32_t>(j % 8)});
    }
  }
  return rows;
}

void ExpectSameResult(const GatherResult& a, const GatherResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.totals, b.totals) << label;
  EXPECT_EQ(a.boundary_totals, b.boundary_totals) << label;
  EXPECT_EQ(a.rows, b.rows) << label;
  EXPECT_EQ(a.partitions_missing, b.partitions_missing) << label;
  EXPECT_EQ(a.subqueries, b.subqueries) << label;
  EXPECT_EQ(a.completed, b.completed) << label;
  EXPECT_EQ(a.failed, b.failed) << label;
  EXPECT_EQ(a.partial, b.partial) << label;
  EXPECT_EQ(a.lost_partitions, b.lost_partitions) << label;
  EXPECT_EQ(a.partitions_touched, b.partitions_touched) << label;
  EXPECT_EQ(a.partitions_pruned, b.partitions_pruned) << label;
}

/// The failover accounting two runs under the same faults must share.
void ExpectSameAccounting(const GatherResult& a, const GatherResult& b,
                          const std::string& label) {
  EXPECT_EQ(a.retries, b.retries) << label;
  EXPECT_EQ(a.hedged, b.hedged) << label;
  EXPECT_EQ(a.errors_per_node, b.errors_per_node) << label;
  EXPECT_EQ(a.requests_per_node, b.requests_per_node) << label;
  EXPECT_DOUBLE_EQ(a.virtual_latency_us, b.virtual_latency_us) << label;
}

// ---------------------------------------------------------------------------
// Plan construction

TEST(QueryPlanTest, KindNamesRoundTripAndRejectUnknown) {
  for (size_t k = 0; k < kQueryKindCount; ++k) {
    const QueryKind kind = static_cast<QueryKind>(k);
    auto parsed = ParseQueryKind(QueryKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_FALSE(ParseQueryKind("median").ok());
}

TEST(QueryPlanTest, FullTablePlansCoverEveryPartitionUnpruned) {
  const WorkloadSpec workload = UniformWorkload(100, 10, "t");
  for (const QueryPlan& plan :
       {MakeCountPlan(workload), MakeScanPlan(workload, ScanSpec{0, 99, 0}),
        MakeTopKPlan(workload, TopKSpec{3})}) {
    EXPECT_EQ(plan.partitions.size(), workload.partitions.size());
    EXPECT_EQ(plan.candidate_partitions, workload.partitions.size());
    EXPECT_EQ(plan.partitions_pruned, 0u);
    for (const PlanPartition& part : plan.partitions) {
      EXPECT_TRUE(part.fully_inside);
    }
  }
}

// ---------------------------------------------------------------------------
// Count: the legacy API is a thin wrapper over the shared engine

TEST(QueryPlanTest, CountWrapperIsBitIdenticalToTheGenericEngine) {
  InProcessCluster cluster(4, PlacementKind::kDhtRandom, StoreOptions{}, 7);
  TypeCounts truth;
  const WorkloadSpec workload = LoadUniform(cluster, 120, 24, &truth);

  const GatherResult wrapper = cluster.CountByTypeAll(workload);
  const GatherResult engine = cluster.Gather(MakeCountPlan(workload));
  EXPECT_EQ(wrapper.totals, truth);
  ExpectSameResult(wrapper, engine, "wrapper vs engine");
  EXPECT_EQ(wrapper.requests_per_node, engine.requests_per_node);
}

TEST(QueryPlanTest, CountWrapperParityHoldsUnderChaos) {
  // Two identically seeded clusters with identically seeded injectors
  // make the same deterministic fault decisions: the legacy wrapper and
  // the generic engine must degrade bit-identically under them.
  FaultConfig fault_config;
  fault_config.seed = 99;
  fault_config.read_error_rate = 0.05;
  GatherOptions options;
  options.max_attempts = 4;

  auto run = [&](bool use_wrapper) {
    InProcessCluster cluster(5, PlacementKind::kDhtRandom, StoreOptions{}, 7,
                             2);
    const WorkloadSpec workload = LoadUniform(cluster, 150, 30);
    FaultInjector injector(fault_config);
    cluster.AttachFaultInjector(&injector);
    cluster.KillNode(3);
    return use_wrapper ? cluster.CountByTypeAll(workload, options)
                       : cluster.Gather(MakeCountPlan(workload), options);
  };
  const GatherResult wrapper = run(true);
  const GatherResult engine = run(false);
  EXPECT_GT(wrapper.retries, 0u);  // the chaos actually bit
  EXPECT_EQ(wrapper.retries, engine.retries);
  EXPECT_EQ(wrapper.hedged, engine.hedged);
  EXPECT_EQ(wrapper.errors_per_node, engine.errors_per_node);
  ExpectSameResult(wrapper, engine, "chaos wrapper vs engine");
  // The shared accounting invariant: every sub-query is either
  // completed or failed, never dropped.
  EXPECT_EQ(wrapper.completed + wrapper.failed, wrapper.subqueries);
}

// ---------------------------------------------------------------------------
// Range scan

TEST(QueryPlanTest, ScanMatchesGroundTruthWithLimitsAndOrdering) {
  InProcessCluster cluster(4, PlacementKind::kDhtRandom, StoreOptions{}, 7);
  const WorkloadSpec workload = LoadUniform(cluster, 200, 10);  // 20/partition

  const GatherResult all =
      cluster.Gather(MakeScanPlan(workload, ScanSpec{5, 14, 0}));
  EXPECT_EQ(all.rows, ExpectedScan(workload, 5, 14, 0));
  EXPECT_EQ(all.rows.size(), 100u);  // 10 keys x 10 partitions
  EXPECT_TRUE(std::is_sorted(all.rows.begin(), all.rows.end(),
                             [](const QueryRow& a, const QueryRow& b) {
                               return a.clustering < b.clustering;
                             }));

  const GatherResult limited =
      cluster.Gather(MakeScanPlan(workload, ScanSpec{5, 14, 23}));
  EXPECT_EQ(limited.rows, ExpectedScan(workload, 5, 14, 23));
  EXPECT_EQ(limited.rows.size(), 23u);

  const GatherResult empty =
      cluster.Gather(MakeScanPlan(workload, ScanSpec{500, 900, 0}));
  EXPECT_TRUE(empty.rows.empty());
  EXPECT_EQ(empty.partitions_missing, 0u);  // partitions exist, range empty
}

TEST(QueryPlanTest, ScanDegradesLikeCountWhenDataIsLost) {
  InProcessCluster cluster(4, PlacementKind::kDhtRandom, StoreOptions{}, 7);
  const WorkloadSpec workload = LoadUniform(cluster, 80, 16);
  cluster.KillNode(1);  // replication 1: its partitions are unreachable

  const GatherResult result =
      cluster.Gather(MakeScanPlan(workload, ScanSpec{0, 100, 0}));
  EXPECT_TRUE(result.partial);
  EXPECT_GT(result.failed, 0u);
  EXPECT_EQ(result.lost_partitions.size(), result.failed);
  EXPECT_EQ(result.completed + result.failed, result.subqueries);
  // The surviving partitions' rows still come back, still sorted.
  EXPECT_EQ(result.rows.size(), result.completed * 5u);
}

// ---------------------------------------------------------------------------
// Top-k

TEST(QueryPlanTest, TopKMergesPerPartitionCandidatesDescending) {
  InProcessCluster cluster(4, PlacementKind::kDhtRandom, StoreOptions{}, 7);
  const WorkloadSpec workload = LoadUniform(cluster, 200, 10);  // 20/partition

  for (const uint32_t k : {1u, 7u, 25u}) {
    const GatherResult result =
        cluster.Gather(MakeTopKPlan(workload, TopKSpec{k}));
    EXPECT_EQ(result.rows, ExpectedTopK(workload, k)) << "k=" << k;
    EXPECT_EQ(result.rows.size(), k) << "k=" << k;
  }
  // k larger than the table: every row comes back, none invented.
  const GatherResult all =
      cluster.Gather(MakeTopKPlan(workload, TopKSpec{10000}));
  EXPECT_EQ(all.rows.size(), 200u);
}

// ---------------------------------------------------------------------------
// Transport x codec parity for the new query types

TEST(QueryPlanTest, ScanAndTopKAreTransportAndCodecInvariantUnderChaos) {
  FaultConfig fault_config;
  fault_config.seed = 321;
  fault_config.read_error_rate = 0.04;

  struct TransportCase {
    std::string label;
    GatherTransport transport;
    WireCodecKind codec;
    bool batch;
    uint32_t threads;  ///< 0 = Gather, else GatherParallel
  };
  const TransportCase cases[] = {
      {"direct", GatherTransport::kDirect, WireCodecKind::kCompact, false, 0},
      {"message-compact", GatherTransport::kMessage, WireCodecKind::kCompact,
       false, 0},
      {"message-tagged", GatherTransport::kMessage, WireCodecKind::kTagged,
       false, 0},
      {"message-batched", GatherTransport::kMessage, WireCodecKind::kCompact,
       true, 0},
      {"direct-parallel-2", GatherTransport::kDirect, WireCodecKind::kCompact,
       false, 2},
      {"direct-parallel-4", GatherTransport::kDirect, WireCodecKind::kCompact,
       false, 4},
      {"direct-parallel-7", GatherTransport::kDirect, WireCodecKind::kCompact,
       false, 7},
      {"message-batched-parallel-4", GatherTransport::kMessage,
       WireCodecKind::kCompact, true, 4},
  };
  for (const bool topk : {false, true}) {
    GatherResult baseline;
    for (const TransportCase& tc : cases) {
      InProcessCluster cluster(5, PlacementKind::kDhtRandom, StoreOptions{},
                               7, 2);
      const WorkloadSpec workload = LoadUniform(cluster, 150, 30);
      FaultInjector injector(fault_config);
      cluster.AttachFaultInjector(&injector);
      cluster.KillNode(2);

      GatherOptions options;
      options.max_attempts = 4;
      options.transport = tc.transport;
      options.codec = tc.codec;
      options.batch = tc.batch;
      const QueryPlan plan =
          topk ? MakeTopKPlan(workload, TopKSpec{9})
               : MakeScanPlan(workload, ScanSpec{1, 3, 40});
      const GatherResult result =
          tc.threads == 0 ? cluster.Gather(plan, options)
                          : cluster.GatherParallel(plan, tc.threads, options);
      EXPECT_FALSE(result.partial) << tc.label;  // replica 2 covered it
      if (tc.label == "direct") {
        baseline = result;
        EXPECT_FALSE(baseline.rows.empty());
        EXPECT_GT(baseline.retries, 0u);  // the chaos actually bit
      } else {
        ExpectSameResult(baseline, result,
                         (topk ? "topk " : "scan ") + tc.label);
        ExpectSameAccounting(baseline, result,
                             (topk ? "topk " : "scan ") + tc.label);
      }
    }
  }
}

TEST(QueryPlanTest, ParityHoldsAcrossARingEpochBump) {
  for (const bool message : {false, true}) {
    InProcessCluster cluster(4, PlacementKind::kDhtRandom, StoreOptions{}, 7,
                             2);
    const WorkloadSpec workload = LoadUniform(cluster, 120, 24);
    const GatherResult before =
        cluster.Gather(MakeScanPlan(workload, ScanSpec{0, 2, 0}));

    // A join mid-life: ownership moves, the ring epoch bumps, and the
    // same plan must read the same rows through the new routing.
    auto joined = cluster.AddNode();
    ASSERT_TRUE(joined.ok());
    ASSERT_GE(cluster.ring_epoch(), 1u);

    GatherOptions options;
    options.transport =
        message ? GatherTransport::kMessage : GatherTransport::kDirect;
    const GatherResult after =
        cluster.Gather(MakeScanPlan(workload, ScanSpec{0, 2, 0}), options);
    EXPECT_EQ(before.rows, after.rows) << (message ? "message" : "direct");
    EXPECT_FALSE(after.partial);
  }
}

// ---------------------------------------------------------------------------
// D8tree box queries: partition pruning

class BoxQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AlyaParams params;
    params.particles = 6000;
    params.seed = 17;
    particles_ = GenerateAlyaParticles(params);
    tree_.emplace(particles_, 4);
    cluster_.emplace(4, PlacementKind::kDhtRandom, StoreOptions{},
                     uint64_t{7}, 2u);
    for (const D8Tree::CubeRef& cube : tree_->AllCubes()) {
      const std::string key = CubeKey(cube.level, cube.morton);
      for (const uint64_t id : tree_->CubeParticles(cube.level, cube.morton)) {
        Column column;
        column.clustering = id;
        column.type_id = particles_[id].type;
        column.payload = MakePayload(cube.morton, id, kParticlePayloadBytes);
        ASSERT_TRUE(cluster_->Put("cubes", key, std::move(column)).ok());
      }
    }
    cluster_->FlushAll();
  }

  std::vector<Particle> particles_;
  std::optional<D8Tree> tree_;
  std::optional<InProcessCluster> cluster_;
};

TEST_F(BoxQueryTest, BoxPlanPrunesAndCountsMatchTheTree) {
  const D8Tree::Box box{0.2f, 0.2f, 0.2f, 0.65f, 0.65f, 0.65f};
  const QueryPlan plan = MakeBoxPlan(*tree_, "cubes", box, 64);

  // Pruning is the point: the plan must route to strictly fewer
  // partitions than the table holds, and account for every candidate.
  ASSERT_FALSE(plan.partitions.empty());
  EXPECT_LT(plan.partitions.size(), tree_->AllCubes().size());
  EXPECT_EQ(plan.partitions.size() + plan.partitions_pruned,
            plan.candidate_partitions);
  EXPECT_EQ(plan.candidate_partitions, tree_->AllCubes().size());

  const GatherResult result = cluster_->Gather(plan);
  EXPECT_FALSE(result.partial);
  EXPECT_EQ(result.partitions_missing, 0u);
  EXPECT_EQ(result.partitions_touched, plan.partitions.size());
  EXPECT_EQ(result.partitions_pruned, plan.partitions_pruned);
  EXPECT_LT(result.partitions_touched,
            static_cast<uint64_t>(tree_->AllCubes().size()));

  // Interior totals are exact; boundary totals bound the filtering work:
  // interior <= true answer <= interior + boundary.
  uint64_t interior = 0, boundary = 0;
  for (const auto& [type, count] : result.totals) interior += count;
  for (const auto& [type, count] : result.boundary_totals) boundary += count;
  const uint64_t truth = tree_->BoxQueryBruteForce(box).size();
  EXPECT_LE(interior, truth);
  EXPECT_LE(truth, interior + boundary);
  EXPECT_GT(interior, 0u);

  // Per-type interior counts match counting the interior cubes by hand.
  TypeCounts interior_truth;
  for (const D8Tree::PlanEntry& entry : tree_->BoxQueryPlan(box, 64)) {
    if (!entry.fully_inside) continue;
    for (const uint64_t id :
         tree_->CubeParticles(entry.cube.level, entry.cube.morton)) {
      ++interior_truth[particles_[id].type];
    }
  }
  EXPECT_EQ(result.totals, interior_truth);
}

TEST_F(BoxQueryTest, BoxIsTransportInvariantAndSurvivesChaos) {
  const D8Tree::Box box{0.1f, 0.3f, 0.1f, 0.7f, 0.8f, 0.6f};
  const QueryPlan plan = MakeBoxPlan(*tree_, "cubes", box, 64);

  const GatherResult direct = cluster_->Gather(plan);

  FaultConfig fault_config;
  fault_config.seed = 55;
  fault_config.read_error_rate = 0.05;
  FaultInjector injector(fault_config);
  cluster_->AttachFaultInjector(&injector);
  cluster_->KillNode(1);

  GatherOptions options;
  options.max_attempts = 4;
  options.transport = GatherTransport::kMessage;
  const GatherResult message = cluster_->Gather(plan, options);
  EXPECT_GT(message.retries, 0u);  // chaos was live, replica 2 absorbed it
  ExpectSameResult(direct, message, "box direct vs message under chaos");
}

// ---------------------------------------------------------------------------
// Telemetry: per-kind counters and flight-recorder tags

TEST(QueryPlanTest, QueryKindReachesCountersAndFlightRecorder) {
  MetricsRegistry registry;
  FlightRecorder recorder{FlightRecorder::Options{}};
  InProcessCluster cluster(3, PlacementKind::kDhtRandom, StoreOptions{}, 7);
  cluster.AttachTelemetry(nullptr, &registry);
  cluster.AttachFlightRecorder(&recorder);
  const WorkloadSpec workload = LoadUniform(cluster, 60, 12);

  cluster.Gather(MakeCountPlan(workload));
  cluster.Gather(MakeScanPlan(workload, ScanSpec{0, 4, 0}));
  cluster.Gather(MakeTopKPlan(workload, TopKSpec{3}));
  GatherOptions message;
  message.transport = GatherTransport::kMessage;
  cluster.Gather(MakeTopKPlan(workload, TopKSpec{3}), message);

  EXPECT_EQ(registry.GetCounter("cluster.query.count").Value(), 1u);
  EXPECT_EQ(registry.GetCounter("cluster.query.scan").Value(), 1u);
  EXPECT_EQ(registry.GetCounter("cluster.query.topk").Value(), 2u);
  EXPECT_EQ(registry.GetCounter("cluster.query.box").Value(), 0u);

  // Every Put during the load deposited a "put" record; the four gathers
  // follow them in issue order.
  const auto all = recorder.snapshot();
  ASSERT_EQ(all.size(), 64u);  // 60 puts + 4 gathers
  std::vector<QueryRecord> records;
  for (const QueryRecord& record : all) {
    if (record.query_kind != "put") records.push_back(record);
  }
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].query_kind, "count");
  EXPECT_EQ(records[1].query_kind, "scan");
  EXPECT_EQ(records[2].query_kind, "topk");
  EXPECT_EQ(records[3].query_kind, "topk");
  EXPECT_EQ(records[3].transport, "message");
  EXPECT_NE(recorder.ToJsonl().find("\"query_kind\":\"scan\""),
            std::string::npos);
}

}  // namespace
}  // namespace kvscale
