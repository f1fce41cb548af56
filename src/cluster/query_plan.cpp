#include "cluster/query_plan.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace kvscale {

std::string_view QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kCount:
      return "count";
    case QueryKind::kScan:
      return "scan";
    case QueryKind::kTopK:
      return "topk";
    case QueryKind::kBox:
      return "box";
  }
  return "unknown";
}

Result<QueryKind> ParseQueryKind(std::string_view name) {
  if (name == "count") return QueryKind::kCount;
  if (name == "scan") return QueryKind::kScan;
  if (name == "topk") return QueryKind::kTopK;
  if (name == "box") return QueryKind::kBox;
  return Status::InvalidArgument("unknown query kind '" + std::string(name) +
                                 "' (expected count|scan|topk|box)");
}

namespace {

/// The no-pruning selector shared by count/scan/topk: every workload
/// partition is a target and a candidate.
QueryPlan PlanOverAllPartitions(QueryKind kind, const WorkloadSpec& workload) {
  QueryPlan plan;
  plan.kind = kind;
  plan.table = workload.table;
  plan.partitions.reserve(workload.partitions.size());
  for (const PartitionRef& part : workload.partitions) {
    plan.partitions.push_back(PlanPartition{part, /*fully_inside=*/true});
  }
  plan.candidate_partitions = plan.partitions.size();
  plan.partitions_pruned = 0;
  return plan;
}

}  // namespace

QueryPlan MakeCountPlan(const WorkloadSpec& workload) {
  QueryPlan plan = PlanOverAllPartitions(QueryKind::kCount, workload);
  plan.op = kOpCountByType;
  return plan;
}

QueryPlan MakeScanPlan(const WorkloadSpec& workload, const ScanSpec& spec) {
  QueryPlan plan = PlanOverAllPartitions(QueryKind::kScan, workload);
  plan.op = kOpRangeScan;
  plan.arg_lo = spec.start;
  plan.arg_hi = spec.end;
  plan.arg_limit = spec.limit;
  plan.final_limit = spec.limit;
  return plan;
}

QueryPlan MakeTopKPlan(const WorkloadSpec& workload, const TopKSpec& spec) {
  QueryPlan plan = PlanOverAllPartitions(QueryKind::kTopK, workload);
  plan.op = kOpTopK;
  plan.arg_limit = spec.k;
  plan.final_limit = spec.k;
  return plan;
}

PlanFold::PlanFold(const QueryPlan& plan) : plan_(&plan) {
  if (plan.kind == QueryKind::kScan || plan.kind == QueryKind::kTopK) {
    // One pre-sized slot per sub-query, filled as each one settles, in
    // whatever order the replies arrive.
    rows_.resize(plan.partitions.size());
  }
}

void PlanFold::Accept(size_t sub_index, std::span<const uint64_t> col_a,
                      std::span<const uint64_t> col_b, GatherResult& out) {
  KV_DCHECK(sub_index < plan_->partitions.size());
  switch (plan_->kind) {
    case QueryKind::kCount:
      for (size_t k = 0; k < col_a.size(); ++k) {
        out.totals[static_cast<uint32_t>(col_a[k])] +=
            k < col_b.size() ? col_b[k] : 0;
      }
      break;
    case QueryKind::kBox: {
      // Interior cubes are exact; boundary cubes straddle the box and the
      // client filters their elements — keep the two folds apart.
      TypeCounts& dest = plan_->partitions[sub_index].fully_inside
                             ? out.totals
                             : out.boundary_totals;
      for (size_t k = 0; k < col_a.size(); ++k) {
        dest[static_cast<uint32_t>(col_a[k])] +=
            k < col_b.size() ? col_b[k] : 0;
      }
      break;
    }
    case QueryKind::kScan:
    case QueryKind::kTopK: {
      std::vector<QueryRow>& slot = rows_[sub_index];
      slot.clear();  // a sub-query settles once; clearing is defensive
      slot.reserve(col_a.size());
      for (size_t k = 0; k < col_a.size(); ++k) {
        slot.push_back(QueryRow{
            col_a[k],
            static_cast<uint32_t>(k < col_b.size() ? col_b[k] : 0)});
      }
      break;
    }
  }
}

void PlanFold::Finish(GatherResult& out) {
  if (!rows_.empty()) {
    size_t total = 0;
    for (const std::vector<QueryRow>& slot : rows_) total += slot.size();
    out.rows.clear();
    out.rows.reserve(total);
    // Concatenate in sub-query order, then impose a total order: the
    // merged rows are byte-identical no matter which transport ran the
    // scatter or in which order replies landed.
    for (const std::vector<QueryRow>& slot : rows_) {
      out.rows.insert(out.rows.end(), slot.begin(), slot.end());
    }
    if (plan_->kind == QueryKind::kTopK) {
      std::sort(out.rows.begin(), out.rows.end(),
                [](const QueryRow& a, const QueryRow& b) {
                  if (a.clustering != b.clustering) {
                    return a.clustering > b.clustering;  // descending
                  }
                  return a.type_id < b.type_id;
                });
    } else {
      std::sort(out.rows.begin(), out.rows.end(),
                [](const QueryRow& a, const QueryRow& b) {
                  if (a.clustering != b.clustering) {
                    return a.clustering < b.clustering;  // ascending
                  }
                  return a.type_id < b.type_id;
                });
    }
    if (plan_->final_limit > 0 && out.rows.size() > plan_->final_limit) {
      out.rows.resize(plan_->final_limit);
    }
  }
  out.partitions_touched = plan_->partitions.size();
  out.partitions_pruned = plan_->partitions_pruned;
}

void FinalizeGatherAccounting(GatherResult& result) {
  std::sort(result.lost_partitions.begin(), result.lost_partitions.end());
  result.partial = result.failed > 0;
  // The degraded-result report must account for every sub-query.
  KV_CHECK(result.completed + result.failed == result.subqueries);
  // Internal consistency of the report (debug builds only): every failed
  // sub-query names its lost key, and misses are a subset of completions.
  KV_DCHECK(result.lost_partitions.size() == result.failed);
  KV_DCHECK(result.partitions_missing <= result.completed);
}

}  // namespace kvscale
