// Per-node query operators: the body a NodeRuntime worker (or a
// direct-transport read) executes against one partition of one table.
//
// Every operator returns two paired u64 result columns — the wire schema
// of SubQueryReply — whose meaning the operator defines:
//   kOpCountByType: (type_id, count), ascending by type id
//   kOpRangeScan:   (clustering, type_id) rows, ascending clustering
//   kOpTopK:        (clustering, type_id) rows, descending clustering
// Keeping the execution switch here — used identically by every
// transport — is what makes a new query type a plan definition
// (cluster/query_plan.hpp) instead of another copy of the gather loop.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "store/table.hpp"
#include "wire/messages.hpp"

namespace kvscale {

/// Two paired u64 result columns; the operator defines the pairing.
struct OperatorResult {
  std::vector<uint64_t> col_a;
  std::vector<uint64_t> col_b;
};

/// Runs the operator `request` names against its partition of `table`.
/// An unknown op — already rejected on the wire by DecodeSubQueryBatch —
/// fails with kInvalidArgument (retryable like any per-replica error).
Result<OperatorResult> ExecuteOperator(const Table& table,
                                       const SubQueryRequest& request,
                                       ReadProbe* probe);

}  // namespace kvscale
