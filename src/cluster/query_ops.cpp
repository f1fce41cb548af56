#include "cluster/query_ops.hpp"

namespace kvscale {

namespace {

/// (clustering, type_id) row columns from a row read, preserving the
/// read's order (ScanRange ascends, TopKByClustering descends).
OperatorResult RowColumns(const std::vector<CellHeader>& rows) {
  OperatorResult out;
  out.col_a.reserve(rows.size());
  out.col_b.reserve(rows.size());
  for (const CellHeader& row : rows) {
    out.col_a.push_back(row.clustering);
    out.col_b.push_back(row.type_id);
  }
  return out;
}

}  // namespace

Result<OperatorResult> ExecuteOperator(const Table& table,
                                       std::string_view partition_key,
                                       uint32_t op, uint64_t arg_lo,
                                       uint64_t arg_hi, uint32_t arg_limit,
                                       ReadProbe* probe) {
  switch (op) {
    case kOpCountByType: {
      // Ascending (type, count) pairs straight into the reply columns —
      // the order the count fold has always seen on the wire.
      OperatorResult out;
      KV_RETURN_IF_ERROR(
          table.CountByTypeColumns(partition_key, out.col_a, out.col_b, probe));
      return out;
    }
    case kOpRangeScan: {
      auto rows =
          table.ScanRange(partition_key, arg_lo, arg_hi, arg_limit, probe);
      if (!rows.ok()) return rows.status();
      return RowColumns(rows.value());
    }
    case kOpTopK: {
      auto rows = table.TopKByClustering(partition_key, arg_limit, probe);
      if (!rows.ok()) return rows.status();
      return RowColumns(rows.value());
    }
    default:
      return Status::InvalidArgument("unknown query operator " +
                                     std::to_string(op));
  }
}

Result<OperatorResult> ExecuteOperator(const Table& table,
                                       const SubQueryRequest& request,
                                       ReadProbe* probe) {
  return ExecuteOperator(table, request.partition_key, request.op,
                         request.arg_lo, request.arg_hi, request.arg_limit,
                         probe);
}

}  // namespace kvscale
