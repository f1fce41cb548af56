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
                                       const SubQueryRequest& request,
                                       ReadProbe* probe) {
  const std::string_view partition_key = request.partition_key;
  switch (request.op) {
    case kOpCountByType: {
      // Ascending (type, count) pairs straight into the reply columns —
      // the order the count fold has always seen on the wire.
      OperatorResult out;
      KV_RETURN_IF_ERROR(
          table.CountByTypeColumns(partition_key, out.col_a, out.col_b, probe));
      return out;
    }
    case kOpRangeScan: {
      auto rows = table.ScanRange(partition_key, request.arg_lo,
                                  request.arg_hi, request.arg_limit, probe);
      if (!rows.ok()) return rows.status();
      return RowColumns(rows.value());
    }
    case kOpTopK: {
      auto rows =
          table.TopKByClustering(partition_key, request.arg_limit, probe);
      if (!rows.ok()) return rows.status();
      return RowColumns(rows.value());
    }
    default:
      return Status::InvalidArgument("unknown query operator " +
                                     std::to_string(request.op));
  }
}

}  // namespace kvscale
