// Isolated calls into single layers, timed by the benchmark itself.
//
// Each probe replays the work one gather plan puts on a layer — the same
// partition keys on the same owner nodes, the same frames — with nothing
// else in the call path, so the per-layer cost can be read without the
// queues and threads around it.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/in_process_cluster.hpp"
#include "telemetry/span_tracer.hpp"

namespace kvbench {

/// The store layer: Table::CountByType (count plans) or Table::ScanRange
/// (scan plans) on the primary replica of every partition of the plans.
struct StoreProbe {
  std::vector<double> call_us;  ///< one sample per partition read
  double total_ns = 0.0;
  uint64_t columns = 0;  ///< columns the reads returned / counted
  bool ok = true;        ///< every read succeeded
};
StoreProbe ProbeStore(kvscale::InProcessCluster& cluster,
                      const std::vector<kvscale::QueryPlan>& plans,
                      kvscale::SpanTracer* spans);

/// The wire layer: EncodeSubQueryBatch / DecodeSubQueryBatch on the
/// per-node request frames a batched scatter of each plan sends, and
/// EncodeReplyFrame / DecodeReplyFrame on the reply frames its real
/// answers make.
struct WireProbe {
  double encode_us = 0.0;
  double decode_us = 0.0;
  uint64_t frames = 0;
  bool ok = true;  ///< every frame decoded back to what was encoded
};
WireProbe ProbeWire(kvscale::InProcessCluster& cluster,
                    const std::vector<kvscale::QueryPlan>& plans,
                    kvscale::SpanTracer* spans);

}  // namespace kvbench
