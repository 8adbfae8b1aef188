#include "exec/explain.h"

#include <sstream>
#include <utility>
#include <vector>

#include "exec/parallel.h"

namespace erbium {
namespace {

using obs::SpanRecord;

std::vector<const Operator*> Ptrs(const std::vector<OperatorPtr>& ops) {
  std::vector<const Operator*> out;
  out.reserve(ops.size());
  for (const OperatorPtr& op : ops) out.push_back(op.get());
  return out;
}

// Emits `rep` (the serial node) with the stats of all parallel peer
// instances merged in, then recurses into position-paired children.
void Collect(const Operator* rep, std::vector<const Operator*> peers,
             int depth, std::vector<SpanRecord>* out);

void CollectChildren(const Operator* rep,
                     const std::vector<const Operator*>& peers, int depth,
                     std::vector<SpanRecord>* out) {
  std::vector<const Operator*> rep_children = rep->children();
  for (size_t i = 0; i < rep_children.size(); ++i) {
    std::vector<const Operator*> peer_children;
    peer_children.reserve(peers.size());
    for (const Operator* peer : peers) {
      std::vector<const Operator*> pc = peer->children();
      if (i < pc.size()) peer_children.push_back(pc[i]);
    }
    Collect(rep_children[i], std::move(peer_children), depth, out);
  }
}

void Collect(const Operator* rep, std::vector<const Operator*> peers,
             int depth, std::vector<SpanRecord>* out) {
  SpanRecord span;
  span.name = rep->name();
  span.depth = depth;
  span.stats = rep->stats();
  std::string detail = rep->AnalyzeDetail();
  uint64_t morsels = 0;
  bool scan_peers = false;
  for (const Operator* peer : peers) {
    span.stats.MergeFrom(peer->stats());
    if (const auto* scan = dynamic_cast<const ParallelScanOp*>(peer)) {
      morsels += scan->morsels();
      scan_peers = true;
    }
  }
  if (!peers.empty()) {
    if (!detail.empty()) detail += ' ';
    detail += "workers=" + std::to_string(peers.size());
    if (scan_peers) detail += " morsels=" + std::to_string(morsels);
  }
  span.detail = std::move(detail);
  out->push_back(std::move(span));

  // Parallel wrappers only appear in the main plan, never inside worker
  // clones: recurse into the serial structure with the clones as peers.
  if (const auto* gather = dynamic_cast<const GatherOp*>(rep)) {
    Collect(gather->serial_plan(), Ptrs(gather->workers()), depth + 1, out);
    return;
  }
  if (const auto* agg = dynamic_cast<const ParallelHashAggregateOp*>(rep)) {
    Collect(agg->serial_child(), Ptrs(agg->worker_children()), depth + 1,
            out);
    return;
  }
  // Probe clones of a serial HashJoinOp have one child, which pairs with
  // the serial left child; the build child ran serially, so its stats
  // already accumulated on the serial node.
  CollectChildren(rep, peers, depth + 1, out);
}

}  // namespace

obs::QueryStats CollectQueryStats(const Operator& root) {
  obs::QueryStats stats;
  Collect(&root, {}, 0, &stats.spans);
  if (!stats.spans.empty()) {
    stats.total_wall_ns = stats.spans.front().stats.wall_ns;
  }
  return stats;
}

std::string RenderPlanTree(const Operator& root) {
  obs::QueryStats stats = CollectQueryStats(root);
  std::ostringstream out;
  for (const SpanRecord& span : stats.spans) {
    for (int i = 0; i < span.depth; ++i) out << "  ";
    out << span.name;
    if (!span.detail.empty()) out << " [" << span.detail << ']';
    out << '\n';
  }
  return out.str();
}

}  // namespace erbium
