#ifndef STHIST_WORKLOAD_QUERY_H_
#define STHIST_WORKLOAD_QUERY_H_

#include "core/box.h"
#include "data/dataset.h"
#include "histogram/histogram.h"
#include "index/kdtree.h"

namespace sthist {

/// Execution engine over one dataset: answers range queries exactly via a
/// counting k-d tree and doubles as the query-feedback oracle that STHoles
/// refines against. The dataset must outlive the executor.
class Executor : public CardinalityOracle {
 public:
  explicit Executor(const Dataset& data);

  /// Exact number of tuples in `box`.
  double Count(const Box& box) const override;

  const KdTree& index() const { return index_; }

 private:
  KdTree index_;
};

}  // namespace sthist

#endif  // STHIST_WORKLOAD_QUERY_H_
