// The metrics the benchmark emits and the one JSON line it ends with.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric (printed with --trace 0), in output order.
[[nodiscard]] const std::vector<MetricSpec>& endToEndMetrics();
/// Every per-layer metric (printed with --trace 1), in output order.
[[nodiscard]] const std::vector<MetricSpec>& perLayerMetrics();

/// Collects one run's values and the operation tallies behind them.
class Report {
 public:
  /// Records a metric value; the unit comes from the spec tables.
  void set(const std::string& name, double value);
  [[nodiscard]] double get(const std::string& name) const;

  /// One operation attempted; `ok` false counts it as failed and prints
  /// `what` on stderr (first few failures only).
  void op(bool ok, const std::string& what = {});
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  /// The final line: {"correct", "attempted", "failed", "metrics"} with
  /// exactly the metrics of `specs`. Returns "" and fills `missing` when
  /// one was never set.
  [[nodiscard]] std::string json(const std::vector<MetricSpec>& specs,
                                 std::string& missing) const;

 private:
  std::map<std::string, double> values_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
