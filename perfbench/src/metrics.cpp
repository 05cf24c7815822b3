#include "metrics.h"

#include <cmath>
#include <cstdio>
#include <iostream>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricSpec>& endToEndMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"setup_s", "s"},          {"peak_rss_mb", "MB"},
      {"build_ms", "ms"},        {"rebuild_ms", "ms"},
      {"pdb_mb", "MB"},          {"serve_qps", "1/s"},
      {"serve_p50_ms", "ms"},    {"serve_p99_ms", "ms"},
      {"swap_ms", "ms"},         {"check_ms", "ms"},
      {"query_ms", "ms"},        {"instr_run_ms", "ms"},
      {"tauprof_ms", "ms"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& perLayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"driver.tu_p50_ms", "ms"},
      {"driver.tu_p90_ms", "ms"},
      {"lex.self_ms", "ms"},
      {"lex.tokens_per_s", "1/s"},
      {"parse.self_ms", "ms"},
      {"sema.instantiate_ms", "ms"},
      {"sema.finalize_ms", "ms"},
      {"sema.used_ratio", "ratio"},
      {"ilanalyzer.self_ms", "ms"},
      {"ilanalyzer.items_per_s", "1/s"},
      {"ductape.merge_ms", "ms"},
      {"ductape.dup_ratio", "ratio"},
      {"ductape.graph_ms", "ms"},
      {"pdb.write_ms", "ms"},
      {"pdb.open_ms", "ms"},
      {"pdb.sections_skipped", "count"},
      {"cache.key_ms", "ms"},
      {"cache.fetch_ms", "ms"},
      {"cache.hit_ratio", "ratio"},
      {"query.index_ms", "ms"},
      {"query.render_ms", "ms"},
      {"query.defuse_ms", "ms"},
      {"analysis.context_ms", "ms"},
      {"analysis.rules_ms", "ms"},
      {"analysis.findings", "count"},
      {"pdbd.handle_us.lookup", "us"},
      {"pdbd.handle_us.calltree", "us"},
      {"pdbd.handle_us.hierarchy", "us"},
      {"pdbd.handle_us.includes", "us"},
      {"pdbd.handle_us.defuse", "us"},
      {"pdbd.handle_us.check", "us"},
      {"pdbd.proto_us", "us"},
      {"pdbd.transport_us", "us"},
      {"pdbd.load_ms", "ms"},
      {"pdbd.rss_mb", "MB"},
      {"tau.instrument_ms", "ms"},
      {"gxx.build_s", "s"},
      {"tau.calls", "count"},
      {"tau.ns_per_call", "ns"},
      {"tauprof.read_ms", "ms"},
      {"tauprof.merge_ms", "ms"},
      {"tauprof.attach_ms", "ms"},
      {"trace.overhead_pct", "%"},
      {"other.self_pct", "%"},
  };
  return kSpecs;
}

void Report::set(const std::string& name, double value) { values_[name] = value; }

double Report::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::op(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failed_ <= 5) std::cerr << "perfbench: failed: " << what << '\n';
}

std::string Report::json(const std::vector<MetricSpec>& specs,
                         std::string& missing) const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = values_.find(spec.name);
    if (it == values_.end() || !std::isfinite(it->second)) {
      missing = spec.name;
      return {};
    }
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", it->second);
    if (!first) out += ", ";
    first = false;
    out += "\"" + std::string(spec.name) + "\": {\"value\": " + value +
           ", \"unit\": \"" + spec.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
