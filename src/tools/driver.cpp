#include "tools/driver.h"

#include <future>
#include <sstream>

#include "ductape/merger.h"
#include "pdb/pdb.h"
#include "support/thread_pool.h"
#include "support/trace.h"

namespace pdt::tools {

namespace {

/// Everything one TU compilation produces: the typed database plus the
/// diagnostics text, captured so the caller can emit it in input order.
struct UnitResult {
  pdb::PdbFile pdb;
  std::string diagnostics;
  CacheStats cache_stats;
  trace::CounterBlock counters;
  bool success = false;
};

UnitResult compileUnit(const std::string& input, const DriverOptions& options,
                       const BuildCache* cache) {
  // Per-TU state only — SourceManager, DiagnosticEngine, and Frontend are
  // not shared across tasks, which keeps the parallel path race-free. The
  // BuildCache is shared but stateless beyond its atomic-rename filesystem
  // protocol, so concurrent workers may fetch/store freely.
  UnitResult unit;
  // Everything this TU counts lands in its own block; the caller sums the
  // blocks in input order, which is what makes --stats totals independent
  // of -j and of which worker ran which TU.
  const trace::CounterScope counter_scope(&unit.counters);
  PDT_TRACE_SCOPE("tu.compile", input);
  SourceManager sm;

  std::optional<CacheKey> key;
  if (cache != nullptr && cache->enabled()) {
    // The scan loads the TU's include closure into `sm`, so a cache miss
    // compiles over already-loaded contents instead of re-reading disk.
    {
      PDT_TRACE_SCOPE("cache.scan", input);
      key = computeCacheKey(sm, input, options.frontend, options.analyzer);
    }
    if (!key) ++unit.cache_stats.unkeyed;
    if (key) {
      std::optional<pdb::PdbFile> cached;
      {
        PDT_TRACE_SCOPE("cache.fetch", input);
        cached = cache->fetch(*key, unit.cache_stats, &unit.counters);
      }
      if (cached) {
        unit.pdb = std::move(*cached);
        unit.success = true;
        trace::count(trace::Counter::DriverTus);
        return unit;
      }
    }
  }

  DiagnosticEngine diags;
  frontend::Frontend frontend(sm, diags, options.frontend);
  auto result = frontend.compileFile(input);
  std::ostringstream diag_text;
  diags.print(diag_text, sm);
  unit.diagnostics = std::move(diag_text).str();
  unit.success = result.success;
  if (unit.success) unit.pdb = ilanalyzer::analyze(result, sm, options.analyzer);
  // Only silent successes are cached: a hit skips the compile, so any
  // diagnostics a cached TU produced would vanish from warm runs.
  if (key && unit.success && unit.diagnostics.empty()) {
    PDT_TRACE_SCOPE("cache.store", input);
    cache->store(*key, unit.pdb, unit.counters, unit.cache_stats);
  }
  // Diagnostic totals are counted after the store on purpose: only silent
  // TUs are cached, so the sidecar never carries (and a warm run never
  // replays) nonzero diag counters — identical either way.
  trace::count(trace::Counter::DiagErrors, diags.errorCount());
  trace::count(trace::Counter::DiagWarnings, diags.warningCount());
  trace::countKey("diag.errors.by_tu", input, diags.errorCount());
  trace::countKey("diag.warnings.by_tu", input, diags.warningCount());
  trace::count(trace::Counter::DriverTus);
  return unit;
}

}  // namespace

DriverResult compileAndMerge(const std::vector<std::string>& inputs,
                             const DriverOptions& options) {
  DriverResult out;
  std::vector<UnitResult> units(inputs.size());
  const BuildCache cache(options.cache);
  const BuildCache* cache_ptr = cache.enabled() ? &cache : nullptr;

  if (options.jobs <= 1 || inputs.size() <= 1) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      units[i] = compileUnit(inputs[i], options, cache_ptr);
      if (!units[i].success) {
        // Serial behaviour: stop at the first failing TU.
        units.resize(i + 1);
        break;
      }
    }
  } else {
    ThreadPool pool(options.jobs);
    std::vector<std::future<UnitResult>> futures;
    futures.reserve(inputs.size());
    for (const std::string& input : inputs) {
      futures.push_back(pool.submit([&input, &options, cache_ptr] {
        return compileUnit(input, options, cache_ptr);
      }));
    }
    // Collect in input order regardless of completion order.
    for (std::size_t i = 0; i < futures.size(); ++i) units[i] = futures[i].get();
  }

  // Emit diagnostics and merge in input order; both match the serial run
  // byte for byte (the merge is order-dependent, the compiles are not).
  std::optional<ductape::Merger> merged;
  for (UnitResult& unit : units) {
    out.diagnostics += unit.diagnostics;
    out.cache_stats += unit.cache_stats;
    out.counters += unit.counters;
    if (!unit.success) return out;
    if (!merged) {
      merged.emplace(std::move(unit.pdb));
    } else {
      merged->add(std::move(unit.pdb));
    }
  }
  if (merged)
    out.pdb = ductape::PDB::fromPdbFile(std::move(*merged).release());
  out.success = out.pdb.has_value();
  return out;
}

}  // namespace pdt::tools
