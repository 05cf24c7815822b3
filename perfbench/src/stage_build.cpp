// build: compile the corpus cold (tools::compileAndMerge without a cache,
// then a binary PDB write) and rebuild it warm (the same driver with the
// build cache, after a fresh seeded tenth of the TUs was edited).
#include "pdb/format.h"
#include "stage.h"
#include "support/trace.h"
#include "util.h"

namespace perfbench {

namespace {

using pdt::trace::Counter;

class BuildStage final : public Stage {
 public:
  const char* name() const override { return "build"; }

  void setup(const Env& env) override {
    tus_ = env.heavy ? 64 : 16;
    corpus_ = makeCorpus(env.seed, tus_);
    src_ = env.work + "/src";
    cache_ = env.work + "/cache";
    inputs_ = writeCorpus(corpus_, src_);
    removeTree(cache_);
    makeDirs(cache_);
    cold_ = corpusOptions(src_);
    warm_ = cold_;
    warm_.cache.dir = cache_;
    rng_ = std::make_unique<Rng>(env.seed ^ 0x6275696c64ULL);
    // Warm-up: one cold build, and one cached build that fills the cache.
    const auto cold = compile(cold_, *env.spans);
    const auto warm = compile(warm_, *env.spans);
    if (!cold.ok || !warm.ok || cold.bytes != warm.bytes)
      throw std::runtime_error("build set-up: corpus did not build");
    if (const std::string err = checkAgainst(cold.db->raw(), corpus_.expect); !err.empty())
      throw std::runtime_error("build set-up: " + err);
    pdb_mb_ = static_cast<double>(cold.bytes.size()) / 1e6;
  }

  void run(const Env& env, double seconds) override {
    Report& report = *env.report;
    const double deadline = nowMs() + seconds * 1000.0;
    while (nowMs() < deadline) {
      const int edited = editTenth();
      Result warm;
      {
        const SpanRecorder::Scope root(*env.spans, "build.warm");
        const double t0 = nowMs();
        warm = compile(warm_, *env.spans);
        rebuild_ms_.push_back(nowMs() - t0);
      }
      Result cold;
      const std::uint64_t elided0 =
          pdt::trace::globalCounters().get(Counter::MergeDuplicatesElided);
      {
        const SpanRecorder::Scope root(*env.spans, "build.cold");
        const double t0 = nowMs();
        cold = compile(cold_, *env.spans);
        build_ms_.push_back(nowMs() - t0);
      }
      const std::size_t lookups = warm.cache.hits + warm.cache.misses;
      const bool hits_ok = warm.cache.hits == inputs_.size() - edited &&
                           lookups == inputs_.size();
      report.op(warm.ok && hits_ok,
                "rebuild: cache hits " + std::to_string(warm.cache.hits) + " of " +
                    std::to_string(lookups) + ", expected " +
                    std::to_string(inputs_.size() - edited));
      std::string err = cold.ok ? checkAgainst(cold.db->raw(), corpus_.expect) : "did not build";
      if (err.empty() && cold.bytes != warm.bytes) err = "cold and warm builds differ";
      report.op(err.empty(), "build: " + err);
      // The driver merges outside its per-TU counter scopes, so merge
      // counts land in the process-wide block.
      elided_ += pdt::trace::globalCounters().get(Counter::MergeDuplicatesElided) - elided0;
      if (cold.ok) counters_ += cold.counters;
      hits_ += warm.cache.hits;
      lookups_ += lookups;
    }
  }

  double primary() const override { return fastest(build_ms_); }

  void resetSamples() override {
    build_ms_.clear();
    rebuild_ms_.clear();
    counters_ = {};
    hits_ = lookups_ = elided_ = 0;
  }

  void finish(const Env& env) override {
    env.report->set("build_ms", fastest(build_ms_));
    env.report->set("rebuild_ms", fastest(rebuild_ms_));
    env.report->set("pdb_mb", pdb_mb_);
  }

  void layers(const Env& env, const std::vector<Span>& spans) override {
    Report& r = *env.report;
    const LayerTable table = layerTable(spans);
    const double builds = std::max<double>(1.0, static_cast<double>(spanCount(spans, "build.cold")));
    const double rebuilds = std::max<double>(1.0, static_cast<double>(spanCount(spans, "build.warm")));
    const auto per_build = [&](const char* layer) {
      return layerMs(table, "build.cold", layer) / builds;
    };
    std::vector<double> tu_ms;
    {
      const std::vector<std::string> roots = rootNames(spans);
      for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].name == "tu.compile" && roots[i] == "build.cold")
          tu_ms.push_back(static_cast<double>(spans[i].end_us - spans[i].start_us) / 1000.0);
      }
    }
    r.set("driver.tu_p50_ms", quantile(tu_ms, 0.5));
    r.set("driver.tu_p90_ms", quantile(tu_ms, 0.9));
    const double lex_ms = layerMs(table, "build.cold", "lex");
    const double il_ms = layerMs(table, "build.cold", "ilanalyzer");
    r.set("lex.self_ms", per_build("lex"));
    r.set("lex.tokens_per_s", lex_ms > 0 ? counters_.get(Counter::LexTokens) / (lex_ms / 1000.0) : 0.0);
    r.set("parse.self_ms", per_build("parse"));
    r.set("sema.instantiate_ms", sum(spanSelfMs(spans, "build.cold", "sema.instantiate")) / builds);
    r.set("sema.finalize_ms", sum(spanSelfMs(spans, "build.cold", "sema.finalize")) / builds);
    const double used = static_cast<double>(counters_.get(Counter::SemaBodiesInstantiated));
    const double skipped = static_cast<double>(counters_.get(Counter::SemaBodiesSkipped));
    r.set("sema.used_ratio", used + skipped > 0 ? used / (used + skipped) : 0.0);
    r.set("ilanalyzer.self_ms", per_build("ilanalyzer"));
    const double items = static_cast<double>(counters_.get(Counter::IlItems));
    r.set("ilanalyzer.items_per_s", il_ms > 0 ? items / (il_ms / 1000.0) : 0.0);
    r.set("ductape.merge_ms", sum(spanSelfMs(spans, "build.cold", "ductape.merge")) / builds);
    r.set("ductape.dup_ratio",
          items > 0 ? static_cast<double>(elided_) / items : 0.0);
    r.set("pdb.write_ms", sum(spanSelfMs(spans, "build.cold", "pdb.write")) / builds);
    r.set("cache.key_ms", sum(spanSelfMs(spans, "build.warm", "cache.scan")) / rebuilds);
    r.set("cache.fetch_ms", sum(spanSelfMs(spans, "build.warm", "cache.fetch")) / rebuilds);
    r.set("cache.hit_ratio", lookups_ > 0 ? static_cast<double>(hits_) / static_cast<double>(lookups_) : 0.0);
  }

 private:
  struct Result {
    bool ok = false;
    std::optional<pdt::ductape::PDB> db;
    std::string bytes;
    pdt::tools::CacheStats cache;
    pdt::trace::CounterBlock counters;
  };

  Result compile(const pdt::tools::DriverOptions& options, SpanRecorder& spans) {
    Result out;
    pdt::tools::DriverResult r;
    {
      const SpanRecorder::Scope span(spans, "driver.compileAndMerge");
      r = pdt::tools::compileAndMerge(inputs_, options);
    }
    out.ok = r.success && r.diagnostics.empty();
    out.cache = r.cache_stats;
    out.counters = std::move(r.counters);
    if (!r.success) return out;
    {
      const SpanRecorder::Scope span(spans, "pdb.write");
      out.bytes = pdt::pdb::writeString(r.pdb->raw(), pdt::pdb::Format::Binary);
    }
    out.db = std::move(r.pdb);
    return out;
  }

  /// Rewrites a fresh seeded tenth of the TUs (never main.cpp) with a new
  /// edit nonce; returns how many were edited.
  int editTenth() {
    const int edits = std::max(1, tus_ / 10);
    std::vector<int> pool(tus_);
    for (int i = 0; i < tus_; ++i) pool[i] = i;
    ++nonce_;
    for (int e = 0; e < edits; ++e) {
      const int pick = rng_->uniform(e, tus_ - 1);
      std::swap(pool[e], pool[pick]);
      const int tu = pool[e];
      writeFile(src_ + "/tu" + std::to_string(tu) + ".cpp",
                tuSource(corpus_.shapes[tu], tu, nonce_));
    }
    return edits;
  }

  int tus_ = 0;
  int nonce_ = 0;
  Corpus corpus_;
  std::string src_;
  std::string cache_;
  std::vector<std::string> inputs_;
  pdt::tools::DriverOptions cold_;
  pdt::tools::DriverOptions warm_;
  std::unique_ptr<Rng> rng_;
  double pdb_mb_ = 0;
  std::vector<double> build_ms_;
  std::vector<double> rebuild_ms_;
  pdt::trace::CounterBlock counters_;
  std::uint64_t hits_ = 0;
  std::uint64_t lookups_ = 0;
  std::uint64_t elided_ = 0;
};

}  // namespace

std::unique_ptr<Stage> makeBuildStage() { return std::make_unique<BuildStage>(); }

}  // namespace perfbench
