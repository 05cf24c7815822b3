// analyze: the one-shot pdbcheck, pdbtree and pdbduct paths, in process,
// over a merged database with planted defects. Each invocation opens the
// database and builds the DUCTAPE graph and analysis context itself, as
// the tools' main functions do, so load and graph costs are paid cold.
#include <sstream>

#include "analysis/checker.h"
#include "pdb/format.h"
#include "pdb/validate.h"
#include "query/render.h"
#include "stage.h"
#include "support/trace.h"
#include "tools/tools.h"
#include "util.h"

namespace perfbench {

namespace {

using pdt::pdb::Sections;

struct TreeMode {
  pdt::query::Tree tree;
  Sections mask;  // the mask pdbtree reads for the mode
};

const TreeMode kTreeModes[] = {
    {pdt::query::Tree::CallGraph, Sections::Routines | Sections::Classes | Sections::Namespaces},
    {pdt::query::Tree::ClassHierarchy,
     Sections::Classes | Sections::SourceFiles | Sections::Namespaces},
    {pdt::query::Tree::Includes, Sections::SourceFiles},
};

// pdbduct's mask: routine identities, positions, and the streams.
constexpr Sections kDuctMask = Sections::SourceFiles | Sections::Routines |
                               Sections::Classes | Sections::Namespaces |
                               Sections::DefUses;

class AnalyzeStage final : public Stage {
 public:
  const char* name() const override { return "analyze"; }

  void setup(const Env& env) override {
    const int tus = env.heavy ? 192 : 24;
    corpus_ = makeCorpus(env.seed ^ 0x616e616c797a65ULL, tus);
    const std::string src = env.work + "/src";
    const auto inputs = writeCorpus(corpus_, src);
    auto built = pdt::tools::compileAndMerge(inputs, corpusOptions(src));
    if (!built.success) throw std::runtime_error("analyze set-up: corpus did not build");
    db_path_ = env.work + "/program.pdb";
    if (!built.pdb->write(db_path_, pdt::pdb::Format::Binary))
      throw std::runtime_error("analyze set-up: cannot write " + db_path_);
    findings_ = -1;
    query_hash_ = 0;
    // Warm-up: one invocation of each path fixes the reference outputs.
    Report scratch;
    SpanRecorder off;
    check(scratch, off);
    query(scratch, off);
    if (scratch.failed() != 0) throw std::runtime_error("analyze set-up: outputs failed their checks");
  }

  void run(const Env& env, double seconds) override {
    const double deadline = nowMs() + seconds * 1000.0;
    while (nowMs() < deadline) {
      const std::uint64_t skipped0 =
          pdt::trace::globalCounters().get(pdt::trace::Counter::PdbSectionsSkipped);
      {
        const SpanRecorder::Scope root(*env.spans, "analyze.check");
        const double t0 = nowMs();
        check(*env.report, *env.spans);
        check_ms_.push_back(nowMs() - t0);
      }
      {
        const SpanRecorder::Scope root(*env.spans, "analyze.query");
        const double t0 = nowMs();
        query(*env.report, *env.spans);
        query_ms_.push_back(nowMs() - t0);
      }
      skipped_ = pdt::trace::globalCounters().get(pdt::trace::Counter::PdbSectionsSkipped) - skipped0;
    }
  }

  double primary() const override { return fastest(check_ms_); }

  void resetSamples() override {
    check_ms_.clear();
    query_ms_.clear();
  }

  void finish(const Env& env) override {
    env.report->set("check_ms", fastest(check_ms_));
    env.report->set("query_ms", fastest(query_ms_));
  }

  void layers(const Env& env, const std::vector<Span>& spans) override {
    Report& r = *env.report;
    const double checks = std::max<double>(1.0, static_cast<double>(spanCount(spans, "analyze.check")));
    const double queries = std::max<double>(1.0, static_cast<double>(spanCount(spans, "analyze.query")));
    const auto per = [&](const char* root, const char* span, double n) {
      return sum(spanSelfMs(spans, root, span)) / n;
    };
    r.set("ductape.graph_ms", per("analyze.check", "ductape.graph", checks) +
                                  per("analyze.query", "ductape.graph", queries));
    const LayerTable table = layerTable(spans);
    r.set("pdb.open_ms", (layerMs(table, "analyze.check", "pdb") -
                          sum(spanSelfMs(spans, "analyze.check", "pdb.validate"))) / checks +
                             layerMs(table, "analyze.query", "pdb") / queries);
    r.set("pdb.sections_skipped", static_cast<double>(skipped_));
    r.set("query.index_ms", per("analyze.query", "query.index", queries));
    r.set("query.render_ms", per("analyze.query", "query.render", queries));
    r.set("query.defuse_ms", per("analyze.query", "query.defuse", queries));
    r.set("analysis.context_ms", per("analyze.check", "check.context", checks));
    r.set("analysis.rules_ms", per("analyze.check", "check.rule", checks));
    r.set("analysis.findings", static_cast<double>(findings_));
  }

 private:
  /// pdbcheck's main: open with the rules' mask, validate, graph, context,
  /// all rules, text render.
  void check(Report& report, SpanRecorder& spans) {
    const auto rules = pdt::analysis::selectRules("all", nullptr);
    const Sections mask = pdt::analysis::requiredSections(rules);
    pdt::ductape::PDB db = load(spans, mask);
    {
      const SpanRecorder::Scope span(spans, "pdb.validate");
      if (!db.valid() || !pdt::pdb::validate(db.raw(), mask).empty()) {
        report.op(false, "check: cannot load " + db_path_);
        return;
      }
    }
    {
      const SpanRecorder::Scope span(spans, "ductape.graph");
      (void)db.getFileVec();
    }
    const pdt::analysis::CheckResult result = pdt::analysis::runChecks(db, {});
    std::ostringstream text;
    {
      const SpanRecorder::Scope span(spans, "analysis.render");
      pdt::analysis::renderText(result, text);
    }
    report.op(result.ok() && !text.str().empty(), "check: runner failed");
    std::string err = plantedMissing(result);
    const int findings = static_cast<int>(result.diags.size());
    if (findings_ < 0) findings_ = findings;
    if (err.empty() && findings != findings_)
      err = "finding count " + std::to_string(findings) + " != " + std::to_string(findings_);
    report.op(err.empty(), "check: " + err);
  }

  /// ductape::PDB::read: pdb::open plus the flat copy into the graph.
  pdt::ductape::PDB load(SpanRecorder& spans, Sections mask) const {
    const SpanRecorder::Scope span(spans, "pdb.load");
    return pdt::ductape::PDB::read(db_path_, mask);
  }

  std::string plantedMissing(const pdt::analysis::CheckResult& result) const {
    const auto found = [&](const std::string& rule, const std::string& needle) {
      for (const auto& d : result.diags) {
        if (d.rule == rule && (d.entity == needle || d.message.find(needle) != std::string::npos))
          return true;
      }
      return false;
    };
    for (const std::string& r : corpus_.expect.dead) {
      if (!found("dead-code", r)) return "planted dead routine " + r + " not reported";
    }
    for (const std::string& r : corpus_.expect.uninit) {
      if (!found("uninitialized-read", r)) return "planted uninitialized read in " + r + " not reported";
    }
    for (const std::string& r : corpus_.expect.cycle) {
      if (!found("recursion-cycles", r)) return "planted recursion cycle through " + r + " not reported";
    }
    return {};
  }

  /// pdbtree --calls / --classes / --includes, then one pdbduct query,
  /// each opening the database itself.
  void query(Report& report, SpanRecorder& spans) {
    std::uint64_t hash = 0;
    for (const TreeMode& mode : kTreeModes) {
      const pdt::ductape::PDB db = load(spans, mode.mask);
      if (!db.valid()) {
        report.op(false, "query: cannot load " + db_path_);
        return;
      }
      {
        const SpanRecorder::Scope span(spans, "ductape.graph");
        (void)db.getFileVec();
      }
      std::optional<pdt::query::Index> index;
      {
        const SpanRecorder::Scope span(spans, "query.index");
        index.emplace(db);
        (void)index->roots();
      }
      std::ostringstream os;
      {
        const SpanRecorder::Scope span(spans, "query.render");
        pdt::query::renderTree(*index, mode.tree, os);
      }
      hash = hash * 31 + fnv64(os.str());
    }
    std::vector<pdt::ductape::PDB> inputs;
    inputs.push_back(load(spans, kDuctMask));
    const pdt::ductape::PDB merged = pdt::tools::pdbmerge(std::move(inputs), 1);
    {
      const SpanRecorder::Scope span(spans, "ductape.graph");
      (void)merged.getFileVec();
    }
    std::optional<pdt::query::Index> index;
    {
      const SpanRecorder::Scope span(spans, "query.index");
      index.emplace(merged);
      (void)index->defUse();
    }
    std::ostringstream os;
    {
      const SpanRecorder::Scope span(spans, "query.defuse");
      pdt::query::renderDefUse(*index, {}, os);
    }
    hash = hash * 31 + fnv64(os.str());
    if (query_hash_ == 0) query_hash_ = hash;
    report.op(hash == query_hash_ && !os.str().empty(), "query: output changed between invocations");
  }

  Corpus corpus_;
  std::string db_path_;
  int findings_ = -1;
  std::uint64_t query_hash_ = 0;
  std::uint64_t skipped_ = 0;
  std::vector<double> check_ms_;
  std::vector<double> query_ms_;
};

}  // namespace

std::unique_ptr<Stage> makeAnalyzeStage() { return std::make_unique<AnalyzeStage>(); }

}  // namespace perfbench
