// Shared query layer tests: the memoized query::Index must answer every
// consumer from one set of sub-indexes — the tree renderers are
// byte-identical to the flag-based walkers they replaced, the def-use
// index is the same object the AnalysisContext carries (built once), and
// pdbcheck over a prebuilt context matches pdbcheck from scratch.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "analysis/checker.h"
#include "common/temp_dir.h"
#include "frontend/frontend.h"
#include "ilanalyzer/analyzer.h"
#include "pdb/pdb.h"
#include "pdb/snapshot.h"
#include "pdb/writer.h"
#include "query/index.h"
#include "query/render.h"
#include "tools/tools.h"

namespace pdt::query {
namespace {

using ductape::PDB;

PDB compileToPdb(const std::string& name, const std::string& source) {
  SourceManager sm;
  DiagnosticEngine diags;
  frontend::Frontend fe(sm, diags);
  auto result = fe.compileSource(name, source);
  return PDB::fromPdbFile(ilanalyzer::analyze(result, sm));
}

constexpr const char* kSample = R"(
class Base {
public:
    virtual void act() {}
};
class Derived : public Base {
public:
    void act() {}
};
void leaf() {}
int helper(int a) {
    int t = a;
    t = a + 1;
    leaf();
    return t;
}
void driver(Base& b) {
    b.act();
    helper(3);
}
)";

TEST(QueryIndex, CallTreeMatchesTheFlagBasedWalker) {
  const PDB pdb = compileToPdb("sample.cpp", kSample);
  const Index index(pdb);
  std::ostringstream got;
  renderTree(index, Tree::CallGraph, got);

  // Reference: the original mutable-flag walker (still exported for
  // one-shot use). The set-based concurrent-safe walk must be
  // byte-identical.
  std::ostringstream ref;
  ref << "Static call tree\n----------------\n";
  for (const ductape::pdbRoutine* root : pdb.getCallTreeRoots()) {
    ref << root->fullName() << '\n';
    tools::printFuncTree(root, 1, ref);
  }
  EXPECT_EQ(got.str(), ref.str());
}

TEST(QueryIndex, TreesMatchPdbtree) {
  const PDB pdb = compileToPdb("sample.cpp", kSample);
  const Index index(pdb);
  const struct {
    Tree tree;
    tools::TreeKind kind;
  } kinds[] = {
      {Tree::Includes, tools::TreeKind::Includes},
      {Tree::ClassHierarchy, tools::TreeKind::ClassHierarchy},
      {Tree::CallGraph, tools::TreeKind::CallGraph},
      {Tree::Profile, tools::TreeKind::Profile},
  };
  for (const auto& [tree, kind] : kinds) {
    std::ostringstream got, ref;
    renderTree(index, tree, got);
    tools::pdbtree(pdb, kind, ref);
    EXPECT_EQ(got.str(), ref.str());
  }
}

TEST(QueryIndex, RootsMatchTheGraphsOwnDerivation) {
  const PDB pdb = compileToPdb("sample.cpp", kSample);
  const Index index(pdb);
  EXPECT_EQ(index.roots().includes, pdb.getIncludeTreeRoots());
  EXPECT_EQ(index.roots().classes, pdb.getClassHierarchyRoots());
  EXPECT_EQ(index.roots().calls, pdb.getCallTreeRoots());
}

TEST(QueryIndex, AnalysisContextSharesTheDefUseIndex) {
  const PDB pdb = compileToPdb("sample.cpp", kSample);
  const Index index(pdb);
  // One def-use index per database: the rules' context carries the same
  // object the renderers query — built exactly once.
  EXPECT_EQ(&index.defUse(), index.analysis().du.get());
  EXPECT_EQ(index.defUsePtr().get(), &index.defUse());
  EXPECT_FALSE(index.defUse().streams().empty());
}

TEST(QueryIndex, ChecksOverThePrebuiltContextMatchAFreshRun) {
  const PDB pdb = compileToPdb("sample.cpp", kSample);
  const Index index(pdb);
  analysis::CheckOptions options;
  const analysis::CheckResult from_scratch = analysis::runChecks(pdb, options);
  const analysis::CheckResult shared =
      analysis::runChecks(index.analysis(), options);
  std::ostringstream a, b;
  analysis::render(from_scratch, options, a);
  analysis::render(shared, options, b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(from_scratch.hasFindings(), shared.hasFindings());
}

TEST(QueryIndex, LookupFindsPlainAndQualifiedNames) {
  const PDB pdb = compileToPdb("sample.cpp", kSample);
  const Index index(pdb);

  const std::vector<std::string> plain = index.lookup("act");
  ASSERT_EQ(plain.size(), 2u);
  EXPECT_NE(plain[0].find("Base::act"), std::string::npos);
  EXPECT_NE(plain[1].find("Derived::act"), std::string::npos);
  // Qualified lookup narrows to the one entity.
  EXPECT_EQ(index.lookup("Derived::act").size(), 1u);
  // Classes resolve too, with their section prefix and location.
  const std::vector<std::string> cls = index.lookup("Base");
  ASSERT_EQ(cls.size(), 1u);
  EXPECT_EQ(cls[0].rfind("cl#", 0), 0u);
  EXPECT_NE(cls[0].find(" @ sample.cpp:"), std::string::npos);

  EXPECT_TRUE(index.lookup("no_such_entity").empty());
  std::ostringstream os;
  renderLookup(index, "no_such_entity", os);
  EXPECT_EQ(os.str(), "no match for 'no_such_entity'\n");
}

TEST(QueryIndex, DefUseRenderingAnswersFromPrebuiltStreams) {
  const PDB pdb = compileToPdb("sample.cpp", kSample);
  const Index index(pdb);
  DefUseQuery summary;
  summary.routine = "helper";
  std::ostringstream os;
  renderDefUse(index, summary, os);
  EXPECT_NE(os.str().find("du#"), std::string::npos);
  EXPECT_NE(os.str().find("helper"), std::string::npos);

  DefUseQuery defs;
  defs.routine = "helper";
  defs.var = "t";
  defs.defs = true;
  std::ostringstream ds;
  renderDefUse(index, defs, ds);
  EXPECT_NE(ds.str().find("use of 't'"), std::string::npos);
  EXPECT_NE(ds.str().find("reached by def of 't'"), std::string::npos);
}

TEST(QueryIndex, PrewarmedIndexOwnsItsDatabase) {
  Index index(compileToPdb("sample.cpp", kSample).raw());
  index.prewarm();
  std::ostringstream os;
  renderTree(index, Tree::CallGraph, os);
  EXPECT_NE(os.str().find("driver"), std::string::npos);
}

/// kSample compiled and stored as a binary database under `dir`.
std::string writeSample(const testutil::TempDir& dir) {
  const std::string path = (dir / "sample.pdb").string();
  EXPECT_TRUE(compileToPdb("sample.cpp", kSample)
                  .write(path, pdb::Format::Binary));
  return path;
}

std::string callTree(const Index& index) {
  std::ostringstream os;
  renderTree(index, Tree::CallGraph, os);
  return os.str();
}

// pdbd's load path: the Index is the snapshot's only other holder, so the
// records move into its graph instead of being copied.
TEST(QueryIndex, SoleOwnedSnapshotMovesItsRecordsIntoTheGraph) {
  const testutil::TempDir dir{"pdt_qindex_"};
  pdb::OpenResult opened = pdb::open(writeSample(dir));
  ASSERT_TRUE(opened.ok());
  const auto* routines = opened.snapshot->pdb().routines().data();
  const auto* classes = opened.snapshot->pdb().classes().data();
  const Index index(std::move(opened.snapshot));
  EXPECT_EQ(index.pdb().raw().routines().data(), routines);
  EXPECT_EQ(index.pdb().raw().classes().data(), classes);
  EXPECT_NE(callTree(index).find("driver"), std::string::npos);
}

// A caller that keeps the snapshot (the reference renderings over an
// independently opened database) gets an Index over a copy; the
// snapshot's own records are left exactly as they were.
TEST(QueryIndex, HeldSnapshotKeepsItsRecords) {
  const testutil::TempDir dir{"pdt_qindex_"};
  const pdb::OpenResult opened = pdb::open(writeSample(dir));
  ASSERT_TRUE(opened.ok());
  const pdb::PdbFile& records = opened.snapshot->pdb();
  const auto* routines = records.routines().data();
  const std::size_t count = records.routines().size();
  const std::string text = pdb::writeToString(records);
  std::string rendered;
  {
    const Index index(opened.snapshot);
    EXPECT_NE(index.pdb().raw().routines().data(), routines);
    rendered = callTree(index);
  }
  EXPECT_EQ(records.routines().data(), routines);
  EXPECT_EQ(records.routines().size(), count);
  EXPECT_EQ(pdb::writeToString(records), text);
  EXPECT_EQ(callTree(Index(opened.snapshot)), rendered);
}

}  // namespace
}  // namespace pdt::query
