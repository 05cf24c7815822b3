// Dataflow framework tests: CFG-lite reconstruction from marker-structured
// du streams, the reaching-definitions solver (strong vs. weak updates,
// loop back edges), and the three dataflow rules end-to-end — seeded bugs
// must be found, and the common safe idioms must stay silent (the CI gate
// runs these rules over clean inputs and fails on any finding).
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "analysis/checker.h"
#include "analysis/dataflow.h"
#include "analysis/diagnostics.h"
#include "ductape/ductape.h"
#include "frontend/frontend.h"
#include "ilanalyzer/analyzer.h"
#include "pdb/pdb.h"

namespace pdt::analysis {
namespace {

using ductape::PDB;
using pdb::DefUseItem;
using pdb::DuOp;
namespace du = pdb::du;

DefUseItem::Event def(std::string_view name, std::uint8_t flags = 0) {
  return {DuOp::Def, flags, name, {1, 1, 1}};
}
DefUseItem::Event use(std::string_view name, std::uint8_t flags = 0) {
  return {DuOp::Use, flags, name, {1, 1, 1}};
}
DefUseItem::Event mark(std::string_view kind) {
  return {DuOp::Marker, 0, kind, {1, 1, 1}};
}

std::vector<dataflow::EventIndex> list(std::span<const dataflow::EventIndex> s) {
  return {s.begin(), s.end()};
}

TEST(Cfg, StraightLineIsOneBlockPlusEntryExit) {
  DefUseItem item;
  item.events = {def("x"), use("x")};
  const dataflow::Cfg cfg = dataflow::Cfg::build(item);
  EXPECT_FALSE(cfg.irregular());
  EXPECT_EQ(cfg.blockOf(0), cfg.blockOf(1));
  EXPECT_EQ(cfg.events(cfg.blockOf(0)).size(), 2u);
}

TEST(Cfg, IfWithoutElseHasFallthroughEdge) {
  DefUseItem item;
  item.events = {def("x", du::kUninit), use("c"), mark("then"), def("x"),
                 mark("endif"), use("x")};
  const dataflow::Cfg cfg = dataflow::Cfg::build(item);
  ASSERT_FALSE(cfg.irregular());
  const int cond = cfg.blockOf(1);
  const int join = cfg.blockOf(5);
  // The condition block reaches the join both through the then-branch and
  // directly (condition false).
  const auto preds = cfg.pred(join);
  EXPECT_NE(std::find(preds.begin(), preds.end(), cond), preds.end());
  EXPECT_EQ(preds.size(), 2u);
}

TEST(Cfg, LoopHasBackEdgeAndZeroIterationEdge) {
  DefUseItem item;
  item.events = {def("i"),      mark("loop"),    use("i"), mark("body"),
                 use("i"),      def("i"),        mark("endloop"), use("i")};
  const dataflow::Cfg cfg = dataflow::Cfg::build(item);
  ASSERT_FALSE(cfg.irregular());
  const int header = cfg.blockOf(2);
  const int body = cfg.blockOf(4);
  const auto body_succ = cfg.succ(body);
  EXPECT_NE(std::find(body_succ.begin(), body_succ.end(), header),
            body_succ.end());  // back edge
  const auto header_succ = cfg.succ(header);
  EXPECT_EQ(header_succ.size(), 2u);  // body + zero-iteration exit
}

TEST(Cfg, GotoMarksStreamIrregular) {
  DefUseItem item;
  item.events = {def("x"), mark("irregular"), use("x")};
  EXPECT_TRUE(dataflow::Cfg::build(item).irregular());
}

TEST(Cfg, UnmatchedCloserMarksStreamIrregular) {
  DefUseItem item;
  item.events = {def("x"), mark("endif")};
  EXPECT_TRUE(dataflow::Cfg::build(item).irregular());
}

TEST(ReachingDefs, BranchDefsMergeAtJoin) {
  DefUseItem item;
  item.events = {def("x", du::kUninit),  // 0
                 use("c"),               // 1
                 mark("then"),           // 2
                 def("x"),               // 3
                 mark("endif"),          // 4
                 use("x")};              // 5
  const dataflow::Cfg cfg = dataflow::Cfg::build(item);
  const dataflow::ReachingDefs rd(cfg);
  // Both the uninitialized declaration and the branch assignment reach
  // the final use (the branch may not be taken).
  EXPECT_EQ(list(rd.defsReaching(5)), (std::vector<dataflow::EventIndex>{0, 3}));
  EXPECT_EQ(list(rd.usesReached(3)), (std::vector<dataflow::EventIndex>{5}));
}

TEST(ReachingDefs, StrongUpdateKillsPriorDef) {
  DefUseItem item;
  item.events = {def("x"), def("x"), use("x")};
  const dataflow::ReachingDefs rd(dataflow::Cfg::build(item));
  EXPECT_EQ(list(rd.defsReaching(2)), (std::vector<dataflow::EventIndex>{1}));
  EXPECT_TRUE(rd.usesReached(0).empty());
}

TEST(ReachingDefs, WeakUpdateDoesNotKill) {
  DefUseItem item;
  item.events = {def("x"), def("x", du::kUnknown), use("x")};
  const dataflow::ReachingDefs rd(dataflow::Cfg::build(item));
  EXPECT_EQ(list(rd.defsReaching(2)), (std::vector<dataflow::EventIndex>{0, 1}));
}

TEST(ReachingDefs, LoopDefReachesHeaderUse) {
  DefUseItem item;
  item.events = {def("i"),        // 0: i = 0
                 mark("loop"),    // 1
                 use("i"),        // 2: i < n
                 mark("body"),    // 3
                 use("i"),        // 4
                 def("i"),        // 5: ++i
                 mark("endloop"), // 6
                 use("i")};       // 7
  const dataflow::ReachingDefs rd(dataflow::Cfg::build(item));
  // The increment flows back to the condition and out of the loop.
  EXPECT_EQ(list(rd.defsReaching(2)), (std::vector<dataflow::EventIndex>{0, 5}));
  EXPECT_EQ(list(rd.defsReaching(7)), (std::vector<dataflow::EventIndex>{0, 5}));
}

// --- End-to-end: compile real code, run the rules ---------------------------

PDB compileToPdb(const std::string& main_source) {
  SourceManager sm;
  DiagnosticEngine diags;
  frontend::Frontend fe(sm, diags);
  auto result = fe.compileSource("main.cpp", main_source);
  EXPECT_FALSE(diags.hasErrors()) << "unexpected diagnostics";
  return PDB::fromPdbFile(ilanalyzer::analyze(result, sm));
}

std::vector<Diag> runRule(const PDB& pdb, const std::string& rule) {
  CheckOptions options;
  options.checks = rule;
  const CheckResult result = runChecks(pdb, options);
  EXPECT_TRUE(result.ok()) << result.error;
  return result.diags;
}

TEST(DataflowRules, UninitializedReadIsFound) {
  const PDB pdb = compileToPdb(
      "int f(int c) {\n"
      "  int x;\n"
      "  if (c > 0) { return x; }\n"
      "  x = 2;\n"
      "  return x;\n"
      "}\n");
  const std::vector<Diag> diags = runRule(pdb, "uninitialized-read");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("'x'"), std::string::npos);
  EXPECT_EQ(diags[0].line, 3);
}

TEST(DataflowRules, InitializedOnEveryPathIsSilent) {
  const PDB pdb = compileToPdb(
      "int f(int c) {\n"
      "  int x;\n"
      "  if (c > 0) { x = 1; } else { x = 2; }\n"
      "  return x;\n"
      "}\n");
  EXPECT_TRUE(runRule(pdb, "uninitialized-read").empty());
}

TEST(DataflowRules, LoopInitializationIsSilent) {
  const PDB pdb = compileToPdb(
      "int sum(int n) {\n"
      "  int i;\n"
      "  int s = 0;\n"
      "  for (i = 0; i < n; ++i) { s = s + i; }\n"
      "  return s + i;\n"
      "}\n");
  EXPECT_TRUE(runRule(pdb, "uninitialized-read").empty());
}

TEST(DataflowRules, DeadStoreIsFound) {
  const PDB pdb = compileToPdb(
      "int f(int a) {\n"
      "  int t = a;\n"
      "  t = a + 1;\n"
      "  t = a + 2;\n"
      "  return t;\n"
      "}\n");
  const std::vector<Diag> diags = runRule(pdb, "dead-store");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 3);
}

TEST(DataflowRules, InitializerOverwriteIsNotADeadStore) {
  // The declaration's value being unread is style, not a lost value.
  const PDB pdb = compileToPdb(
      "int f(int a) {\n"
      "  int t = 0;\n"
      "  t = a;\n"
      "  return t;\n"
      "}\n");
  EXPECT_TRUE(runRule(pdb, "dead-store").empty());
}

TEST(DataflowRules, EscapedVariableIsNotADeadStore) {
  const PDB pdb = compileToPdb(
      "void sink(int* p);\n"
      "int f(int a) {\n"
      "  int t = 0;\n"
      "  sink(&t);\n"
      "  t = a;\n"
      "  t = a + 1;\n"
      "  return t;\n"
      "}\n");
  EXPECT_TRUE(runRule(pdb, "dead-store").empty());
}

TEST(DataflowRules, LoopCarriedStoreIsNotDead) {
  const PDB pdb = compileToPdb(
      "int f(int n) {\n"
      "  int acc = 0;\n"
      "  for (int i = 0; i < n; ++i) { acc = acc + i; }\n"
      "  return acc;\n"
      "}\n");
  EXPECT_TRUE(runRule(pdb, "dead-store").empty());
}

TEST(DataflowRules, NullDerefCandidateIsFound) {
  const PDB pdb = compileToPdb(
      "int f() {\n"
      "  int* q = 0;\n"
      "  return *q;\n"
      "}\n");
  const std::vector<Diag> diags = runRule(pdb, "null-deref-candidate");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("'q'"), std::string::npos);
  EXPECT_EQ(diags[0].line, 3);
}

TEST(DataflowRules, ReassignedPointerIsSilent) {
  const PDB pdb = compileToPdb(
      "int f(int a) {\n"
      "  int* p = 0;\n"
      "  p = &a;\n"
      "  return *p;\n"
      "}\n");
  EXPECT_TRUE(runRule(pdb, "null-deref-candidate").empty());
}

TEST(DataflowRules, ParameterPointerIsSilent) {
  const PDB pdb = compileToPdb("int f(int* p) { return *p; }\n");
  EXPECT_TRUE(runRule(pdb, "null-deref-candidate").empty());
}

TEST(DataflowRules, ShortCircuitAssignmentSuppressesFalsePositives) {
  // `x = 2` inside the short-circuit rhs may never run: it must neither
  // count as initializing every path nor turn `x = 1` into a dead store.
  const PDB pdb = compileToPdb(
      "int g(int c) {\n"
      "  int x = 1;\n"
      "  int ok = (c > 0) || ((x = 2) != 0);\n"
      "  return x + ok;\n"
      "}\n");
  EXPECT_TRUE(runRule(pdb, "dead-store").empty());
  EXPECT_TRUE(runRule(pdb, "uninitialized-read").empty());
}

TEST(DataflowRules, GotoRoutineIsSkippedByFlowRules) {
  const PDB pdb = compileToPdb(
      "int f(int c) {\n"
      "  int x;\n"
      "  if (c > 0) goto out;\n"
      "  x = 1;\n"
      "out:\n"
      "  return x;\n"
      "}\n");
  EXPECT_TRUE(runRule(pdb, "uninitialized-read").empty());
  EXPECT_TRUE(runRule(pdb, "dead-store").empty());
}

}  // namespace
}  // namespace pdt::analysis
