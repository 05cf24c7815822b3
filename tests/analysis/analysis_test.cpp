// pdbcheck analysis tests: the collapsed call graph (AnalysisContext),
// every rule of the registry, rule selection, deterministic parallel
// execution, the SARIF-shaped JSON, "<generated>" rendering for items
// without source locations, and pdb::validate on corrupt databases.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "analysis/checker.h"
#include "analysis/context.h"
#include "analysis/diagnostics.h"
#include "analysis/rules.h"
#include "ductape/ductape.h"
#include "frontend/frontend.h"
#include "ilanalyzer/analyzer.h"
#include "pdb/validate.h"

namespace pdt::analysis {
namespace {

using ductape::PDB;

struct Header {
  std::string name;
  std::string source;
};

PDB compileToPdb(const std::string& main_source,
                 const std::vector<Header>& headers = {}) {
  SourceManager sm;
  DiagnosticEngine diags;
  for (const Header& h : headers) sm.addVirtualFile(h.name, h.source);
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

bool anyMessageContains(const std::vector<Diag>& diags,
                        const std::string& needle) {
  for (const Diag& d : diags) {
    if (d.message.find(needle) != std::string::npos) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// AnalysisContext
// ---------------------------------------------------------------------------

constexpr const char* kTwoInstantiations = R"(
template <class T>
struct Stack {
    void push(T x) { ++n; }
    int n;
};
int main() {
    Stack<int> a;
    Stack<double> b;
    a.push(1);
    b.push(2.0);
    return 0;
}
)";

TEST(AnalysisContext, CollapsesTemplateInstantiations) {
  PDB pdb = compileToPdb(kTwoInstantiations);
  const AnalysisContext ctx = AnalysisContext::build(pdb);

  // Stack<int>::push and Stack<double>::push share one node.
  const CallNode* push = nullptr;
  for (const CallNode& n : ctx.nodes) {
    if (n.rep != nullptr && n.rep->name() == "push") {
      ASSERT_EQ(push, nullptr) << "push collapsed into more than one node";
      push = &n;
    }
  }
  ASSERT_NE(push, nullptr);
  EXPECT_EQ(push->members.size(), 2u);
  ASSERT_NE(push->origin, nullptr);
  // The collapsed node is named after the template.
  const int idx = ctx.nodeOf(push->rep);
  EXPECT_NE(ctx.nodeName(idx).find("2 instantiations"), std::string::npos);
  // Both instantiations map to the same node.
  for (const ductape::pdbRoutine* r : push->members)
    EXPECT_EQ(ctx.nodeOf(r), idx);
}

TEST(AnalysisContext, RootsAndEdges) {
  PDB pdb = compileToPdb(kTwoInstantiations);
  const AnalysisContext ctx = AnalysisContext::build(pdb);
  ASSERT_FALSE(ctx.roots.empty());

  // main is a root and calls the collapsed push node.
  const ductape::pdbRoutine* main_r = nullptr;
  for (const ductape::pdbRoutine* r : pdb.getRoutineVec()) {
    if (r->name() == "main") main_r = r;
  }
  ASSERT_NE(main_r, nullptr);
  const int main_node = ctx.nodeOf(main_r);
  EXPECT_TRUE(std::find(ctx.roots.begin(), ctx.roots.end(), main_node) !=
              ctx.roots.end());

  // succ/pred are symmetric.
  for (std::size_t u = 0; u < ctx.nodes.size(); ++u) {
    for (const int v : ctx.nodes[u].succ) {
      const auto& pred = ctx.nodes[v].pred;
      EXPECT_TRUE(std::find(pred.begin(), pred.end(), static_cast<int>(u)) !=
                  pred.end());
    }
  }
}

TEST(AnalysisContext, SignatureCompatibility) {
  PDB pdb = compileToPdb(R"(
struct B {
    virtual int f(int x) { return x; }
};
struct D : B {
    int f(double x) { return 0; }
};
int main() { return 0; }
)");
  const ductape::pdbRoutine* base_f = nullptr;
  const ductape::pdbRoutine* derived_f = nullptr;
  for (const ductape::pdbRoutine* r : pdb.getRoutineVec()) {
    if (r->name() != "f") continue;
    if (r->fullName().rfind("B::", 0) == 0) base_f = r;
    if (r->fullName().rfind("D::", 0) == 0) derived_f = r;
  }
  ASSERT_NE(base_f, nullptr);
  ASSERT_NE(derived_f, nullptr);
  EXPECT_TRUE(aritiesCompatible(base_f, derived_f));   // same arity...
  EXPECT_FALSE(signaturesCompatible(base_f, derived_f));  // ...different types
  EXPECT_TRUE(signaturesCompatible(base_f, base_f));
}

// ---------------------------------------------------------------------------
// dead-code
// ---------------------------------------------------------------------------

TEST(DeadCodeRule, FindsUnreachableRoutine) {
  PDB pdb = compileToPdb(R"(
int used() { return 1; }
int unusedHelper() { return 2; }
int main() { return used(); }
)");
  const std::vector<Diag> diags = runRule(pdb, "dead-code");
  EXPECT_TRUE(anyMessageContains(diags, "'unusedHelper' is unreachable"));
  EXPECT_FALSE(anyMessageContains(diags, "'used'"));
  EXPECT_FALSE(anyMessageContains(diags, "'main'"));
}

TEST(DeadCodeRule, VirtualDispatchKeepsOverridesAlive) {
  PDB pdb = compileToPdb(R"(
struct Shape {
    virtual int area() { return 0; }
};
struct Circle : Shape {
    int area() { return 3; }
};
int paint(Shape* s) { return s->area(); }
int main() { Circle c; return paint(&c); }
)");
  const std::vector<Diag> diags = runRule(pdb, "dead-code");
  // Circle::area is only reachable through the virtual call on Shape*.
  EXPECT_FALSE(anyMessageContains(diags, "area")) << "virtual override flagged";
}

TEST(DeadCodeRule, ReachableCtorKeepsDtorAlive) {
  PDB pdb = compileToPdb(R"(
struct Guard {
    Guard() {}
    ~Guard() {}
};
int main() { Guard g; return 0; }
)");
  const std::vector<Diag> diags = runRule(pdb, "dead-code");
  EXPECT_FALSE(anyMessageContains(diags, "~Guard")) << "dtor flagged dead";
}

TEST(DeadCodeRule, SilentWithoutEntryPoints) {
  // A library TU: no main, no extern "C" — reachability is unknowable, so
  // the rule must stay quiet rather than flag everything.
  PDB pdb = compileToPdb(R"(
int helper(int v) { return v + 1; }
int api(int v) { return helper(v); }
)");
  EXPECT_TRUE(runRule(pdb, "dead-code").empty());
}

// ---------------------------------------------------------------------------
// recursion-cycles
// ---------------------------------------------------------------------------

TEST(RecursionCycleRule, DirectAndMutual) {
  PDB pdb = compileToPdb(R"(
int fact(int n) { return n <= 1 ? 1 : n * fact(n - 1); }
int pong(int n);
int ping(int n) { return n == 0 ? 0 : pong(n - 1); }
int pong(int n) { return ping(n); }
int straight(int n) { return n; }
int main() { return fact(3) + ping(2) + straight(1); }
)");
  const std::vector<Diag> diags = runRule(pdb, "recursion-cycles");
  EXPECT_TRUE(anyMessageContains(diags, "'fact' is directly recursive"));
  EXPECT_TRUE(anyMessageContains(diags, "recursion cycle through 2 routines"));
  EXPECT_FALSE(anyMessageContains(diags, "straight"));
  EXPECT_FALSE(anyMessageContains(diags, "main"));
}

// ---------------------------------------------------------------------------
// hierarchy-checks
// ---------------------------------------------------------------------------

TEST(HierarchyRule, NonVirtualDtorInPolymorphicBase) {
  PDB pdb = compileToPdb(R"(
struct Base {
    virtual int f() { return 0; }
    ~Base() {}
};
struct Derived : Base {
    int f() { return 1; }
};
int main() { Derived d; return d.f(); }
)");
  const std::vector<Diag> diags = runRule(pdb, "hierarchy-checks");
  EXPECT_TRUE(
      anyMessageContains(diags, "'Base'"));
  EXPECT_TRUE(anyMessageContains(diags, "destructor is not virtual"));
  // Derived::f overrides Base::f — no hiding diagnostics.
  EXPECT_FALSE(anyMessageContains(diags, "hides"));
}

TEST(HierarchyRule, HiddenVirtualWithDifferentSignature) {
  PDB pdb = compileToPdb(R"(
struct Base {
    virtual int f(int x) { return x; }
    virtual ~Base() {}
};
struct Derived : Base {
    int f(double x) { return 0; }
};
int main() { return 0; }
)");
  const std::vector<Diag> diags = runRule(pdb, "hierarchy-checks");
  EXPECT_TRUE(anyMessageContains(diags, "hides virtual function"));
}

TEST(HierarchyRule, CleanHierarchyIsQuiet) {
  PDB pdb = compileToPdb(R"(
struct Base {
    virtual int f() { return 0; }
    virtual ~Base() {}
};
struct Derived : Base {
    int f() { return 1; }
};
int main() { Derived d; return d.f(); }
)");
  EXPECT_TRUE(runRule(pdb, "hierarchy-checks").empty());
}

// ---------------------------------------------------------------------------
// include-graph
// ---------------------------------------------------------------------------

TEST(IncludeGraphRule, DetectsIncludeCycle) {
  PDB pdb = compileToPdb("#include \"ring_a.h\"\nint main() { return ring(); }\n",
                         {{"ring_a.h",
                           "#pragma once\n#include \"ring_b.h\"\nint ring();\n"},
                          {"ring_b.h",
                           "#pragma once\n#include \"ring_a.h\"\nint spoke();\n"}});
  const std::vector<Diag> diags = runRule(pdb, "include-graph");
  EXPECT_TRUE(anyMessageContains(diags, "include cycle through 2 files"));
}

TEST(IncludeGraphRule, FlagsUnusedInclude) {
  PDB pdb = compileToPdb(
      "#include \"used.h\"\n#include \"unused.h\"\nint main() { return used(); }\n",
      {{"used.h", "#pragma once\nint used() { return 1; }\n"},
       {"unused.h", "#pragma once\nint lonely() { return 2; }\n"}});
  const std::vector<Diag> diags = runRule(pdb, "include-graph");
  EXPECT_TRUE(anyMessageContains(diags, "uses nothing from it"));
  EXPECT_TRUE(anyMessageContains(diags, "unused.h"));
  EXPECT_FALSE(anyMessageContains(diags, "'used.h'"));
}

TEST(IncludeGraphRule, UsedIncludeThroughTypeIsQuiet) {
  // main.cpp never calls into vec.h directly, but its signature mentions
  // the class — the include is justified through the type reference.
  PDB pdb = compileToPdb(
      "#include \"vec.h\"\nint peek(Vec& v) { return v.n; }\nint main() { Vec v; v.n = 1; return peek(v); }\n",
      {{"vec.h", "#pragma once\nstruct Vec { int n; };\n"}});
  const std::vector<Diag> diags = runRule(pdb, "include-graph");
  EXPECT_FALSE(anyMessageContains(diags, "uses nothing"));
}

// ---------------------------------------------------------------------------
// template-bloat
// ---------------------------------------------------------------------------

TEST(TemplateBloatRule, ReportsMultipleInstantiations) {
  PDB pdb = compileToPdb(kTwoInstantiations);
  const std::vector<Diag> diags = runRule(pdb, "template-bloat");
  EXPECT_TRUE(anyMessageContains(diags, "2 class instantiation(s)") ||
              anyMessageContains(diags, "2 routine instantiation(s)"));
}

TEST(TemplateBloatRule, SingleInstantiationIsNotBloat) {
  PDB pdb = compileToPdb(R"(
template <class T> T twice(T v) { return v + v; }
int main() { return twice(2); }
)");
  EXPECT_TRUE(runRule(pdb, "template-bloat").empty());
}

// ---------------------------------------------------------------------------
// rule selection
// ---------------------------------------------------------------------------

TEST(SelectRules, DefaultAllInRegistryOrder) {
  const auto& all = allRules();
  std::string error;
  const auto selected = selectRules("all", &error);
  ASSERT_EQ(selected.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i)
    EXPECT_EQ(selected[i], all[i]);
}

TEST(SelectRules, NamesAndExclusions) {
  std::string error;
  auto two = selectRules("dead-code,include-graph", &error);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0]->name(), "dead-code");
  EXPECT_EQ(two[1]->name(), "include-graph");

  auto minus = selectRules("-template-bloat", &error);
  EXPECT_EQ(minus.size(), allRules().size() - 1);
  for (const Rule* r : minus) EXPECT_NE(r->name(), "template-bloat");

  auto with_minus = selectRules("all,-dead-code,-recursion-cycles", &error);
  EXPECT_EQ(with_minus.size(), allRules().size() - 2);
}

TEST(SelectRules, UnknownNameReportsCatalog) {
  std::string error;
  const auto selected = selectRules("no-such-check", &error);
  EXPECT_TRUE(selected.empty());
  EXPECT_NE(error.find("unknown check 'no-such-check'"), std::string::npos);
  EXPECT_NE(error.find("dead-code"), std::string::npos);
}

// ---------------------------------------------------------------------------
// checker: determinism, formats, error paths
// ---------------------------------------------------------------------------

constexpr const char* kFindingsSource = R"(
int dead1() { return 1; }
int dead2() { return 2; }
int rec(int n) { return n == 0 ? 0 : rec(n - 1); }
int main() { return rec(3); }
)";

TEST(Checker, ParallelOutputIsByteIdentical) {
  PDB pdb = compileToPdb(kFindingsSource);
  CheckOptions serial;
  CheckOptions parallel = serial;
  parallel.jobs = 4;
  for (const auto format :
       {CheckOptions::Format::Text, CheckOptions::Format::Json}) {
    serial.format = parallel.format = format;
    std::ostringstream a, b;
    render(runChecks(pdb, serial), serial, a);
    render(runChecks(pdb, parallel), parallel, b);
    EXPECT_EQ(a.str(), b.str());
  }
}

TEST(Checker, DiagnosticsAreLocationSorted) {
  PDB pdb = compileToPdb(kFindingsSource);
  const CheckResult result = runChecks(pdb, CheckOptions{});
  for (std::size_t i = 1; i < result.diags.size(); ++i)
    EXPECT_FALSE(diagLess(result.diags[i], result.diags[i - 1]));
}

TEST(Checker, CountsBySeverity) {
  PDB pdb = compileToPdb(kFindingsSource);
  const CheckResult result = runChecks(pdb, CheckOptions{});
  EXPECT_EQ(result.errors, 0);
  EXPECT_EQ(result.warnings, 2);  // dead1, dead2
  EXPECT_EQ(result.notes, 1);     // rec is directly recursive
  EXPECT_TRUE(result.hasFindings());
}

TEST(Checker, BadChecksSpecFailsWithoutRunning) {
  PDB pdb = compileToPdb("int main() { return 0; }\n");
  CheckOptions options;
  options.checks = "bogus";
  const CheckResult result = runChecks(pdb, options);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.diags.empty());
  EXPECT_NE(result.error.find("unknown check"), std::string::npos);
}

TEST(Checker, JsonIsSarifShaped) {
  PDB pdb = compileToPdb(kFindingsSource);
  CheckOptions options;
  options.format = CheckOptions::Format::Json;
  const CheckResult result = runChecks(pdb, options);
  std::ostringstream os;
  renderJson(result, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"pdbcheck\""), std::string::npos);
  EXPECT_NE(json.find("\"ruleId\": \"dead-code\""), std::string::npos);
  EXPECT_NE(json.find("\"level\": \"warning\""), std::string::npos);
  EXPECT_NE(json.find("\"startLine\""), std::string::npos);
}

TEST(Checker, TextFormatIncludesRuleTags) {
  PDB pdb = compileToPdb(kFindingsSource);
  const CheckResult result = runChecks(pdb, CheckOptions{});
  std::ostringstream os;
  renderText(result, os);
  EXPECT_NE(os.str().find("[dead-code]"), std::string::npos);
  EXPECT_NE(os.str().find("warning: "), std::string::npos);
  EXPECT_NE(os.str().find("main.cpp:"), std::string::npos);
}

// ---------------------------------------------------------------------------
// "<generated>" rendering for locationless entities
// ---------------------------------------------------------------------------

TEST(Diagnostics, MissingLocationRendersAsGenerated) {
  EXPECT_EQ(locationText(ductape::pdbLoc{}), kGeneratedLoc);

  DiagSink sink;
  sink.report("dead-code", Severity::Warning, "msg", "entity",
              ductape::pdbLoc{});
  ASSERT_EQ(sink.diags().size(), 1u);
  EXPECT_FALSE(sink.diags()[0].hasLocation());
  EXPECT_EQ(sink.diags()[0].locationText(), kGeneratedLoc);
}

TEST(Diagnostics, GeneratedSortsAfterLocated) {
  Diag located;
  located.file = "a.cpp";
  located.line = 1;
  Diag generated;  // no file
  EXPECT_TRUE(diagLess(located, generated));
  EXPECT_FALSE(diagLess(generated, located));
}

// ---------------------------------------------------------------------------
// pdb::validate (corrupt inputs)
// ---------------------------------------------------------------------------

TEST(Validate, CleanDatabaseHasNoErrors) {
  PDB pdb = compileToPdb(kTwoInstantiations);
  EXPECT_TRUE(pdt::pdb::validate(pdb.raw()).empty());
}

TEST(Validate, DanglingCallTargetIsReported) {
  PDB pdb = compileToPdb("int f() { return 1; }\nint main() { return f(); }\n");
  pdb::PdbFile raw = pdb.raw();
  ASSERT_FALSE(raw.routines().empty());
  pdb::RoutineItem::Call bad;
  bad.routine = 9999;
  raw.routines()[0].calls.push_back(bad);
  const std::vector<std::string> errors = pdt::pdb::validate(raw);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("call references undefined ro#9999"),
            std::string::npos);
}

TEST(Validate, DanglingIncludeAndBaseAreReported) {
  PDB pdb = compileToPdb("struct A {};\nstruct B : A {};\nint main() { return 0; }\n");
  pdb::PdbFile raw = pdb.raw();
  ASSERT_FALSE(raw.sourceFiles().empty());
  raw.sourceFiles()[0].includes.push_back(777);
  bool patched_base = false;
  for (auto& c : raw.classes()) {
    for (auto& b : c.bases) {
      b.cls = 888;
      patched_base = true;
    }
  }
  ASSERT_TRUE(patched_base);
  const std::vector<std::string> errors = pdt::pdb::validate(raw);
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_NE(errors[0].find("includes undefined so#777"), std::string::npos);
  EXPECT_NE(errors[1].find("base references undefined cl#888"),
            std::string::npos);
}

}  // namespace
}  // namespace pdt::analysis
