// DUCTAPE tests: the Figure-4 class hierarchy, pointer navigation, the
// PDB whole-database queries, and pdbmerge's duplicate elimination.
#include <gtest/gtest.h>

#include <sstream>
#include <type_traits>

#include "common/temp_dir.h"
#include "ductape/ductape.h"
#include "frontend/frontend.h"
#include "ilanalyzer/analyzer.h"
#include "pdb/snapshot.h"
#include "pdb/writer.h"

namespace pdt::ductape {
namespace {

// ---- Figure 4: every is-a edge of the hierarchy, checked at compile time.
static_assert(std::is_base_of_v<pdbSimpleItem, pdbFile>);
static_assert(std::is_base_of_v<pdbSimpleItem, pdbItem>);
static_assert(std::is_base_of_v<pdbItem, pdbMacro>);
static_assert(std::is_base_of_v<pdbItem, pdbType>);
static_assert(std::is_base_of_v<pdbItem, pdbFatItem>);
static_assert(std::is_base_of_v<pdbFatItem, pdbTemplate>);
static_assert(std::is_base_of_v<pdbFatItem, pdbNamespace>);
static_assert(std::is_base_of_v<pdbFatItem, pdbTemplateItem>);
static_assert(std::is_base_of_v<pdbTemplateItem, pdbClass>);
static_assert(std::is_base_of_v<pdbTemplateItem, pdbRoutine>);
// ...and the negative edges that keep the tree a tree.
static_assert(!std::is_base_of_v<pdbItem, pdbFile>);
static_assert(!std::is_base_of_v<pdbFatItem, pdbMacro>);
static_assert(!std::is_base_of_v<pdbTemplateItem, pdbNamespace>);

PDB compileToPdb(const std::string& name, const std::string& source,
                 std::string* diag_out = nullptr) {
  SourceManager sm;
  DiagnosticEngine diags;
  frontend::Frontend fe(sm, diags);
  auto result = fe.compileSource(name, source);
  if (diag_out != nullptr) {
    for (const auto& d : diags.all()) *diag_out += d.message + "\n";
  }
  return PDB::fromPdbFile(ilanalyzer::analyze(result, sm));
}

constexpr const char* kStackSource = R"(
template <class Object>
class Stack {
public:
    explicit Stack(int capacity = 10) : topOfStack(-1) {}
    bool isEmpty() const { return topOfStack == -1; }
    void push(const Object& x) { topOfStack = topOfStack + 1; }
    Object topAndPop() { Object r; pop(); return r; }
    void pop() { topOfStack = topOfStack - 1; }
private:
    int topOfStack;
};
int main() {
    Stack<int> s;
    s.push(3);
    while (!s.isEmpty())
        s.topAndPop();
    return 0;
}
)";

TEST(Ductape, VectorsArePopulated) {
  std::string diag;
  PDB pdb = compileToPdb("stack.cpp", kStackSource, &diag);
  EXPECT_TRUE(diag.empty()) << diag;
  EXPECT_EQ(pdb.getFileVec().size(), 1u);
  EXPECT_FALSE(pdb.getRoutineVec().empty());
  EXPECT_FALSE(pdb.getClassVec().empty());
  EXPECT_FALSE(pdb.getTypeVec().empty());
  EXPECT_FALSE(pdb.getTemplateVec().empty());
  EXPECT_EQ(pdb.getItemVec().size(),
            pdb.getFileVec().size() + pdb.getRoutineVec().size() +
                pdb.getClassVec().size() + pdb.getTypeVec().size() +
                pdb.getTemplateVec().size() + pdb.getNamespaceVec().size() +
                pdb.getMacroVec().size());
}

TEST(Ductape, NavigationThroughPointers) {
  PDB pdb = compileToPdb("stack.cpp", kStackSource);
  const pdbClass* stack = nullptr;
  for (const pdbClass* c : pdb.getClassVec()) {
    if (c->name() == "Stack<int>") stack = c;
  }
  ASSERT_NE(stack, nullptr);
  // Class -> template -> kind.
  ASSERT_NE(stack->isTemplate(), nullptr);
  EXPECT_EQ(stack->isTemplate()->name(), "Stack");
  EXPECT_EQ(stack->isTemplate()->kind(), pdbItem::TE_CLASS);
  // Class -> member functions -> parent class (cycle closes).
  ASSERT_FALSE(stack->funcMembers().empty());
  const pdbRoutine* push = nullptr;
  for (const pdbRoutine* r : stack->funcMembers()) {
    if (r->name() == "push") push = r;
  }
  ASSERT_NE(push, nullptr);
  EXPECT_EQ(push->parentClass(), stack);
  EXPECT_EQ(push->fullName(), "Stack<int>::push");
  EXPECT_EQ(push->access(), pdbItem::AC_PUB);
  // Routine -> signature type -> argument types.
  ASSERT_NE(push->signature(), nullptr);
  EXPECT_EQ(push->signature()->kind(), pdbType::TY_FUNC);
  ASSERT_EQ(push->signature()->arguments().size(), 1u);
  EXPECT_EQ(push->signature()->arguments()[0]->kind(), pdbType::TY_REF);
}

TEST(Ductape, CalleesAndCallers) {
  PDB pdb = compileToPdb("stack.cpp", kStackSource);
  const pdbRoutine* main_fn = nullptr;
  const pdbRoutine* push = nullptr;
  const pdbRoutine* pop = nullptr;
  const pdbRoutine* top_and_pop = nullptr;
  for (const pdbRoutine* r : pdb.getRoutineVec()) {
    if (r->name() == "main") main_fn = r;
    if (r->name() == "push") push = r;
    if (r->name() == "pop") pop = r;
    if (r->name() == "topAndPop") top_and_pop = r;
  }
  ASSERT_NE(main_fn, nullptr);
  ASSERT_NE(push, nullptr);
  ASSERT_NE(pop, nullptr);
  ASSERT_NE(top_and_pop, nullptr);

  bool main_calls_push = false;
  for (const pdbCall* call : main_fn->callees())
    main_calls_push |= call->call() == push;
  EXPECT_TRUE(main_calls_push);

  // Inverse edges: push's callers include main.
  bool push_called_by_main = false;
  for (const pdbCall* call : push->callers())
    push_called_by_main |= call->call() == main_fn;
  EXPECT_TRUE(push_called_by_main);

  // Transitive: topAndPop calls pop.
  bool tap_calls_pop = false;
  for (const pdbCall* call : top_and_pop->callees())
    tap_calls_pop |= call->call() == pop;
  EXPECT_TRUE(tap_calls_pop);
}

// Each node is wired from its own record. With ro#1 repeated (a database
// pdb::validate would refuse, built here without it), the first `ro#1`
// keeps its call and the second, which calls nothing, gets none.
TEST(Ductape, RepeatedIdWiresEachNodeFromItsOwnRecord) {
  pdb::PdbFile raw;
  pdb::RoutineItem first;
  first.id = 1;
  first.name = "first";
  first.calls.push_back({2, false, {}});
  raw.addRoutine(std::move(first));
  pdb::RoutineItem callee;
  callee.id = 2;
  callee.name = "callee";
  raw.addRoutine(std::move(callee));
  pdb::RoutineItem again;
  again.id = 1;
  again.name = "again";
  raw.addRoutine(std::move(again));

  const PDB pdb = PDB::fromPdbFile(std::move(raw));
  const PDB::routinevec& routines = pdb.getRoutineVec();
  ASSERT_EQ(routines.size(), 3u);
  EXPECT_EQ(routines[0]->name(), "first");
  ASSERT_EQ(routines[0]->callees().size(), 1u);
  EXPECT_EQ(routines[0]->callees()[0]->call(), routines[1]);
  EXPECT_EQ(routines[1]->name(), "callee");
  ASSERT_EQ(routines[1]->callers().size(), 1u);
  EXPECT_EQ(routines[1]->callers()[0]->call(), routines[0]);
  EXPECT_EQ(routines[2]->name(), "again");
  EXPECT_TRUE(routines[2]->callees().empty());
}

TEST(Ductape, CallTreeRoots) {
  PDB pdb = compileToPdb("stack.cpp", kStackSource);
  const auto roots = pdb.getCallTreeRoots();
  bool main_is_root = false;
  for (const pdbRoutine* r : roots) main_is_root |= r->name() == "main";
  EXPECT_TRUE(main_is_root);
  for (const pdbRoutine* r : roots) EXPECT_NE(r->name(), "push");
}

TEST(Ductape, ClassHierarchyRootsAndDerived) {
  PDB pdb = compileToPdb("shapes.cpp", R"(
class Shape { public: virtual double area() const { return 0.0; } };
class Circle : public Shape { public: double area() const { return 3.14; } };
class Square : public Shape {};
class RedSquare : public Square {};
)");
  const auto roots = pdb.getClassHierarchyRoots();
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0]->name(), "Shape");
  EXPECT_EQ(roots[0]->derivedClasses().size(), 2u);
  const pdbClass* square = nullptr;
  for (const pdbClass* c : pdb.getClassVec()) {
    if (c->name() == "Square") square = c;
  }
  ASSERT_NE(square, nullptr);
  ASSERT_EQ(square->derivedClasses().size(), 1u);
  EXPECT_EQ(square->derivedClasses()[0]->name(), "RedSquare");
  ASSERT_EQ(square->baseClasses().size(), 1u);
  EXPECT_EQ(square->baseClasses()[0].base()->name(), "Shape");
}

TEST(Ductape, IncludeTreeRoots) {
  SourceManager sm;
  DiagnosticEngine diags;
  sm.addVirtualFile("common.h", "int shared;\n");
  frontend::Frontend fe(sm, diags);
  auto result = fe.compileSource("main.cpp", "#include \"common.h\"\nint m;\n");
  PDB pdb = PDB::fromPdbFile(ilanalyzer::analyze(result, sm));
  const auto roots = pdb.getIncludeTreeRoots();
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0]->name(), "main.cpp");
  ASSERT_EQ(roots[0]->includes().size(), 1u);
  EXPECT_EQ(roots[0]->includes()[0]->name(), "common.h");
}

TEST(Ductape, FlagsSupportCycleCuts) {
  PDB pdb = compileToPdb("stack.cpp", kStackSource);
  const pdbRoutine* r = pdb.getRoutineVec().front();
  EXPECT_EQ(r->flag(), INACTIVE);
  r->flag(ACTIVE);
  EXPECT_EQ(r->flag(), ACTIVE);
  r->flag(INACTIVE);
  EXPECT_EQ(r->flag(), INACTIVE);
}

TEST(Ductape, WriteReadRoundTrip) {
  PDB pdb = compileToPdb("stack.cpp", kStackSource);
  std::ostringstream ss;
  pdb.write(ss);
  EXPECT_NE(ss.str().find("<PDB 1.0>"), std::string::npos);
  EXPECT_NE(ss.str().find("Stack<int>"), std::string::npos);
}

TEST(Ductape, AliasTemplateKindIsExposed) {
  PDB pdb = compileToPdb("alias.cpp", R"(
template <class T> using Handle = T*;
Handle<int> h;
)");
  const pdbTemplate* alias = nullptr;
  for (const pdbTemplate* t : pdb.getTemplateVec()) {
    if (t->name() == "Handle") alias = t;
  }
  ASSERT_NE(alias, nullptr);
  EXPECT_EQ(alias->kind(), pdbItem::TE_ALIAS);
}

TEST(Ductape, ReadMissingFileReportsError) {
  PDB pdb = PDB::read("/nonexistent/never.pdb");
  EXPECT_FALSE(pdb.valid());
  EXPECT_FALSE(pdb.errorMessage().empty());
}

// PDB::read is pdb::open -> releasePdb -> fromPdbFile: the records the
// reader produced become the graph's records, with no copy on the way.
TEST(Ductape, ReadPathMovesTheOpenedRecordsIntoTheGraph) {
  const testutil::TempDir dir{"pdt_ductape_"};
  const std::string path = (dir / "stack.pdb").string();
  ASSERT_TRUE(compileToPdb("stack.cpp", kStackSource)
                  .write(path, pdb::Format::Binary));

  pdb::OpenResult opened = pdb::open(path);
  ASSERT_TRUE(opened.ok());
  const pdb::PdbFile& records = opened.snapshot->pdb();
  const auto* routines = records.routines().data();
  const auto* classes = records.classes().data();
  const auto* types = records.types().data();
  const PDB pdb = PDB::fromPdbFile(pdb::releasePdb(std::move(opened.snapshot)));
  EXPECT_EQ(pdb.raw().routines().data(), routines);
  EXPECT_EQ(pdb.raw().classes().data(), classes);
  EXPECT_EQ(pdb.raw().types().data(), types);

  const PDB read = PDB::read(path);
  ASSERT_TRUE(read.valid()) << read.errorMessage();
  EXPECT_EQ(pdb::writeToString(read.raw()), pdb::writeToString(pdb.raw()));
  EXPECT_EQ(read.getRoutineVec().size(), pdb.getRoutineVec().size());
}

// ---------------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------------

constexpr const char* kLibHeader = R"(
#ifndef BOX_H
#define BOX_H
template <class T>
class Box {
public:
    void put(const T& x) { value = x; }
    T value;
};
#endif
)";

TEST(Ductape, MergeEliminatesDuplicateInstantiations) {
  // Two translation units both instantiate Box<int>: after the merge
  // there must be exactly one Box<int> and one Box template (Table 2).
  SourceManager sm1;
  DiagnosticEngine diags1;
  sm1.addVirtualFile("box.h", kLibHeader);
  frontend::Frontend fe1(sm1, diags1);
  auto r1 = fe1.compileSource(
      "tu1.cpp", "#include \"box.h\"\nvoid f1() { Box<int> b; b.put(1); }\n");
  PDB pdb1 = PDB::fromPdbFile(ilanalyzer::analyze(r1, sm1));

  SourceManager sm2;
  DiagnosticEngine diags2;
  sm2.addVirtualFile("box.h", kLibHeader);
  frontend::Frontend fe2(sm2, diags2);
  auto r2 = fe2.compileSource(
      "tu2.cpp",
      "#include \"box.h\"\nvoid f2() { Box<int> b; Box<char> c; b.put(2); }\n");
  PDB pdb2 = PDB::fromPdbFile(ilanalyzer::analyze(r2, sm2));

  const auto count = [](const PDB& p, std::string_view name) {
    std::size_t n = 0;
    for (const pdbClass* c : p.getClassVec()) n += c->name() == name;
    return n;
  };
  ASSERT_EQ(count(pdb1, "Box<int>"), 1u);
  ASSERT_EQ(count(pdb2, "Box<int>"), 1u);

  pdb1.merge(pdb2);
  EXPECT_EQ(count(pdb1, "Box<int>"), 1u);   // duplicate eliminated
  EXPECT_EQ(count(pdb1, "Box<char>"), 1u);  // new instantiation kept

  std::size_t box_templates = 0;
  for (const pdbTemplate* t : pdb1.getTemplateVec())
    box_templates += t->name() == "Box" && t->kind() == pdbItem::TE_CLASS;
  EXPECT_EQ(box_templates, 1u);

  // Both drivers survive.
  bool has_f1 = false, has_f2 = false;
  for (const pdbRoutine* r : pdb1.getRoutineVec()) {
    has_f1 |= r->name() == "f1";
    has_f2 |= r->name() == "f2";
  }
  EXPECT_TRUE(has_f1);
  EXPECT_TRUE(has_f2);

  // Shared header deduplicated; two main files remain.
  std::size_t box_h = 0;
  for (const pdbFile* f : pdb1.getFileVec()) box_h += f->name() == "box.h";
  EXPECT_EQ(box_h, 1u);
  EXPECT_EQ(pdb1.getFileVec().size(), 3u);
}

TEST(Ductape, MergeRewiresCallsAcrossUnits) {
  SourceManager sm1;
  DiagnosticEngine diags1;
  sm1.addVirtualFile("box.h", kLibHeader);
  frontend::Frontend fe1(sm1, diags1);
  auto r1 = fe1.compileSource(
      "tu1.cpp", "#include \"box.h\"\nvoid f1() { Box<int> b; b.put(1); }\n");
  PDB merged = PDB::fromPdbFile(ilanalyzer::analyze(r1, sm1));

  SourceManager sm2;
  DiagnosticEngine diags2;
  sm2.addVirtualFile("box.h", kLibHeader);
  frontend::Frontend fe2(sm2, diags2);
  auto r2 = fe2.compileSource(
      "tu2.cpp", "#include \"box.h\"\nvoid f2() { Box<int> b; b.put(2); }\n");
  PDB other = PDB::fromPdbFile(ilanalyzer::analyze(r2, sm2));

  merged.merge(other);
  // f2's call to Box<int>::put must target the single merged routine.
  const pdbRoutine* f2 = nullptr;
  const pdbRoutine* put = nullptr;
  std::size_t put_count = 0;
  for (const pdbRoutine* r : merged.getRoutineVec()) {
    if (r->name() == "f2") f2 = r;
    if (r->name() == "put") {
      put = r;
      ++put_count;
    }
  }
  ASSERT_NE(f2, nullptr);
  ASSERT_NE(put, nullptr);
  EXPECT_EQ(put_count, 1u);  // duplicate member instantiation merged away
  bool f2_calls_put = false;
  for (const pdbCall* call : f2->callees()) f2_calls_put |= call->call() == put;
  EXPECT_TRUE(f2_calls_put);
}

TEST(Ductape, MergeIsIdempotent) {
  PDB a = compileToPdb("a.cpp", kStackSource);
  PDB b = compileToPdb("a.cpp", kStackSource);
  const std::size_t before = a.getItemVec().size();
  a.merge(b);
  EXPECT_EQ(a.getItemVec().size(), before);
}

TEST(Ductape, MergePreservesDisjointContent) {
  PDB a = compileToPdb("a.cpp", "int alpha() { return 1; }\n");
  PDB b = compileToPdb("b.cpp", "int beta() { return 2; }\n");
  a.merge(b);
  bool has_alpha = false, has_beta = false;
  for (const pdbRoutine* r : a.getRoutineVec()) {
    has_alpha |= r->name() == "alpha";
    has_beta |= r->name() == "beta";
  }
  EXPECT_TRUE(has_alpha);
  EXPECT_TRUE(has_beta);
  EXPECT_EQ(a.getFileVec().size(), 2u);
}

}  // namespace
}  // namespace pdt::ductape

namespace pdt::ductape {
namespace {

TEST(Ductape, EnumConstantsExposed) {
  PDB pdb = compileToPdb("e.cpp",
                         "enum Mode { OFF, SLOW = 5, FAST };\nMode m = SLOW;\n");
  const pdbType* mode = nullptr;
  for (const pdbType* t : pdb.getTypeVec()) {
    if (t->kind() == pdbType::TY_ENUM) mode = t;
  }
  ASSERT_NE(mode, nullptr);
  ASSERT_EQ(mode->enumConstants().size(), 3u);
  EXPECT_EQ(mode->enumConstants()[0].first, "OFF");
  EXPECT_EQ(mode->enumConstants()[0].second, 0);
  EXPECT_EQ(mode->enumConstants()[1].second, 5);
  EXPECT_EQ(mode->enumConstants()[2].second, 6);
}

TEST(Ductape, EnumConstantsSurviveAsciiRoundTrip) {
  PDB pdb = compileToPdb("e.cpp", "enum Tag { A = 2, B };\nTag t = A;\n");
  std::ostringstream os;
  pdb.write(os);
  EXPECT_NE(os.str().find("yenum A 2"), std::string::npos);
  EXPECT_NE(os.str().find("yenum B 3"), std::string::npos);
}

}  // namespace
}  // namespace pdt::ductape

namespace pdt::ductape {
namespace {

// Satellite of the pdbcheck work: the whole-program call graph a merged
// database exposes. A call into a routine that is only declared in the
// calling TU must, after merging with the defining TU, resolve to the
// defined routine with symmetric callees()/callers() edges, and repeated
// merges of the same inputs must serialize to identical bytes.
TEST(Ductape, CrossTuCallEdgesAreSymmetricAndStable) {
  const auto build = [] {
    PDB a = compileToPdb(
        "caller.cpp", "int work(int v);\nint driver() { return work(3); }\n");
    PDB b = compileToPdb("callee.cpp", "int work(int v) { return v + 1; }\n");
    a.merge(b);
    return a;
  };
  PDB merged = build();

  const pdbRoutine* driver = nullptr;
  const pdbRoutine* work = nullptr;
  for (const pdbRoutine* r : merged.getRoutineVec()) {
    if (r->name() == "driver") driver = r;
    if (r->name() == "work") work = r;
  }
  ASSERT_NE(driver, nullptr);
  ASSERT_NE(work, nullptr);
  // The declaration-only 'work' from caller.cpp and the definition from
  // callee.cpp merged into one defined routine.
  EXPECT_TRUE(work->isDefined());

  bool forward = false;
  for (const pdbCall* c : driver->callees()) forward |= c->call() == work;
  EXPECT_TRUE(forward) << "driver -> work edge lost by merge";
  bool backward = false;
  for (const pdbCall* c : work->callers()) backward |= c->call() == driver;
  EXPECT_TRUE(backward) << "work's callers do not record driver";

  // Every callee edge in the merged database has its inverse.
  for (const pdbRoutine* r : merged.getRoutineVec()) {
    for (const pdbCall* c : r->callees()) {
      bool has_inverse = false;
      for (const pdbCall* back : c->call()->callers())
        has_inverse |= back->call() == r;
      EXPECT_TRUE(has_inverse) << r->fullName() << " -> "
                               << c->call()->fullName();
    }
  }

  // Stability: rebuilding from the same inputs gives the same bytes.
  EXPECT_EQ(pdb::writeToString(merged.raw()), pdb::writeToString(build().raw()));
}

TEST(Ductape, MergeUnionsNamespaceMembers) {
  PDB a = compileToPdb("a.cpp", "namespace util { void from_a() {} }\n");
  PDB b = compileToPdb("b.cpp", "namespace util { void from_b() {} }\n");
  a.merge(b);
  ASSERT_EQ(a.getNamespaceVec().size(), 1u);
  const pdbNamespace* util = a.getNamespaceVec()[0];
  std::size_t members = 0;
  bool has_a = false, has_b = false;
  for (const pdbItem* m : util->members()) {
    ++members;
    has_a |= m->name() == "from_a";
    has_b |= m->name() == "from_b";
  }
  EXPECT_EQ(members, 2u);
  EXPECT_TRUE(has_a);
  EXPECT_TRUE(has_b);
}

}  // namespace
}  // namespace pdt::ductape
