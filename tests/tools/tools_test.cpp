// Tests for the four DUCTAPE utilities (paper Table 2).
#include <gtest/gtest.h>

#include <sstream>

#include "frontend/frontend.h"
#include "ilanalyzer/analyzer.h"
#include "pdb/pdb.h"
#include "tools/tools.h"

namespace pdt::tools {
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
#define LIMIT 100
class Base {
public:
    virtual void act() {}
};
class Derived : public Base {
public:
    void act() {}
    int extra;
};
template <class T>
class Holder {
public:
    void keep(const T& x) { item = x; }
    T item;
};
void leaf() {}
void driver(Base& b) {
    Holder<int> h;
    h.keep(7);
    b.act();
    leaf();
}
)";

// ---------------------------------------------------------------------------
// pdbconv
// ---------------------------------------------------------------------------

TEST(Pdbconv, ReadableOutputListsEverything) {
  const PDB pdb = compileToPdb("sample.cpp", kSample);
  std::ostringstream os;
  pdbconv(pdb, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("Source files"), std::string::npos);
  EXPECT_NE(text.find("sample.cpp"), std::string::npos);
  EXPECT_NE(text.find("Holder<int>"), std::string::npos);
  EXPECT_NE(text.find("instantiated from template Holder"), std::string::npos);
  EXPECT_NE(text.find("base: public Base"), std::string::npos);
  EXPECT_NE(text.find("calls Base::act [virtual]"), std::string::npos);
  EXPECT_NE(text.find("LIMIT"), std::string::npos);
  EXPECT_NE(text.find("member var: extra"), std::string::npos);
}

TEST(Pdbconv, ShowsVirtualityAndDefinedness) {
  const PDB pdb = compileToPdb("v.cpp",
                               "class A { public: virtual int f() = 0; };\n");
  std::ostringstream os;
  pdbconv(pdb, os);
  EXPECT_NE(os.str().find("virtual: pure"), std::string::npos);
  EXPECT_NE(os.str().find("defined: no"), std::string::npos);
}

// ---------------------------------------------------------------------------
// pdbhtml
// ---------------------------------------------------------------------------

TEST(Pdbhtml, EmitsAnchorsAndLinks) {
  const PDB pdb = compileToPdb("sample.cpp", kSample);
  std::ostringstream os;
  pdbhtml(pdb, os, "sample");
  const std::string html = os.str();
  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  // Every class gets an anchor; references link to it.
  EXPECT_NE(html.find("id=\"cl"), std::string::npos);
  EXPECT_NE(html.find("href=\"#cl"), std::string::npos);
  EXPECT_NE(html.find("href=\"#ro"), std::string::npos);
  EXPECT_NE(html.find("href=\"#te"), std::string::npos);
}

TEST(Pdbhtml, EscapesTemplateNames) {
  const PDB pdb = compileToPdb("sample.cpp", kSample);
  std::ostringstream os;
  pdbhtml(pdb, os);
  // "Holder<int>" must appear escaped, never as a raw tag.
  EXPECT_NE(os.str().find("Holder&lt;int&gt;"), std::string::npos);
  EXPECT_EQ(os.str().find("<int>"), std::string::npos);
}

// ---------------------------------------------------------------------------
// pdbtree
// ---------------------------------------------------------------------------

TEST(Pdbtree, CallGraphMatchesFigure5Shape) {
  const PDB pdb = compileToPdb("sample.cpp", kSample);
  std::ostringstream os;
  pdbtree(pdb, TreeKind::CallGraph, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("driver"), std::string::npos);
  EXPECT_NE(text.find("`--> Holder<int>::keep"), std::string::npos);
  EXPECT_NE(text.find("(VIRTUAL)"), std::string::npos);  // b.act()
}

TEST(Pdbtree, CallGraphCutsCycles) {
  const PDB pdb = compileToPdb("cycle.cpp", R"(
void ping(int n);
void pong(int n) { if (n > 0) ping(n - 1); }
void ping(int n) { if (n > 0) pong(n - 1); }
void start() { ping(3); }
)");
  std::ostringstream os;
  pdbtree(pdb, TreeKind::CallGraph, os);
  const std::string text = os.str();
  // The recursion must terminate, marked with the Figure-5 "..." cut.
  EXPECT_NE(text.find("..."), std::string::npos);
  EXPECT_NE(text.find("ping"), std::string::npos);
  EXPECT_NE(text.find("pong"), std::string::npos);
}

TEST(Pdbtree, SelfRecursionMarked) {
  const PDB pdb = compileToPdb("rec.cpp",
                               "int fact(int n) { return n < 2 ? 1 : n * fact(n - 1); }\n"
                               "int run() { return fact(5); }\n");
  std::ostringstream os;
  pdbtree(pdb, TreeKind::CallGraph, os);
  EXPECT_NE(os.str().find("fact ..."), std::string::npos);
}

TEST(Pdbtree, ClassHierarchy) {
  const PDB pdb = compileToPdb("sample.cpp", kSample);
  std::ostringstream os;
  pdbtree(pdb, TreeKind::ClassHierarchy, os);
  const std::string text = os.str();
  const auto base_pos = text.find("Base");
  const auto derived_pos = text.find("    Derived");
  ASSERT_NE(base_pos, std::string::npos);
  ASSERT_NE(derived_pos, std::string::npos);
  EXPECT_LT(base_pos, derived_pos);  // Derived indented under Base
}

TEST(Pdbtree, IncludeTree) {
  SourceManager sm;
  DiagnosticEngine diags;
  sm.addVirtualFile("deep.h", "int deep;\n");
  sm.addVirtualFile("mid.h", "#include \"deep.h\"\nint mid;\n");
  frontend::Frontend fe(sm, diags);
  auto result = fe.compileSource("top.cpp", "#include \"mid.h\"\nint top;\n");
  const PDB pdb = PDB::fromPdbFile(ilanalyzer::analyze(result, sm));
  std::ostringstream os;
  pdbtree(pdb, TreeKind::Includes, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("top.cpp"), std::string::npos);
  EXPECT_NE(text.find("    mid.h"), std::string::npos);
  EXPECT_NE(text.find("        deep.h"), std::string::npos);
}

// ---------------------------------------------------------------------------
// pdbmerge (library entry)
// ---------------------------------------------------------------------------

TEST(Pdbmerge, MergesManyInputs) {
  std::vector<PDB> inputs;
  inputs.push_back(compileToPdb("a.cpp", "void fa() {}\n"));
  inputs.push_back(compileToPdb("b.cpp", "void fb() {}\n"));
  inputs.push_back(compileToPdb("c.cpp", "void fc() {}\n"));
  const PDB merged = pdbmerge(std::move(inputs));
  EXPECT_EQ(merged.getRoutineVec().size(), 3u);
  EXPECT_EQ(merged.getFileVec().size(), 3u);
}

TEST(Pdbmerge, EmptyInputYieldsEmptyPdb) {
  const PDB merged = pdbmerge({});
  EXPECT_TRUE(merged.getItemVec().empty());
}

}  // namespace
}  // namespace pdt::tools

namespace pdt::tools {
namespace {

TEST(Pdbhtml, TableOfContentsAndAllSections) {
  const ductape::PDB pdb = compileToPdb("sample.cpp", kSample);
  std::ostringstream os;
  pdbhtml(pdb, os);
  const std::string html = os.str();
  for (const char* anchor :
       {"#files", "#templates", "#classes", "#routines", "#namespaces",
        "#macros"}) {
    EXPECT_NE(html.find(std::string("href=\"") + anchor + "\""),
              std::string::npos)
        << anchor;
  }
  EXPECT_NE(html.find("id=\"ma"), std::string::npos);  // macro items present
  EXPECT_NE(html.find("LIMIT"), std::string::npos);
}

}  // namespace
}  // namespace pdt::tools

namespace pdt::tools {
namespace {

// Regression: entities with no recorded source location (compiler-generated
// ctors/dtors, builtins) must render as "<generated>" in every utility —
// never as an empty or garbage file:line.
TEST(LocText, MissingLocationRendersAsGenerated) {
  EXPECT_EQ(locText(ductape::pdbLoc{}), "<generated>");
}

TEST(LocText, GeneratedAppearsInConvAndHtmlOutput) {
  pdb::PdbFile raw;
  pdb::SourceFileItem file;
  file.name = "gen.cpp";
  const std::uint32_t so = raw.addSourceFile(std::move(file));
  pdb::RoutineItem located;
  located.name = "anchor";
  located.location = {so, 4, 1};
  located.defined = true;
  raw.addRoutine(std::move(located));
  pdb::RoutineItem generated;  // no location: a synthesized default ctor
  generated.name = "synth";
  generated.defined = true;
  raw.addRoutine(std::move(generated));

  const ductape::PDB pdb = ductape::PDB::fromPdbFile(raw);
  std::ostringstream conv;
  pdbconv(pdb, conv);
  EXPECT_NE(conv.str().find("<generated>"), std::string::npos);
  EXPECT_NE(conv.str().find("gen.cpp:4:1"), std::string::npos);

  std::ostringstream html;
  pdbhtml(pdb, html);
  // The HTML escapes the angle brackets but must carry the same marker.
  EXPECT_NE(html.str().find("&lt;generated&gt;"), std::string::npos);
}

// Every template kind has a name in the renderings; an alias template
// (tkind alias) must not fall through to a placeholder.
TEST(TemplateKind, AliasTemplatesAreNamedInConvAndHtml) {
  pdb::PdbFile raw;
  pdb::TemplateItem alias;
  alias.name = "Vec";
  alias.kind = "alias";
  raw.addTemplate(std::move(alias));

  const ductape::PDB pdb = ductape::PDB::fromPdbFile(std::move(raw));
  std::ostringstream conv;
  pdbconv(pdb, conv);
  EXPECT_NE(conv.str().find("Vec [alias template]"), std::string::npos)
      << conv.str();

  std::ostringstream html;
  pdbhtml(pdb, html);
  EXPECT_NE(html.str().find("<b>Vec</b> (alias template)"), std::string::npos)
      << html.str();
}

}  // namespace
}  // namespace pdt::tools
