// Merge golden: the ASCII bytes of tools::pdbmerge over a fixed set of
// units — the stack and Krylov inputs, small synthetic units, and two
// hand-written TUs in which a routine is declared in one TU and defined
// in a later one, a namespace is reopened within a TU and across TUs, a
// macro repeats, and dp profiles of the same entry sum — must equal the
// bytes checked in under data/. Any change to what the merge keys,
// renumbers, folds or drops shows up here.
//
// Absolute input paths are written as <inputs>/ and <runtime>/ so the
// golden does not depend on where the repository is checked out.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ductape/ductape.h"
#include "frontend/frontend.h"
#include "ilanalyzer/analyzer.h"
#include "pdb/writer.h"
#include "pdt/pdt_paths.h"
#include "tools/driver.h"
#include "tools/synth.h"
#include "tools/tools.h"

namespace pdt {
namespace {

constexpr const char* kDeclUnit = R"cpp(#define GEO_SCALE 2
namespace geo {
int area(int w, int h);
}
namespace geo {
int twice(int v) { return GEO_SCALE * v; }
}
int useArea() { return geo::area(3, 4) + geo::twice(1); }
)cpp";

constexpr const char* kDefUnit = R"cpp(#define GEO_SCALE 2
namespace geo {
int twice(int v);
int area(int w, int h) {
  int a = w * h;
  return a;
}
int perimeter(int w, int h) { return GEO_SCALE * (w + h); }
}
int useTwice() { return geo::twice(5) + geo::perimeter(1, 2); }
)cpp";

pdb::PdbFile compileText(const std::string& name, const std::string& text) {
  SourceManager sm;
  DiagnosticEngine diags;
  frontend::Frontend fe(sm, diags);
  auto result = fe.compileSource(name, text);
  EXPECT_TRUE(result.success) << name;
  return ilanalyzer::analyze(result, sm);
}

ductape::PDB compileInput(const std::string& file,
                          const std::vector<std::string>& include_dirs) {
  tools::DriverOptions options;
  options.frontend.include_dirs = include_dirs;
  tools::DriverResult result = tools::compileAndMerge({file}, options);
  EXPECT_TRUE(result.success) << result.diagnostics;
  return result.success ? std::move(*result.pdb) : ductape::PDB{};
}

/// A profile entry as tauprof attaches it; `routine` 0 = unmatched.
void addProfile(pdb::PdbFile& pdb, std::string_view name,
                std::uint32_t routine, std::uint64_t calls) {
  pdb::DynProfItem p;
  p.name = name;
  p.routine = routine;
  p.calls = calls;
  p.inclusive_ns = calls * 100;
  p.exclusive_ns = calls * 40;
  p.threads = 1;
  p.contexts = 1;
  pdb.addDynProf(std::move(p));
}

std::uint32_t routineId(const pdb::PdbFile& pdb, std::string_view name) {
  for (const auto& r : pdb.routines())
    if (r.name == name) return r.id;
  return 0;
}

void replaceAll(std::string& text, const std::string& from,
                const std::string& to) {
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size()))
    text.replace(at, from.size(), to);
}

std::string mergedBytes() {
  const std::string inputs = paths::kInputDir;
  const std::string runtime = paths::kRuntimeDir;
  tools::SynthOptions small;
  small.shared_classes = 3;
  small.unique_classes = 1;
  small.routines = 3;
  small.name_bytes = 16;

  pdb::PdbFile decl = compileText("geo_decl.cpp", kDeclUnit);
  addProfile(decl, "area()", routineId(decl, "area"), 3);
  addProfile(decl, "main()", 0, 1);
  pdb::PdbFile def = compileText("geo_def.cpp", kDefUnit);
  addProfile(def, "area()", routineId(def, "area"), 4);
  addProfile(def, "twice()", routineId(def, "twice"), 2);

  std::vector<ductape::PDB> units;
  units.push_back(compileInput(inputs + "/stack/TestStackAr.cpp",
                               {inputs + "/stack", runtime + "/pdt_stl"}));
  units.push_back(ductape::PDB::fromPdbFile(std::move(decl)));
  units.push_back(compileInput(inputs + "/pooma_mini/krylov.cpp",
                               {inputs + "/pooma_mini", runtime + "/pdt_stl"}));
  for (int i = 0; i < 3; ++i)
    units.push_back(ductape::PDB::fromPdbFile(tools::synthUnit(i, small)));
  units.push_back(ductape::PDB::fromPdbFile(std::move(def)));
  units.push_back(ductape::PDB::fromPdbFile(tools::synthUnit(3, small)));

  const ductape::PDB merged = tools::pdbmerge(std::move(units));
  std::string bytes = pdb::writeToString(merged.raw());
  replaceAll(bytes, inputs + "/", "<inputs>/");
  replaceAll(bytes, runtime + "/", "<runtime>/");
  return bytes;
}

TEST(MergeGolden, PdbmergeMatchesCheckedInBytes) {
  const std::string bytes = mergedBytes();
  std::ifstream in(PDT_MERGE_GOLDEN, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden " << PDT_MERGE_GOLDEN;
  std::ostringstream golden;
  golden << in.rdbuf();
  // Compared whole, but reported by first differing line: a 100 KB diff
  // in a failure message helps nobody.
  if (bytes == golden.str()) return;
  std::istringstream got(bytes), want(golden.str());
  std::string got_line, want_line;
  for (int line = 1;; ++line) {
    const bool more_got = static_cast<bool>(std::getline(got, got_line));
    const bool more_want = static_cast<bool>(std::getline(want, want_line));
    if (!more_got && !more_want) break;
    ASSERT_EQ(got_line, want_line) << "first difference at line " << line;
  }
  FAIL() << "bytes differ (line endings)";
}

}  // namespace
}  // namespace pdt
