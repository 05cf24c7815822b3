// Graph golden: everything the tools derive from the DUCTAPE object graph
// over the merged stack + Krylov database — pdbtree's three trees, the
// pdbhtml page, and the TAU instrumentor's rewrite of the stack sources —
// must equal the text checked in under data/. Any change to how the graph
// wires callees, callers, bases, derived classes, members, includes,
// parents or locations shows up here.
//
// Absolute input paths are written as <inputs>/ and <runtime>/ so the
// golden does not depend on where the repository is checked out.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ductape/ductape.h"
#include "pdt/pdt_paths.h"
#include "tau/instrumentor.h"
#include "tools/driver.h"
#include "tools/tools.h"

namespace pdt {
namespace {

ductape::PDB compileInput(const std::string& file,
                          const std::vector<std::string>& include_dirs) {
  tools::DriverOptions options;
  options.frontend.include_dirs = include_dirs;
  tools::DriverResult result = tools::compileAndMerge({file}, options);
  EXPECT_TRUE(result.success) << result.diagnostics;
  return result.success ? std::move(*result.pdb) : ductape::PDB{};
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void replaceAll(std::string& text, const std::string& from,
                const std::string& to) {
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size()))
    text.replace(at, from.size(), to);
}

std::string graphText() {
  const std::string inputs = paths::kInputDir;
  const std::string runtime = paths::kRuntimeDir;
  std::vector<ductape::PDB> units;
  units.push_back(compileInput(inputs + "/stack/TestStackAr.cpp",
                               {inputs + "/stack", runtime + "/pdt_stl"}));
  units.push_back(compileInput(inputs + "/pooma_mini/krylov.cpp",
                               {inputs + "/pooma_mini", runtime + "/pdt_stl"}));
  const ductape::PDB merged = tools::pdbmerge(std::move(units));

  std::ostringstream os;
  os << "== pdbtree --calls\n";
  tools::pdbtree(merged, tools::TreeKind::CallGraph, os);
  os << "== pdbtree --classes\n";
  tools::pdbtree(merged, tools::TreeKind::ClassHierarchy, os);
  os << "== pdbtree --includes\n";
  tools::pdbtree(merged, tools::TreeKind::Includes, os);
  os << "== pdbhtml\n";
  tools::pdbhtml(merged, os, "merged.pdb");
  for (const char* file : {"StackAr.cpp", "TestStackAr.cpp"}) {
    os << "== tau " << file << '\n';
    os << tau::instrument(merged, file, slurp(inputs + "/stack/" + file));
  }
  std::string text = os.str();
  replaceAll(text, inputs + "/", "<inputs>/");
  replaceAll(text, runtime + "/", "<runtime>/");
  return text;
}

TEST(GraphGolden, ToolOutputMatchesCheckedInText) {
  const std::string text = graphText();
  const std::string golden = slurp(PDT_GRAPH_GOLDEN);
  ASSERT_FALSE(golden.empty()) << "missing golden " << PDT_GRAPH_GOLDEN;
  if (text == golden) return;
  std::istringstream got(text), want(golden);
  std::string got_line, want_line;
  for (int line = 1;; ++line) {
    const bool more_got = static_cast<bool>(std::getline(got, got_line));
    const bool more_want = static_cast<bool>(std::getline(want, want_line));
    if (!more_got && !more_want) break;
    ASSERT_EQ(got_line, want_line) << "first difference at line " << line;
  }
  FAIL() << "text differs (line endings)";
}

}  // namespace
}  // namespace pdt
