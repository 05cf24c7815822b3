#include <set>
#include <unordered_map>

#include "pdb/validate.h"
#include "pdt/pdt_paths.h"
#include "stage.h"
#include "util.h"

namespace perfbench {

std::vector<std::string> writeCorpus(const Corpus& corpus, const std::string& dir) {
  removeTree(dir);
  makeDirs(dir);
  std::vector<std::string> tus;
  for (const SourceFile& f : corpus.files) {
    writeFile(dir + "/" + f.name, f.text);
    if (f.name.ends_with(".cpp")) tus.push_back(dir + "/" + f.name);
  }
  return tus;
}

pdt::tools::DriverOptions corpusOptions(const std::string& dir) {
  pdt::tools::DriverOptions options;
  options.frontend.include_dirs = {
      dir, std::string(pdt::paths::kInputDir) + "/pooma_mini",
      std::string(pdt::paths::kRuntimeDir) + "/pdt_stl"};
  options.jobs = 1;
  return options;
}

std::string checkAgainst(const pdt::pdb::PdbFile& pdb, const Expectations& expect) {
  if (const auto errors = pdt::pdb::validate(pdb); !errors.empty())
    return "validate: " + errors.front();
  std::set<std::string, std::less<>> classes;
  for (const auto& c : pdb.classes()) classes.emplace(c.name);
  for (const std::string& c : expect.classes) {
    if (!classes.contains(c)) return "missing class instantiation " + c;
  }
  std::unordered_map<std::uint32_t, std::string_view> routine_name;
  std::set<std::string, std::less<>> defined;
  for (const auto& r : pdb.routines()) {
    routine_name[r.id] = r.name;
    if (r.defined) defined.emplace(r.name);
  }
  for (const std::string& r : expect.routines) {
    if (!defined.contains(r)) return "missing routine " + r;
  }
  std::set<std::string, std::less<>> edges;
  for (const auto& r : pdb.routines()) {
    for (const auto& call : r.calls) {
      const auto it = routine_name.find(call.routine);
      if (it != routine_name.end())
        edges.emplace(std::string(r.name) + "->" + std::string(it->second));
    }
  }
  for (const auto& [from, to] : expect.calls) {
    if (!edges.contains(from + "->" + to)) return "missing call " + from + "->" + to;
  }
  return {};
}

double layerMs(const LayerTable& table, const std::string& root,
               const std::string& layer) {
  const auto r = table.find(root);
  if (r == table.end()) return 0.0;
  const auto l = r->second.find(layer);
  return l == r->second.end() ? 0.0 : l->second;
}

std::vector<double> spanSelfMs(const std::vector<Span>& spans,
                               const std::string& root, const std::string& name) {
  const std::vector<std::uint64_t> self = selfTimes(spans);
  const std::vector<std::string> roots = rootNames(spans);
  std::vector<double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == name && roots[i] == root)
      out.push_back(static_cast<double>(self[i]) / 1000.0);
  }
  return out;
}

std::size_t spanCount(const std::vector<Span>& spans, const std::string& name) {
  std::size_t n = 0;
  for (const Span& s : spans) n += s.name == name ? 1 : 0;
  return n;
}

}  // namespace perfbench
