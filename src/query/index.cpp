#include "query/index.h"

#include <utility>

namespace pdt::query {
namespace {

std::string locSuffix(const ductape::pdbLoc& loc) {
  if (!loc.valid()) return {};
  return " @ " + loc.file()->name() + ":" + std::to_string(loc.line()) + ":" +
         std::to_string(loc.col());
}

}  // namespace

Index::Index(pdb::SnapshotPtr snapshot)
    : Index(pdb::releasePdb(std::move(snapshot))) {}

Index::Index(pdb::PdbFile pdb)
    : owned_(ductape::PDB::fromPdbFile(std::move(pdb))), pdb_(&*owned_) {}

Index::Index(const ductape::PDB& pdb) : pdb_(&pdb) {}

void Index::graphOnce() const {
  // Every memoized builder funnels through here first: the DUCTAPE graph
  // build is logically-const lazy (triggered by the first accessor), so
  // force it under its own once_flag to give concurrent first readers a
  // single synchronized construction.
  std::call_once(graph_once_, [this] { (void)pdb_->getFileVec(); });
}

const Index::Roots& Index::roots() const {
  std::call_once(roots_once_, [this] {
    graphOnce();
    roots_.includes = pdb_->getIncludeTreeRoots();
    roots_.classes = pdb_->getClassHierarchyRoots();
    roots_.calls = pdb_->getCallTreeRoots();
  });
  return roots_;
}

const analysis::DefUseIndex& Index::defUse() const { return *defUsePtr(); }

std::shared_ptr<const analysis::DefUseIndex> Index::defUsePtr() const {
  std::call_once(du_once_, [this] {
    graphOnce();
    du_ = analysis::DefUseIndex::build(*pdb_);
  });
  return du_;
}

const analysis::AnalysisContext& Index::analysis() const {
  std::call_once(ctx_once_, [this] {
    graphOnce();
    ctx_.emplace(analysis::AnalysisContext::build(*pdb_, defUsePtr()));
  });
  return *ctx_;
}

const std::unordered_map<std::string, std::vector<std::string>>&
Index::names() const {
  std::call_once(names_once_, [this] {
    graphOnce();
    const auto add = [this](const std::string& key, std::string line) {
      if (key.empty()) return;
      names_[key].push_back(std::move(line));
    };
    // Building the lines calls fullName() on every item, which doubles as
    // the prewarm of the graph's per-item qualified-name caches.
    const auto addItem = [&](std::string_view prefix,
                             const ductape::pdbItem* item) {
      const std::string full = item->fullName();
      std::string line = std::string(prefix) + "#" +
                         std::to_string(item->id()) + " " + full +
                         locSuffix(item->location());
      if (full != item->name()) add(item->name(), line);
      add(full, std::move(line));
    };
    for (const auto* f : pdb_->getFileVec())
      add(f->name(), "so#" + std::to_string(f->id()) + " " + f->name());
    for (const auto* r : pdb_->getRoutineVec()) addItem("ro", r);
    for (const auto* c : pdb_->getClassVec()) addItem("cl", c);
    for (const auto* t : pdb_->getTypeVec()) addItem("ty", t);
    for (const auto* t : pdb_->getTemplateVec()) addItem("te", t);
    for (const auto* n : pdb_->getNamespaceVec()) addItem("na", n);
    for (const auto* m : pdb_->getMacroVec()) addItem("ma", m);
  });
  return names_;
}

std::vector<std::string> Index::lookup(const std::string& name) const {
  const auto& map = names();
  const auto it = map.find(name);
  return it == map.end() ? std::vector<std::string>{} : it->second;
}

void Index::prewarm() const {
  // The graph build and the fullName() caches are the state a first
  // reader would write outside any call_once; defUse() and analysis()
  // build under their own once_flags and may wait for first demand.
  (void)roots();
  (void)names();
}

}  // namespace pdt::query
