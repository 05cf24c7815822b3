#include "analysis/du_index.h"

#include "support/trace.h"

namespace pdt::analysis {

std::shared_ptr<const DefUseIndex> DefUseIndex::build(
    const ductape::PDB& pdb) {
  auto index = std::make_shared<DefUseIndex>(pdb);
  // Build the object graph here, on the building thread: file() and
  // routine() read it later from any thread.
  (void)pdb.getFileVec();
  const auto& items = pdb.raw().defUses();
  dataflow::FlowBuilder builder(index->tables_);
  std::uint64_t irregular = 0;
  index->streams_.reserve(items.size());
  for (const pdb::DefUseItem& item : items) {
    Stream& s = index->streams_.emplace_back();
    s.item = &item;
    s.routine = pdb.routineById(item.routine);
    s.cfg = builder.buildCfg(item);
    if (s.cfg.irregular()) {
      ++irregular;
    } else {
      s.rd = builder.solve(s.cfg);
    }
  }
  trace::count(trace::Counter::DuStreams, items.size());
  trace::count(trace::Counter::DuIrregular, irregular);
  trace::count(trace::Counter::DataflowWorklistIterations,
               builder.worklistSteps());
  return index;
}

ductape::pdbLoc DefUseIndex::loc(const pdb::Pos& pos) const {
  ductape::pdbLoc l;
  l.file_ptr = file(pos.file);
  l.line_ = static_cast<int>(pos.line);
  l.col_ = static_cast<int>(pos.column);
  return l;
}

std::string DefUseIndex::posText(const pdb::Pos& pos) const {
  if (!pos.valid()) return "<generated>";
  const ductape::pdbFile* f = file(pos.file);
  std::string out = f == nullptr ? std::string("<unknown file>") : f->name();
  out += ':' + std::to_string(pos.line) + ':' + std::to_string(pos.column);
  return out;
}

std::string DefUseIndex::routineName(const Stream& stream) const {
  const ductape::pdbRoutine* r = stream.routine;
  return r == nullptr ? std::string("<unknown routine>") : r->fullName();
}

bool DefUseIndex::routineMatches(const Stream& stream,
                                 const std::string& name) const {
  const ductape::pdbRoutine* r = stream.routine;
  if (r == nullptr) return false;
  // fullName() is the qualifier, "::" and name(), so only a `name` ending
  // in name() can equal it; testing that first skips building a
  // fullName() copy for almost every stream a filtered query scans.
  return r->name() == name || (std::string_view(name).ends_with(r->name()) &&
                               r->fullName() == name);
}

}  // namespace pdt::analysis
