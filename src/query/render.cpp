#include "query/render.h"

#include <iomanip>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/dataflow.h"

namespace pdt::query {
namespace {

using ductape::pdbCall;
using ductape::pdbClass;
using ductape::pdbFile;
using ductape::pdbLoc;
using ductape::pdbRoutine;
using pdb::DefUseItem;
using pdb::DuOp;

namespace dataflow = analysis::dataflow;

std::string locText(const pdbLoc& loc) {
  if (!loc.valid()) return "<generated>";
  return loc.file()->name() + ":" + std::to_string(loc.line()) + ":" +
         std::to_string(loc.col());
}

/// Writes `width` spaces from a caller-owned, reusable pad buffer (the
/// deep-tree walks emit O(depth) padding per line; see tools.cpp).
void writePad(std::ostream& os, std::string& pad, int width) {
  if (width <= 0) return;
  const auto w = static_cast<std::size_t>(width);
  if (pad.size() < w) pad.resize(w, ' ');
  os.write(pad.data(), static_cast<std::streamsize>(w));
}

// The call-graph display routine of paper Figure 5, byte-identical to
// tools::printFuncTree but with the on-path marks in a local set instead
// of the graph's mutable traversal flags — concurrent renders share
// nothing.
void funcTree(const pdbRoutine* r, int level, std::ostream& os,
              std::string& pad) {
  struct Frame {
    const pdbRoutine* routine;
    std::size_t next = 0;  // index of the next callee to visit
  };
  std::vector<Frame> stack;
  std::unordered_set<const pdbRoutine*> on_path{r};
  stack.push_back({r});
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const pdbRoutine::callvec& callees = frame.routine->callees();
    if (frame.next >= callees.size()) {
      on_path.erase(frame.routine);
      stack.pop_back();
      continue;
    }
    const pdbCall* call = callees[frame.next++];
    const pdbRoutine* rr = call->call();
    const int cur = level + static_cast<int>(stack.size()) - 1;
    if (cur != 0 || !rr->callees().empty()) {
      writePad(os, pad, (cur - 1) * 5);
      if (cur) os << "`--> ";
      os << rr->fullName();
      if (call->isVirtual()) os << " (VIRTUAL)";
      if (on_path.contains(rr)) {
        os << " ... " << '\n';
      } else {
        os << '\n';
        on_path.insert(rr);
        stack.push_back({rr});  // invalidates `frame`; loop re-derives it
      }
    }
  }
}

void includeTree(const pdbFile* f, int level, std::ostream& os,
                 std::string& pad,
                 std::unordered_set<const pdbFile*>& on_path) {
  on_path.insert(f);
  writePad(os, pad, level * 4);
  os << f->name() << '\n';
  for (const pdbFile* inc : f->includes()) {
    if (on_path.contains(inc)) {
      writePad(os, pad, (level + 1) * 4);
      os << inc->name() << " ...\n";
    } else {
      includeTree(inc, level + 1, os, pad, on_path);
    }
  }
  on_path.erase(f);
}

void classTree(const pdbClass* c, int level, std::ostream& os,
               std::string& pad,
               std::unordered_set<const pdbClass*>& on_path) {
  on_path.insert(c);
  writePad(os, pad, level * 4);
  os << c->fullName() << "  [" << locText(c->location()) << "]\n";
  for (const pdbClass* d : c->derivedClasses()) {
    if (on_path.contains(d)) {
      writePad(os, pad, (level + 1) * 4);
      os << d->fullName() << " ...\n";
    } else {
      classTree(d, level + 1, os, pad, on_path);
    }
  }
  on_path.erase(c);
}

void renderProfile(const Index& index, std::ostream& os) {
  const auto& dps = index.pdb().raw().dynProfs();
  if (dps.empty()) {
    os << "(no dp section; attach one with tauprof --db-out)\n";
    return;
  }
  std::unordered_map<int, const pdbRoutine*> by_id;
  for (const pdbRoutine* r : index.pdb().getRoutineVec())
    by_id.emplace(r->id(), r);
  os << "       #Call     Excl-ms     Incl-ms  Thr  Name  "
        "[routine @ location]\n";
  const auto flags = os.flags();
  const auto precision = os.precision();
  for (const pdb::DynProfItem& p : dps) {
    os << std::setw(12) << p.calls << ' ' << std::fixed
       << std::setprecision(3) << std::setw(11)
       << static_cast<double>(p.exclusive_ns) / 1e6 << ' ' << std::setw(11)
       << static_cast<double>(p.inclusive_ns) / 1e6 << ' ' << std::setw(4)
       << p.threads << "  " << p.name;
    const auto it = by_id.find(static_cast<int>(p.routine));
    if (it != by_id.end()) {
      os << "  [ro#" << p.routine << ' ' << it->second->fullName() << " @ "
         << locText(it->second->location()) << ']';
    } else if (p.routine != 0) {
      os << "  [ro#" << p.routine << ']';
    }
    os << '\n';
    os.flags(flags);
    os.precision(precision);
  }
}

bool eventSelected(const DefUseItem::Event& e, const DefUseQuery& q) {
  if (e.op == DuOp::Marker) return false;
  if (!q.var.empty() && e.name != q.var) return false;
  if (q.line >= 0 && static_cast<int>(e.pos.line) != q.line) return false;
  if (q.col >= 0 && static_cast<int>(e.pos.column) != q.col) return false;
  return true;
}

std::string eventText(const analysis::DefUseIndex& world,
                      const DefUseItem::Event& e) {
  std::string out = e.op == DuOp::Def ? "def of '" : "use of '";
  out += std::string(e.name) + "' at " + world.posText(e.pos);
  out += " [" + pdb::du::flagsText(e.flags) + "]";
  return out;
}

}  // namespace

void renderTree(const Index& index, Tree kind, std::ostream& os) {
  std::string pad;
  switch (kind) {
    case Tree::Includes: {
      os << "Source file inclusion tree\n--------------------------\n";
      std::unordered_set<const pdbFile*> on_path;
      for (const pdbFile* root : index.roots().includes) {
        includeTree(root, 0, os, pad, on_path);
      }
      break;
    }
    case Tree::ClassHierarchy: {
      os << "Class hierarchy\n---------------\n";
      std::unordered_set<const pdbClass*> on_path;
      for (const pdbClass* root : index.roots().classes) {
        classTree(root, 0, os, pad, on_path);
      }
      break;
    }
    case Tree::CallGraph: {
      os << "Static call tree\n----------------\n";
      for (const pdbRoutine* root : index.roots().calls) {
        os << root->fullName() << '\n';
        funcTree(root, 1, os, pad);
      }
      break;
    }
    case Tree::Profile: {
      os << "Dynamic profile joined with static routines\n"
            "-------------------------------------------\n";
      renderProfile(index, os);
      break;
    }
  }
}

void renderDefUse(const Index& index, const DefUseQuery& query,
                  std::ostream& os) {
  const analysis::DefUseIndex& world = index.defUse();
  for (const analysis::DefUseIndex::Stream& stream : world.streams()) {
    const DefUseItem& item = *stream.item;
    if (!query.routine.empty() &&
        !world.routineMatches(stream, query.routine))
      continue;

    if (!query.defs && !query.uses) {
      int defs = 0, uses = 0, markers = 0;
      for (const auto& e : item.events) {
        if (e.op == DuOp::Def) ++defs;
        else if (e.op == DuOp::Use) ++uses;
        else ++markers;
      }
      os << "du#" << item.id << " routine '"
         << world.routineName(stream) << "': " << defs << " def(s), "
         << uses << " use(s), " << markers << " marker(s)\n";
      continue;
    }

    if (!stream.rd) {
      os << "routine '" << world.routineName(stream)
         << "': irregular control flow (goto/label/try); no "
            "flow-sensitive answer\n";
      continue;
    }
    const dataflow::ReachingDefs& rd = *stream.rd;
    bool header_printed = false;
    const auto header = [&] {
      if (header_printed) return;
      header_printed = true;
      os << "routine '" << world.routineName(stream) << "' (du#"
         << item.id << "):\n";
    };
    for (std::size_t e = 0; e < item.events.size(); ++e) {
      const auto& ev = item.events[e];
      if (!eventSelected(ev, query)) continue;
      const auto idx = static_cast<dataflow::EventIndex>(e);
      if (query.defs && ev.op == DuOp::Use) {
        header();
        os << "  " << eventText(world, ev) << '\n';
        const auto& defs = rd.defsReaching(idx);
        if (defs.empty()) os << "    reached by no definition\n";
        for (const auto d : defs)
          os << "    reached by " << eventText(world, item.events[d]) << '\n';
      }
      if (query.uses && ev.op == DuOp::Def) {
        header();
        os << "  " << eventText(world, ev) << '\n';
        const auto& uses = rd.usesReached(idx);
        if (uses.empty()) os << "    reaches no use\n";
        for (const auto u : uses)
          os << "    reaches " << eventText(world, item.events[u]) << '\n';
      }
    }
  }
}

void renderLookup(const Index& index, const std::string& name,
                  std::ostream& os) {
  const std::vector<std::string> lines = index.lookup(name);
  if (lines.empty()) {
    os << "no match for '" << name << "'\n";
    return;
  }
  for (const std::string& line : lines) os << line << '\n';
}

}  // namespace pdt::query
