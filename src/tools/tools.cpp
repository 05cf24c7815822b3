#include "tools/tools.h"

#include <iomanip>
#include <ostream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ductape/merger.h"
#include "query/render.h"
#include "support/text.h"

namespace pdt::tools {

using namespace ductape;

namespace {

std::string_view accessName(pdbItem::access_t a) {
  switch (a) {
    case pdbItem::AC_PUB: return "public";
    case pdbItem::AC_PROT: return "protected";
    case pdbItem::AC_PRIV: return "private";
    case pdbItem::AC_NA: return "NA";
  }
  return "NA";
}

std::string_view templateKindName(pdbItem::templ_t k) {
  switch (k) {
    case pdbItem::TE_CLASS: return "class template";
    case pdbItem::TE_FUNC: return "function template";
    case pdbItem::TE_MEMFUNC: return "member function template";
    case pdbItem::TE_STATMEM: return "static member template";
    case pdbItem::TE_ALIAS: return "alias template";
  }
  return "?";
}

}  // namespace

std::string locText(const pdbLoc& loc) {
  if (!loc.valid()) return "<generated>";
  return loc.file()->name() + ":" + std::to_string(loc.line()) + ":" +
         std::to_string(loc.col());
}

// ---------------------------------------------------------------------------
// pdbconv
// ---------------------------------------------------------------------------

void pdbconv(const PDB& pdb, std::ostream& os) {
  os << "Program database (PDB 1.0)\n";
  os << "==========================\n\n";

  os << "Source files (" << pdb.getFileVec().size() << "):\n";
  for (const pdbFile* f : pdb.getFileVec()) {
    os << "  so#" << f->id() << "  " << f->name() << '\n';
    for (const pdbFile* inc : f->includes()) {
      os << "      includes " << inc->name() << '\n';
    }
  }
  os << '\n';

  os << "Templates (" << pdb.getTemplateVec().size() << "):\n";
  for (const pdbTemplate* t : pdb.getTemplateVec()) {
    os << "  te#" << t->id() << "  " << t->fullName() << " ["
       << templateKindName(t->kind()) << "] at " << locText(t->location())
       << '\n';
  }
  os << '\n';

  os << "Classes (" << pdb.getClassVec().size() << "):\n";
  for (const pdbClass* c : pdb.getClassVec()) {
    os << "  cl#" << c->id() << "  " << c->fullName();
    if (c->isTemplate() != nullptr)
      os << " (instantiated from template " << c->isTemplate()->name() << ")";
    if (c->isSpecialized()) os << " (specialization)";
    os << " at " << locText(c->location()) << '\n';
    for (const pdbBase& b : c->baseClasses()) {
      os << "      base: " << accessName(b.access())
         << (b.isVirtual() ? " virtual " : " ") << b.base()->fullName() << '\n';
    }
    for (const pdbRoutine* r : c->funcMembers()) {
      os << "      member function: " << r->name() << '\n';
    }
    for (const pdbMember& m : c->dataMembers()) {
      os << "      member " << m.kind() << ": " << m.name() << " ["
         << accessName(m.access()) << "]";
      if (m.type() != nullptr) os << " : " << m.type()->name();
      if (m.classType() != nullptr) os << " : " << m.classType()->name();
      os << '\n';
    }
    for (const pdbFriend& f : c->friends()) {
      os << "      friend " << (f.isClass() ? "class " : "function ")
         << f.name() << '\n';
    }
  }
  os << '\n';

  os << "Routines (" << pdb.getRoutineVec().size() << "):\n";
  for (const pdbRoutine* r : pdb.getRoutineVec()) {
    os << "  ro#" << r->id() << "  " << r->fullName();
    if (r->signature() != nullptr) os << " : " << r->signature()->name();
    os << " at " << locText(r->location()) << '\n';
    os << "      access: " << accessName(r->access())
       << "  virtual: "
       << (r->virtuality() == pdbItem::VI_PURE
               ? "pure"
               : (r->virtuality() == pdbItem::VI_VIRT ? "yes" : "no"))
       << "  defined: " << (r->isDefined() ? "yes" : "no") << '\n';
    if (r->isTemplate() != nullptr) {
      os << "      instantiated from template " << r->isTemplate()->name()
         << " (" << templateKindName(r->isTemplate()->kind()) << ")\n";
    }
    for (const pdbCall* call : r->callees()) {
      os << "      calls " << call->call()->fullName()
         << (call->isVirtual() ? " [virtual]" : "") << " at "
         << locText(call->location()) << '\n';
    }
  }
  os << '\n';

  os << "Types (" << pdb.getTypeVec().size() << "):\n";
  for (const pdbType* t : pdb.getTypeVec()) {
    os << "  ty#" << t->id() << "  " << t->name() << '\n';
  }
  os << '\n';

  if (!pdb.getNamespaceVec().empty()) {
    os << "Namespaces (" << pdb.getNamespaceVec().size() << "):\n";
    for (const pdbNamespace* n : pdb.getNamespaceVec()) {
      os << "  na#" << n->id() << "  " << n->fullName();
      if (!n->alias().empty()) os << " (alias for " << n->alias() << ")";
      os << "  [" << n->members().size() << " members]\n";
    }
    os << '\n';
  }

  if (!pdb.getMacroVec().empty()) {
    os << "Macros (" << pdb.getMacroVec().size() << "):\n";
    for (const pdbMacro* m : pdb.getMacroVec()) {
      os << "  ma#" << m->id() << "  " << m->name()
         << (m->kind() == pdbMacro::MA_UNDEF ? " [undef]" : "") << '\n';
    }
    os << '\n';
  }

  if (!pdb.raw().dynProfs().empty()) {
    os << "Dynamic profiles (" << pdb.raw().dynProfs().size() << "):\n";
    for (const auto& p : pdb.raw().dynProfs()) {
      os << "  dp#" << p.id << "  " << p.name << "  calls=" << p.calls
         << " incl_ns=" << p.inclusive_ns << " excl_ns=" << p.exclusive_ns
         << " thr=" << p.threads << " ctx=" << p.contexts;
      if (p.routine != 0) os << "  -> ro#" << p.routine;
      os << '\n';
    }
    os << '\n';
  }
}

// ---------------------------------------------------------------------------
// pdbhtml
// ---------------------------------------------------------------------------

namespace {

std::string anchor(std::string_view prefix, int id) {
  return std::string(prefix) + std::to_string(id);
}

std::string link(std::string_view prefix, int id, const std::string& text) {
  return "<a href=\"#" + anchor(prefix, id) + "\">" + escapeHtml(text) + "</a>";
}

}  // namespace

void pdbhtml(const PDB& pdb, std::ostream& os, const std::string& title) {
  os << "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n<title>"
     << escapeHtml(title) << "</title>\n"
     << "<style>body{font-family:monospace} h2{border-bottom:1px solid #888}"
        " .item{margin:0.6em 0} .attr{margin-left:2em;color:#444}"
        " .toc li{margin:0.2em 0}</style>\n"
     << "</head>\n<body>\n<h1>" << escapeHtml(title) << "</h1>\n";

  // Summary + table of contents.
  os << "<ul class=\"toc\">\n";
  os << "<li><a href=\"#files\">Source Files</a> ("
     << pdb.getFileVec().size() << ")</li>\n";
  os << "<li><a href=\"#templates\">Templates</a> ("
     << pdb.getTemplateVec().size() << ")</li>\n";
  os << "<li><a href=\"#classes\">Classes</a> (" << pdb.getClassVec().size()
     << ")</li>\n";
  os << "<li><a href=\"#routines\">Routines</a> ("
     << pdb.getRoutineVec().size() << ")</li>\n";
  os << "<li><a href=\"#namespaces\">Namespaces</a> ("
     << pdb.getNamespaceVec().size() << ")</li>\n";
  os << "<li><a href=\"#macros\">Macros</a> (" << pdb.getMacroVec().size()
     << ")</li>\n";
  os << "</ul>\n";

  os << "<h2 id=\"files\">Source Files</h2>\n";
  for (const pdbFile* f : pdb.getFileVec()) {
    os << "<div class=\"item\" id=\"" << anchor("so", f->id()) << "\"><b>"
       << escapeHtml(f->name()) << "</b>";
    for (const pdbFile* inc : f->includes()) {
      os << "<div class=\"attr\">includes " << link("so", inc->id(), inc->name())
         << "</div>";
    }
    os << "</div>\n";
  }

  os << "<h2 id=\"templates\">Templates</h2>\n";
  for (const pdbTemplate* t : pdb.getTemplateVec()) {
    os << "<div class=\"item\" id=\"" << anchor("te", t->id()) << "\"><b>"
       << escapeHtml(t->fullName()) << "</b> ("
       << escapeHtml(std::string(templateKindName(t->kind()))) << ")";
    if (!t->text().empty())
      os << "<div class=\"attr\"><pre>" << escapeHtml(t->text()) << "</pre></div>";
    os << "</div>\n";
  }

  os << "<h2 id=\"classes\">Classes</h2>\n";
  for (const pdbClass* c : pdb.getClassVec()) {
    os << "<div class=\"item\" id=\"" << anchor("cl", c->id()) << "\"><b>"
       << escapeHtml(c->fullName()) << "</b>";
    os << "<div class=\"attr\">at " << escapeHtml(locText(c->location()))
       << "</div>";
    if (c->isTemplate() != nullptr) {
      os << "<div class=\"attr\">instantiated from "
         << link("te", c->isTemplate()->id(), c->isTemplate()->name()) << "</div>";
    }
    for (const pdbBase& b : c->baseClasses()) {
      os << "<div class=\"attr\">base "
         << link("cl", b.base()->id(), b.base()->fullName()) << "</div>";
    }
    for (const pdbRoutine* r : c->funcMembers()) {
      os << "<div class=\"attr\">member " << link("ro", r->id(), r->name())
         << "</div>";
    }
    for (const pdbMember& m : c->dataMembers()) {
      os << "<div class=\"attr\">member " << escapeHtml(m.name());
      if (m.classType() != nullptr) {
        os << " : "
           << link("cl", m.classType()->id(), m.classType()->name());
      } else if (m.type() != nullptr) {
        os << " : " << escapeHtml(m.type()->name());
      }
      os << "</div>";
    }
    os << "</div>\n";
  }

  os << "<h2 id=\"routines\">Routines</h2>\n";
  for (const pdbRoutine* r : pdb.getRoutineVec()) {
    os << "<div class=\"item\" id=\"" << anchor("ro", r->id()) << "\"><b>"
       << escapeHtml(r->fullName()) << "</b>";
    os << "<div class=\"attr\">at " << escapeHtml(locText(r->location()))
       << "</div>";
    if (r->signature() != nullptr)
      os << " <span class=\"attr\">" << escapeHtml(r->signature()->name())
         << "</span>";
    if (r->parentClass() != nullptr) {
      os << "<div class=\"attr\">member of "
         << link("cl", r->parentClass()->id(), r->parentClass()->fullName())
         << "</div>";
    }
    for (const pdbCall* call : r->callees()) {
      os << "<div class=\"attr\">calls "
         << link("ro", call->call()->id(), call->call()->fullName())
         << (call->isVirtual() ? " (virtual)" : "") << "</div>";
    }
    os << "</div>\n";
  }

  os << "<h2 id=\"namespaces\">Namespaces</h2>\n";
  for (const pdbNamespace* n : pdb.getNamespaceVec()) {
    os << "<div class=\"item\" id=\"" << anchor("na", n->id()) << "\"><b>"
       << escapeHtml(n->fullName()) << "</b>";
    if (!n->alias().empty())
      os << " (alias for " << escapeHtml(n->alias()) << ")";
    for (const pdbItem* m : n->members()) {
      os << "<div class=\"attr\">member " << escapeHtml(m->name()) << "</div>";
    }
    os << "</div>\n";
  }

  os << "<h2 id=\"macros\">Macros</h2>\n";
  for (const pdbMacro* m : pdb.getMacroVec()) {
    os << "<div class=\"item\" id=\"" << anchor("ma", m->id()) << "\"><b>"
       << escapeHtml(m->name()) << "</b>"
       << (m->kind() == pdbMacro::MA_UNDEF ? " (undef)" : "");
    if (!m->text().empty())
      os << "<div class=\"attr\"><pre>" << escapeHtml(m->text()) << "</pre></div>";
    os << "</div>\n";
  }

  os << "</body>\n</html>\n";
}

// ---------------------------------------------------------------------------
// pdbmerge
// ---------------------------------------------------------------------------

PDB pdbmerge(std::vector<PDB> inputs, std::size_t /*jobs*/) {
  if (inputs.empty()) return PDB{};
  Merger merger(std::move(inputs.front()).release());
  for (std::size_t i = 1; i < inputs.size(); ++i)
    merger.add(std::move(inputs[i]).release());
  return PDB::fromPdbFile(std::move(merger).release());
}

// ---------------------------------------------------------------------------
// pdbtree
// ---------------------------------------------------------------------------

namespace {

/// Writes `width` spaces from a caller-owned, reusable pad buffer. The
/// deep-tree walks emit O(depth) padding per line — going through the
/// ostream's setw/fill machinery for each line dominated BM_CallTreeWalk
/// (the /500 chain spends most of its bytes on indentation).
void writePad(std::ostream& os, std::string& pad, int width) {
  if (width <= 0) return;
  const auto w = static_cast<std::size_t>(width);
  if (pad.size() < w) pad.resize(w, ' ');
  os.write(pad.data(), static_cast<std::streamsize>(w));
}

}  // namespace

// The call-graph display routine of paper Figure 5, with the same output
// byte for byte. The paper's version recurses per callee and re-copies
// each callvec; on deep call chains (BM_CallTreeWalk/500) that walk is
// hot, so this implementation drives an explicit worklist instead:
// no per-node vector copies, no recursion depth limit, and indentation
// comes from a single reusable pad buffer.
void printFuncTree(const pdbRoutine* r, int level, std::ostream& os) {
  struct Frame {
    const pdbRoutine* routine;
    std::size_t next = 0;  // index of the next callee to visit
  };
  std::string pad;
  std::vector<Frame> stack;
  r->flag(ACTIVE);
  stack.push_back({r});
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const pdbRoutine::callvec& callees = frame.routine->callees();
    if (frame.next >= callees.size()) {
      frame.routine->flag(INACTIVE);
      stack.pop_back();
      continue;
    }
    const pdbCall* call = callees[frame.next++];
    const pdbRoutine* rr = call->call();
    // The routine on top of the stack prints its callees at `level` plus
    // its depth below the root — exactly the paper's level parameter.
    const int cur = level + static_cast<int>(stack.size()) - 1;
    if (cur != 0 || !rr->callees().empty()) {
      writePad(os, pad, (cur - 1) * 5);
      if (cur) os << "`--> ";
      os << rr->fullName();
      if (call->isVirtual()) os << " (VIRTUAL)";
      if (rr->flag() == ACTIVE) {
        os << " ... " << '\n';
      } else {
        os << '\n';
        rr->flag(ACTIVE);
        stack.push_back({rr});  // invalidates `frame`; loop re-derives it
      }
    }
  }
}

void pdbtree(const PDB& pdb, TreeKind kind, std::ostream& os) {
  // The tree walkers live in the shared query layer now (so pdbd serves
  // the same bytes); a borrowed Index memoizes the roots for this call.
  const query::Index index(pdb);
  switch (kind) {
    case TreeKind::Includes:
      query::renderTree(index, query::Tree::Includes, os);
      break;
    case TreeKind::ClassHierarchy:
      query::renderTree(index, query::Tree::ClassHierarchy, os);
      break;
    case TreeKind::CallGraph:
      query::renderTree(index, query::Tree::CallGraph, os);
      break;
    case TreeKind::Profile:
      query::renderTree(index, query::Tree::Profile, os);
      break;
  }
}

}  // namespace pdt::tools
