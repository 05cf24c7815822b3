#include "analysis/context.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "support/trace.h"

namespace pdt::analysis {

using namespace ductape;

int routineArity(const pdbRoutine* r) {
  if (r->signature() == nullptr) return -1;
  return static_cast<int>(r->signature()->arguments().size());
}

bool aritiesCompatible(const pdbRoutine* a, const pdbRoutine* b) {
  const int aa = routineArity(a);
  const int ab = routineArity(b);
  return aa < 0 || ab < 0 || aa == ab;
}

bool signaturesCompatible(const pdbRoutine* a, const pdbRoutine* b) {
  const pdbType* sa = a->signature();
  const pdbType* sb = b->signature();
  if (sa == nullptr || sb == nullptr) return aritiesCompatible(a, b);
  const pdbType::typevec& pa = sa->arguments();
  const pdbType::typevec& pb = sb->arguments();
  if (pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (pa[i] == nullptr || pb[i] == nullptr) continue;
    if (pa[i]->name() != pb[i]->name()) return false;
  }
  return true;
}

namespace {

/// Follows ptr/ref/array/typedef links down to a class, if any.
const pdbClass* underlyingClass(const pdbType* t) {
  for (int depth = 0; t != nullptr && depth < 16; ++depth) {
    if (t->isClass() != nullptr) return t->isClass();
    if (t->referencedClass() != nullptr) return t->referencedClass();
    t = t->referencedType();
  }
  return nullptr;
}

void sortUniq(std::vector<int>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

/// Turns (slot, item) pairs into a CSR over `slots` slots, each slot's
/// items sorted by id and unique.
template <typename T>
void groupById(std::vector<std::pair<std::size_t, const T*>>& pairs,
               std::size_t slots, std::vector<std::uint32_t>& off,
               std::vector<const T*>& data) {
  std::sort(pairs.begin(), pairs.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first < b.first
                              : a.second->id() < b.second->id();
  });
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  off.assign(slots + 1, 0);
  data.reserve(pairs.size());
  for (const auto& [slot, item] : pairs) {
    ++off[slot + 1];
    data.push_back(item);
  }
  for (std::size_t i = 0; i < slots; ++i) off[i + 1] += off[i];
}

}  // namespace

std::vector<const pdbClass*> collectAncestors(const pdbClass* c) {
  std::vector<const pdbClass*> out;
  std::unordered_set<const pdbClass*> seen{c};
  std::vector<const pdbClass*> stack{c};
  while (!stack.empty()) {
    const pdbClass* cur = stack.back();
    stack.pop_back();
    for (const pdbBase& b : cur->baseClasses()) {
      if (b.base() == nullptr || !seen.insert(b.base()).second) continue;
      out.push_back(b.base());
      stack.push_back(b.base());
    }
  }
  return out;
}

AnalysisContext AnalysisContext::build(const PDB& pdb) {
  std::shared_ptr<const DefUseIndex> du;
  {
    PDT_TRACE_SCOPE("analysis.context.du");
    du = DefUseIndex::build(pdb);
  }
  return build(pdb, std::move(du));
}

AnalysisContext AnalysisContext::build(const PDB& pdb,
                                       std::shared_ptr<const DefUseIndex> du) {
  AnalysisContext ctx;
  ctx.pdb = &pdb;
  ctx.du = std::move(du);
  const PDB::routinevec& routines = pdb.getRoutineVec();

  {
    PDT_TRACE_SCOPE("analysis.context.graph");
    // --- Call-graph nodes: collapse corresponding template instantiations.
    // Group key: (origin template, routine name, arity). Routines without
    // a template back-link (plain routines, unattributed specializations)
    // are singleton nodes. Iteration over getRoutineVec() is id-ordered,
    // so node numbering — and everything derived from it — is
    // deterministic.
    struct GroupKey {
      const pdbTemplate* templ;
      std::string_view name;
      int arity;
      bool operator==(const GroupKey&) const = default;
    };
    struct GroupKeyHash {
      std::size_t operator()(const GroupKey& k) const {
        return std::hash<const void*>()(k.templ) ^
               (std::hash<std::string_view>()(k.name) * 31u) ^
               std::hash<int>()(k.arity);
      }
    };
    std::unordered_map<GroupKey, int, GroupKeyHash> group_node;
    ctx.node_of_.resize(routines.size());
    for (const pdbRoutine* r : routines) {
      int node = -1;
      if (r->isTemplate() != nullptr) {
        const GroupKey key{r->isTemplate(), r->name(), routineArity(r)};
        const auto [it, inserted] =
            group_node.try_emplace(key, static_cast<int>(ctx.nodes.size()));
        node = it->second;
        if (inserted) {
          ctx.nodes.emplace_back();
          ctx.nodes.back().origin = r->isTemplate();
        }
      } else {
        node = static_cast<int>(ctx.nodes.size());
        ctx.nodes.emplace_back();
      }
      CallNode& n = ctx.nodes[node];
      if (n.rep == nullptr || r->id() < n.rep->id()) n.rep = r;
      n.members.push_back(r);
      ctx.node_of_[r->ordinal()] = node;
    }
    for (CallNode& n : ctx.nodes) {
      std::sort(n.members.begin(), n.members.end(),
                [](const pdbRoutine* a, const pdbRoutine* b) {
                  return a->id() < b->id();
                });
    }

    // --- Edges.
    for (const pdbRoutine* r : routines) {
      const int u = ctx.nodeOf(r);
      for (const pdbCall* call : r->callees()) {
        const int v = ctx.nodeOf(call->call());
        ctx.nodes[u].succ.push_back(v);
        ctx.nodes[v].pred.push_back(u);
      }
    }
    for (CallNode& n : ctx.nodes) {
      sortUniq(n.succ);
      sortUniq(n.pred);
    }

    // --- Roots: main() and the defined extern "C" surface.
    for (const pdbRoutine* r : routines) {
      const bool is_main = r->fullName() == "main";
      const bool exported_c =
          r->linkage() == pdbRoutine::LK_C && r->isDefined();
      if (is_main || exported_c) ctx.roots.push_back(ctx.nodeOf(r));
    }
    sortUniq(ctx.roots);
  }

  // --- Override index.
  std::vector<std::pair<std::size_t, const pdbRoutine*>> overrides;
  for (const pdbClass* derived : pdb.getClassVec()) {
    for (const pdbClass* base : collectAncestors(derived)) {
      for (const pdbRoutine* v : base->funcMembers()) {
        if (v->virtuality() == pdbItem::VI_NO) continue;
        for (const pdbRoutine* r : derived->funcMembers()) {
          if (r->name() != v->name()) continue;
          if (!aritiesCompatible(r, v)) continue;
          overrides.emplace_back(v->ordinal(), r);
        }
      }
    }
  }
  groupById(overrides, routines.size(), ctx.override_off_, ctx.overrides_);

  // --- Include usage: which files does each file's code refer to?
  std::vector<std::pair<std::size_t, const pdbFile*>> uses;
  const auto use = [&](const pdbLoc& from, const pdbFile* to) {
    if (!from.valid() || to == nullptr || from.file() == to) return;
    uses.emplace_back(from.file()->ordinal(), to);
  };
  const auto useLoc = [&](const pdbLoc& from, const pdbLoc& to) {
    if (to.valid()) use(from, to.file());
  };
  const auto useType = [&](const pdbLoc& from, const pdbType* t) {
    if (const pdbClass* c = underlyingClass(t)) useLoc(from, c->location());
  };
  for (const pdbRoutine* r : routines) {
    const pdbLoc& at = r->location();
    for (const pdbCall* call : r->callees()) useLoc(at, call->call()->location());
    if (r->isTemplate() != nullptr) useLoc(at, r->isTemplate()->location());
    if (r->signature() != nullptr) {
      useType(at, r->signature()->returnType());
      for (const pdbType* p : r->signature()->arguments()) useType(at, p);
    }
  }
  for (const pdbClass* c : pdb.getClassVec()) {
    const pdbLoc& at = c->location();
    for (const pdbBase& b : c->baseClasses()) {
      if (b.base() != nullptr) useLoc(at, b.base()->location());
    }
    for (const pdbMember& m : c->dataMembers()) {
      if (m.classType() != nullptr) useLoc(at, m.classType()->location());
      useType(at, m.type());
    }
    if (c->isTemplate() != nullptr) useLoc(at, c->isTemplate()->location());
  }
  groupById(uses, pdb.getFileVec().size(), ctx.use_off_, ctx.uses_);
  return ctx;
}

std::string AnalysisContext::nodeName(int node) const {
  const CallNode& n = nodes[node];
  if (n.rep == nullptr) return "<unknown>";
  std::string name = n.rep->fullName();
  if (n.origin != nullptr && n.members.size() > 1) {
    name += " (template " + n.origin->name() + ", " +
            std::to_string(n.members.size()) + " instantiations)";
  }
  return name;
}

}  // namespace pdt::analysis
