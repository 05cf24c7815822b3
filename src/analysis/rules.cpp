#include "analysis/rules.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "analysis/dataflow.h"

namespace pdt::analysis {

using namespace ductape;

namespace {

/// A pdbFile has no location of its own; file-level diagnostics anchor at
/// its first line so they sort and render alongside the file's entities.
pdbLoc fileLoc(const pdbFile* f) {
  pdbLoc loc;
  loc.file_ptr = f;
  loc.line_ = 1;
  loc.col_ = 1;
  return loc;
}

// ---------------------------------------------------------------------------
// dead-code: routines and classes unreachable from main / exported roots
// ---------------------------------------------------------------------------

class DeadCodeRule final : public Rule {
 public:
  std::string_view name() const override { return "dead-code"; }
  std::string_view description() const override {
    return "routines and classes unreachable from main or any exported "
           "entry point (honors virtual dispatch and ctor/dtor lifetime "
           "calls)";
  }

  void run(const AnalysisContext& ctx, DiagSink& sink) const override {
    // Without an entry point (library database with no main and no
    // extern \"C\" surface) everything would be \"dead\"; stay silent.
    if (ctx.roots.empty()) return;

    std::vector<char> reached(ctx.nodes.size(), 0);
    std::vector<int> work;
    const auto mark = [&](int n) {
      if (reached[n] == 0) {
        reached[n] = 1;
        work.push_back(n);
      }
    };
    for (const int r : ctx.roots) mark(r);
    while (!work.empty()) {
      const int u = work.back();
      work.pop_back();
      for (const int v : ctx.nodes[u].succ) mark(v);
      for (const pdbRoutine* m : ctx.nodes[u].members) {
        // Virtual dispatch: a reachable virtual makes every override in
        // the hierarchy a potential call target.
        for (const pdbRoutine* o : ctx.overridesOf(m)) mark(ctx.nodeOf(o));
        // Lifetime pairing: constructing an object implies its destructor
        // runs, even when no explicit dtor call edge was recovered.
        if (m->kind() == pdbItem::RO_CTOR && m->parentClass() != nullptr) {
          for (const pdbRoutine* f : m->parentClass()->funcMembers()) {
            if (f->kind() == pdbItem::RO_DTOR) mark(ctx.nodeOf(f));
          }
        }
      }
    }

    for (std::size_t i = 0; i < ctx.nodes.size(); ++i) {
      if (reached[i] != 0) continue;
      const CallNode& n = ctx.nodes[i];
      // Pure declarations are externals whose uses we cannot see.
      const bool any_defined =
          std::any_of(n.members.begin(), n.members.end(),
                      [](const pdbRoutine* r) { return r->isDefined(); });
      if (!any_defined) continue;
      sink.report(std::string(name()), Severity::Warning,
                  "routine '" + ctx.nodeName(static_cast<int>(i)) +
                      "' is unreachable from main or any exported entry point",
                  n.rep);
    }

    for (const pdbClass* c : ctx.pdb->getClassVec()) {
      if (c->funcMembers().empty()) continue;
      bool any_defined = false;
      bool any_reached = false;
      for (const pdbRoutine* f : c->funcMembers()) {
        any_defined = any_defined || f->isDefined();
        if (reached[ctx.nodeOf(f)] != 0) any_reached = true;
      }
      if (!any_defined || any_reached) continue;
      sink.report(std::string(name()), Severity::Note,
                  "class '" + c->fullName() + "' appears dead: none of its " +
                      std::to_string(c->funcMembers().size()) +
                      " member functions is reachable",
                  c);
    }
  }
};

// ---------------------------------------------------------------------------
// recursion-cycles: SCCs of the collapsed call graph
// ---------------------------------------------------------------------------

class RecursionCycleRule final : public Rule {
 public:
  std::string_view name() const override { return "recursion-cycles"; }
  std::string_view description() const override {
    return "strongly connected components of the call graph (direct and "
           "mutual recursion), with the cycle path";
  }
  Severity defaultSeverity() const override { return Severity::Note; }

  void run(const AnalysisContext& ctx, DiagSink& sink) const override {
    // Iterative Tarjan over the collapsed graph. Nodes are visited in
    // index order and successors are sorted, so component discovery —
    // and therefore report order — is deterministic.
    const int n = static_cast<int>(ctx.nodes.size());
    std::vector<int> index(n, -1), low(n, 0);
    std::vector<char> on_stack(n, 0);
    std::vector<int> stack;
    int next_index = 0;

    struct Frame {
      int node;
      std::size_t child;
    };
    for (int start = 0; start < n; ++start) {
      if (index[start] != -1) continue;
      std::vector<Frame> frames{{start, 0}};
      index[start] = low[start] = next_index++;
      stack.push_back(start);
      on_stack[start] = 1;
      while (!frames.empty()) {
        Frame& f = frames.back();
        const auto& succ = ctx.nodes[f.node].succ;
        if (f.child < succ.size()) {
          const int w = succ[f.child++];
          if (index[w] == -1) {
            index[w] = low[w] = next_index++;
            stack.push_back(w);
            on_stack[w] = 1;
            frames.push_back({w, 0});
          } else if (on_stack[w] != 0) {
            low[f.node] = std::min(low[f.node], index[w]);
          }
        } else {
          const int v = f.node;
          frames.pop_back();
          if (!frames.empty())
            low[frames.back().node] = std::min(low[frames.back().node], low[v]);
          if (low[v] != index[v]) continue;
          std::vector<int> scc;
          int w = -1;
          do {
            w = stack.back();
            stack.pop_back();
            on_stack[w] = 0;
            scc.push_back(w);
          } while (w != v);
          reportScc(ctx, scc, sink);
        }
      }
    }
  }

 private:
  void reportScc(const AnalysisContext& ctx, std::vector<int> scc,
                 DiagSink& sink) const {
    const bool self_loop =
        scc.size() == 1 &&
        std::binary_search(ctx.nodes[scc[0]].succ.begin(),
                           ctx.nodes[scc[0]].succ.end(), scc[0]);
    if (scc.size() < 2 && !self_loop) return;
    std::sort(scc.begin(), scc.end());
    const CallNode& anchor = ctx.nodes[scc.front()];
    if (scc.size() == 1) {
      sink.report(std::string(name()), Severity::Note,
                  "routine '" + ctx.nodeName(scc.front()) +
                      "' is directly recursive",
                  anchor.rep);
      return;
    }
    std::string path;
    for (const int v : scc) {
      if (!path.empty()) path += " -> ";
      path += ctx.nodes[v].rep->fullName();
    }
    path += " -> " + anchor.rep->fullName();
    sink.report(std::string(name()), Severity::Note,
                "recursion cycle through " + std::to_string(scc.size()) +
                    " routines: " + path,
                anchor.rep);
  }
};

// ---------------------------------------------------------------------------
// hierarchy-checks: destructor/override/hiding problems in class trees
// ---------------------------------------------------------------------------

class HierarchyRule final : public Rule {
 public:
  std::string_view name() const override { return "hierarchy-checks"; }
  std::string_view description() const override {
    return "non-virtual destructors in polymorphic base classes, virtual "
           "functions that override nothing, and hidden member functions";
  }

  void run(const AnalysisContext& ctx, DiagSink& sink) const override {
    for (const pdbClass* c : ctx.pdb->getClassVec()) {
      const std::vector<const pdbClass*> ancestors = collectAncestors(c);
      checkBaseDestructor(c, ancestors, sink);
      if (ancestors.empty()) continue;
      for (const pdbRoutine* r : c->funcMembers()) {
        if (r->kind() != pdbItem::RO_NORMAL) continue;
        checkOverrideAndHiding(r, ancestors, sink);
      }
    }
  }

 private:
  void checkBaseDestructor(const pdbClass* c,
                           const std::vector<const pdbClass*>& ancestors,
                           DiagSink& sink) const {
    if (c->derivedClasses().empty()) return;
    bool has_virtual = hasVirtualMember(c);
    for (std::size_t i = 0; !has_virtual && i < ancestors.size(); ++i)
      has_virtual = hasVirtualMember(ancestors[i]);
    if (!has_virtual) return;
    const pdbRoutine* dtor = nullptr;
    for (const pdbRoutine* f : c->funcMembers()) {
      if (f->kind() == pdbItem::RO_DTOR) dtor = f;
    }
    if (dtor != nullptr && dtor->virtuality() == pdbItem::VI_NO) {
      sink.report(std::string(name()), Severity::Warning,
                  "class '" + c->fullName() +
                      "' is used as a base class of a polymorphic hierarchy "
                      "but its destructor is not virtual",
                  dtor);
    } else if (dtor == nullptr) {
      sink.report(std::string(name()), Severity::Note,
                  "class '" + c->fullName() +
                      "' is used as a base class of a polymorphic hierarchy "
                      "and relies on an implicit non-virtual destructor",
                  c);
    }
  }

  static bool hasVirtualMember(const pdbClass* c) {
    for (const pdbRoutine* f : c->funcMembers()) {
      if (f->virtuality() != pdbItem::VI_NO) return true;
    }
    return false;
  }

  void checkOverrideAndHiding(const pdbRoutine* r,
                              const std::vector<const pdbClass*>& ancestors,
                              DiagSink& sink) const {
    bool overrides_any = false;
    const pdbRoutine* hidden_virtual = nullptr;
    const pdbRoutine* hidden_plain = nullptr;
    for (const pdbClass* base : ancestors) {
      for (const pdbRoutine* v : base->funcMembers()) {
        if (v->name() != r->name() || v->kind() != pdbItem::RO_NORMAL) continue;
        if (v->virtuality() != pdbItem::VI_NO) {
          if (signaturesCompatible(r, v)) {
            overrides_any = true;
          } else if (hidden_virtual == nullptr) {
            hidden_virtual = v;
          }
        } else if (hidden_plain == nullptr) {
          hidden_plain = v;
        }
      }
    }
    if (hidden_virtual != nullptr && !overrides_any) {
      sink.report(std::string(name()), Severity::Warning,
                  "'" + r->fullName() + "' hides virtual function '" +
                      hidden_virtual->fullName() +
                      "' with a different signature (not an override)",
                  r);
    } else if (hidden_plain != nullptr && !overrides_any &&
               r->virtuality() == pdbItem::VI_NO) {
      sink.report(std::string(name()), Severity::Warning,
                  "'" + r->fullName() + "' hides non-virtual base function '" +
                      hidden_plain->fullName() + "'",
                  r);
    }
    if (r->virtuality() != pdbItem::VI_NO && !overrides_any &&
        hidden_virtual == nullptr) {
      sink.report(std::string(name()), Severity::Note,
                  "'" + r->fullName() +
                      "' is declared virtual but overrides nothing in a base "
                      "class",
                  r);
    }
  }
};

// ---------------------------------------------------------------------------
// include-graph: include cycles and unused direct includes
// ---------------------------------------------------------------------------

class IncludeGraphRule final : public Rule {
 public:
  std::string_view name() const override { return "include-graph"; }
  std::string_view description() const override {
    return "#include cycles and direct includes no entity of the including "
           "file uses";
  }

  void run(const AnalysisContext& ctx, DiagSink& sink) const override {
    reportCycles(ctx, sink);
    reportUnusedIncludes(ctx, sink);
  }

 private:
  void reportCycles(const AnalysisContext& ctx, DiagSink& sink) const {
    const auto& files = ctx.pdb->getFileVec();
    std::unordered_map<const pdbFile*, int> idx;
    for (std::size_t i = 0; i < files.size(); ++i)
      idx.emplace(files[i], static_cast<int>(i));

    // Tarjan again, over the include graph this time.
    const int n = static_cast<int>(files.size());
    std::vector<int> index(n, -1), low(n, 0);
    std::vector<char> on_stack(n, 0);
    std::vector<int> stack;
    int next_index = 0;
    struct Frame {
      int node;
      std::size_t child;
    };
    for (int start = 0; start < n; ++start) {
      if (index[start] != -1) continue;
      std::vector<Frame> frames{{start, 0}};
      index[start] = low[start] = next_index++;
      stack.push_back(start);
      on_stack[start] = 1;
      while (!frames.empty()) {
        Frame& f = frames.back();
        const auto& incs = files[f.node]->includes();
        if (f.child < incs.size()) {
          const auto it = idx.find(incs[f.child++]);
          if (it == idx.end()) continue;
          const int w = it->second;
          if (index[w] == -1) {
            index[w] = low[w] = next_index++;
            stack.push_back(w);
            on_stack[w] = 1;
            frames.push_back({w, 0});
          } else if (on_stack[w] != 0) {
            low[f.node] = std::min(low[f.node], index[w]);
          }
        } else {
          const int v = f.node;
          frames.pop_back();
          if (!frames.empty())
            low[frames.back().node] = std::min(low[frames.back().node], low[v]);
          if (low[v] != index[v]) continue;
          std::vector<int> scc;
          int w = -1;
          do {
            w = stack.back();
            stack.pop_back();
            on_stack[w] = 0;
            scc.push_back(w);
          } while (w != v);
          if (scc.size() < 2) continue;  // files cannot self-include
          std::sort(scc.begin(), scc.end());
          std::string path;
          for (const int i : scc) {
            if (!path.empty()) path += " -> ";
            path += files[i]->name();
          }
          path += " -> " + files[scc.front()]->name();
          sink.report(std::string(name()), Severity::Warning,
                      "include cycle through " + std::to_string(scc.size()) +
                          " files: " + path,
                      files[scc.front()]->name(), fileLoc(files[scc.front()]));
        }
      }
    }
  }

  void reportUnusedIncludes(const AnalysisContext& ctx, DiagSink& sink) const {
    // Which files define code entities at all? A header that contributes
    // only macros cannot be attributed (macro expansion is not recorded in
    // the PDB), so includes of such files are never flagged.
    std::unordered_set<const pdbFile*> has_code;
    const auto note = [&](const pdbLoc& loc) {
      if (loc.valid()) has_code.insert(loc.file());
    };
    for (const pdbRoutine* r : ctx.pdb->getRoutineVec()) note(r->location());
    for (const pdbClass* c : ctx.pdb->getClassVec()) note(c->location());
    for (const pdbTemplate* t : ctx.pdb->getTemplateVec()) note(t->location());

    for (const pdbFile* f : ctx.pdb->getFileVec()) {
      if (f->isSystemFile()) continue;
      const auto used = ctx.usesOf(f);
      // No attribution data for this file (it defines nothing that refers
      // anywhere): an umbrella header, skip.
      if (used.empty()) continue;
      for (const pdbFile* inc : f->includes()) {
        if (inc->isSystemFile()) continue;
        // The include is justified if anything in its transitive closure
        // is used by `f`.
        std::vector<const pdbFile*> work{inc};
        std::unordered_set<const pdbFile*> seen{inc};
        bool justified = false;
        bool closure_has_code = false;
        while (!work.empty() && !justified) {
          const pdbFile* cur = work.back();
          work.pop_back();
          if (std::find(used.begin(), used.end(), cur) != used.end())
            justified = true;
          if (has_code.contains(cur)) closure_has_code = true;
          for (const pdbFile* next : cur->includes()) {
            if (seen.insert(next).second) work.push_back(next);
          }
        }
        if (justified || !closure_has_code) continue;
        sink.report(std::string(name()), Severity::Warning,
                    "'" + f->name() + "' includes '" + inc->name() +
                        "' but uses nothing from it",
                    f->name(), fileLoc(f));
      }
    }
  }
};

// ---------------------------------------------------------------------------
// template-bloat: instantiation counts and duplicated-routine mass
// ---------------------------------------------------------------------------

class TemplateBloatRule final : public Rule {
 public:
  std::string_view name() const override { return "template-bloat"; }
  std::string_view description() const override {
    return "per-template instantiation counts and estimated duplicated "
           "routine mass (used-mode back-mapping)";
  }
  Severity defaultSeverity() const override { return Severity::Note; }

  void run(const AnalysisContext& ctx, DiagSink& sink) const override {
    std::unordered_map<const pdbTemplate*, int> class_counts;
    for (const pdbClass* c : ctx.pdb->getClassVec()) {
      if (c->isTemplate() != nullptr) ++class_counts[c->isTemplate()];
    }
    // Routine instantiations, already grouped per template member by the
    // collapsed call graph.
    struct Tally {
      int routines = 0;
      int members = 0;
      long dup_lines = 0;
    };
    std::unordered_map<const pdbTemplate*, Tally> tallies;
    for (const CallNode& n : ctx.nodes) {
      if (n.origin == nullptr) continue;
      Tally& t = tallies[n.origin];
      t.routines += static_cast<int>(n.members.size());
      t.members += 1;
      // Each instantiation beyond the first duplicates the member's body.
      for (std::size_t i = 1; i < n.members.size(); ++i)
        t.dup_lines += bodyLines(n.members[i]);
    }

    for (const pdbTemplate* t : ctx.pdb->getTemplateVec()) {
      const auto cls = class_counts.find(t);
      const auto tally = tallies.find(t);
      const int classes = cls == class_counts.end() ? 0 : cls->second;
      const Tally routines = tally == tallies.end() ? Tally{} : tally->second;
      if (classes == 0 && routines.routines == 0) continue;
      // A single instantiation is not bloat; only report templates that were
      // stamped out more than once (duplicated class or routine bodies).
      if (classes < 2 && routines.routines <= routines.members) continue;
      std::string msg = "template '" + t->fullName() + "': ";
      msg += std::to_string(classes) + " class instantiation(s), ";
      msg += std::to_string(routines.routines) + " routine instantiation(s)";
      if (routines.members > 0)
        msg += " across " + std::to_string(routines.members) + " member(s)";
      msg += "; ~" + std::to_string(routines.dup_lines) +
             " duplicated source lines";
      sink.report(std::string(name()), Severity::Note, std::move(msg), t);
    }
  }

 private:
  static long bodyLines(const pdbRoutine* r) {
    const pdbLoc& b = r->bodyBegin();
    const pdbLoc& e = r->bodyEnd();
    if (b.valid() && e.valid() && e.line() >= b.line())
      return e.line() - b.line() + 1;
    return 1;
  }
};

// ---------------------------------------------------------------------------
// Dataflow rules over the du section (PDB_FORMAT.md §du)
// ---------------------------------------------------------------------------

namespace du = pdb::du;

/// Shared base for the du-stream rules: these read the raw def-use
/// streams (which the object graph does not wrap) through the context's
/// DefUseIndex, which resolves stream positions and owning-routine ids
/// back to object-graph entities and carries each stream's prebuilt
/// CFG + reaching-defs solution (one solve shared by every rule).
class DuRuleBase : public Rule {
 public:
  pdb::Sections sections() const override {
    return kContextSections | pdb::Sections::DefUses;
  }
};

class UninitializedReadRule final : public DuRuleBase {
 public:
  std::string_view name() const override { return "uninitialized-read"; }
  std::string_view description() const override {
    return "local variables whose every reaching definition at a read is "
           "the uninitialized declaration (reaching-definitions over the "
           "du stream)";
  }

  void run(const AnalysisContext& ctx, DiagSink& sink) const override {
    const DefUseIndex& world = *ctx.du;
    for (const DefUseIndex::Stream& stream : world.streams()) {
      if (!stream.rd) continue;  // goto/label/try: no reliable CFG
      const pdb::DefUseItem& item = *stream.item;
      const dataflow::ReachingDefs& rd = *stream.rd;
      std::unordered_set<int> reported;
      for (std::size_t e = 0; e < item.events.size(); ++e) {
        const auto& ev = item.events[e];
        if (ev.op != pdb::DuOp::Use) continue;
        if ((ev.flags & du::kMember) != 0) continue;  // may alias
        const int var = rd.varOf(static_cast<dataflow::EventIndex>(e));
        if (reported.contains(var)) continue;
        // Only a must-uninitialized read fires: the declaration is the
        // sole definition reaching this use on every path.
        const auto& defs =
            rd.defsReaching(static_cast<dataflow::EventIndex>(e));
        if (defs.size() != 1) continue;
        const auto& def = item.events[defs.front()];
        if ((def.flags & du::kUninit) == 0) continue;
        reported.insert(var);
        sink.report(std::string(name()), Severity::Warning,
                    "local '" + std::string(ev.name) +
                        "' is read here but no path from its declaration "
                        "assigns it a value first",
                    world.routineName(stream), world.loc(ev.pos));
      }
    }
  }
};

class DeadStoreRule final : public DuRuleBase {
 public:
  std::string_view name() const override { return "dead-store"; }
  std::string_view description() const override {
    return "assignments to locals whose value no later read can observe "
           "(reaching-definitions over the du stream; skips escaped, "
           "member, reference, and parameter storage)";
  }

  void run(const AnalysisContext& ctx, DiagSink& sink) const override {
    const DefUseIndex& world = *ctx.du;
    for (const DefUseIndex::Stream& stream : world.streams()) {
      if (!stream.rd) continue;
      const pdb::DefUseItem& item = *stream.item;
      const dataflow::ReachingDefs& rd = *stream.rd;
      for (std::size_t var = 0; var < rd.varNames().size(); ++var) {
        if (!storeTrackable(item, rd, static_cast<int>(var))) continue;
        const auto& defs = rd.defsOf(static_cast<int>(var));
        // The first def is the declaration/initializer; redundant
        // initialization is style, not a lost value, so start at the
        // second.
        for (std::size_t d = 1; d < defs.size(); ++d) {
          if (!rd.usesReached(defs[d]).empty()) continue;
          const auto& ev = item.events[defs[d]];
          sink.report(std::string(name()), Severity::Warning,
                      "value assigned to local '" + std::string(ev.name) +
                          "' is never read",
                      world.routineName(stream), world.loc(ev.pos));
        }
      }
    }
  }

 private:
  /// A variable is store-trackable when every write we see is every write
  /// there is: no member/alias paths, no escaped or conditionally-written
  /// storage, no references (writes land elsewhere), no parameters
  /// (callers may observe via aliasing conventions).
  static bool storeTrackable(const pdb::DefUseItem& item,
                             const dataflow::ReachingDefs& rd, int var) {
    constexpr std::uint8_t kSkip =
        du::kMember | du::kReference | du::kUnknown;
    for (const auto e : rd.defsOf(var)) {
      const auto& ev = item.events[e];
      if ((ev.flags & (kSkip | du::kParam)) != 0) return false;
    }
    for (const auto e : rd.usesOf(var)) {
      if ((item.events[e].flags & kSkip) != 0) return false;
    }
    return true;
  }
};

class NullDerefRule final : public DuRuleBase {
 public:
  std::string_view name() const override { return "null-deref-candidate"; }
  std::string_view description() const override {
    return "dereferences of pointers whose every definition in the "
           "routine is a null constant (flow-insensitive over the du "
           "stream)";
  }

  void run(const AnalysisContext& ctx, DiagSink& sink) const override {
    const DefUseIndex& world = *ctx.du;
    struct VarFacts {
      std::string_view name;
      int defs = 0;
      bool all_null = true;
      bool escaped = false;  // kUnknown/kParam/kMember anywhere
      const pdb::DefUseItem::Event* first_deref = nullptr;
    };
    for (const DefUseIndex::Stream& stream : world.streams()) {
      const pdb::DefUseItem& item = *stream.item;
      // Flow-insensitive (the first Andersen-style step): one pass over
      // the stream, no CFG needed — irregular routines included.
      std::vector<VarFacts> vars;
      std::unordered_map<std::string_view, std::size_t> index;
      for (const auto& ev : item.events) {
        if (ev.op == pdb::DuOp::Marker) continue;
        const auto [it, inserted] = index.try_emplace(ev.name, vars.size());
        if (inserted) vars.push_back({.name = ev.name});
        VarFacts& v = vars[it->second];
        if ((ev.flags & (du::kMember | du::kParam | du::kUnknown)) != 0)
          v.escaped = true;
        if (ev.op == pdb::DuOp::Def) {
          ++v.defs;
          v.all_null = v.all_null && (ev.flags & du::kNullValue) != 0;
        } else if ((ev.flags & du::kDeref) != 0 && v.first_deref == nullptr) {
          v.first_deref = &ev;
        }
      }
      for (const VarFacts& v : vars) {
        if (v.defs == 0 || !v.all_null || v.escaped ||
            v.first_deref == nullptr)
          continue;
        sink.report(std::string(name()), Severity::Warning,
                    "pointer '" + std::string(v.name) +
                        "' can only hold the null value here and is "
                        "dereferenced",
                    world.routineName(stream),
                    world.loc(v.first_deref->pos));
      }
    }
  }
};

}  // namespace

const std::vector<const Rule*>& allRules() {
  static const DeadCodeRule dead_code;
  static const RecursionCycleRule recursion;
  static const HierarchyRule hierarchy;
  static const IncludeGraphRule includes;
  static const TemplateBloatRule bloat;
  static const UninitializedReadRule uninit;
  static const DeadStoreRule dead_store;
  static const NullDerefRule null_deref;
  static const std::vector<const Rule*> rules{
      &dead_code, &recursion, &hierarchy,  &includes,
      &bloat,     &uninit,    &dead_store, &null_deref};
  return rules;
}

pdb::Sections requiredSections(const std::vector<const Rule*>& rules) {
  pdb::Sections sections = kContextSections;
  for (const Rule* rule : rules) sections |= rule->sections();
  return sections;
}

std::vector<const Rule*> selectRules(std::string_view spec,
                                     std::string* error) {
  const auto& rules = allRules();
  const auto find = [&](std::string_view name) -> const Rule* {
    for (const Rule* r : rules) {
      if (r->name() == name) return r;
    }
    return nullptr;
  };

  if (spec.empty()) spec = "all";
  std::vector<std::string_view> tokens;
  while (!spec.empty()) {
    const std::size_t comma = spec.find(',');
    tokens.push_back(spec.substr(0, comma));
    spec = comma == std::string_view::npos ? std::string_view{}
                                           : spec.substr(comma + 1);
  }
  const bool only_exclusions =
      std::all_of(tokens.begin(), tokens.end(), [](std::string_view t) {
        return !t.empty() && t.front() == '-';
      });

  std::unordered_set<const Rule*> selected;
  if (only_exclusions) selected.insert(rules.begin(), rules.end());
  for (std::string_view token : tokens) {
    if (token.empty()) continue;
    const bool exclude = token.front() == '-';
    if (exclude) token.remove_prefix(1);
    if (token == "all") {
      if (exclude) {
        selected.clear();
      } else {
        selected.insert(rules.begin(), rules.end());
      }
      continue;
    }
    const Rule* rule = find(token);
    if (rule == nullptr) {
      if (error != nullptr) {
        *error = "unknown check '" + std::string(token) + "' (available:";
        for (const Rule* r : rules) *error += " " + std::string(r->name());
        *error += ")";
      }
      return {};
    }
    if (exclude) {
      selected.erase(rule);
    } else {
      selected.insert(rule);
    }
  }

  std::vector<const Rule*> out;
  for (const Rule* r : rules) {
    if (selected.contains(r)) out.push_back(r);
  }
  return out;
}

}  // namespace pdt::analysis
