#include "ductape/merger.h"

#include <algorithm>
#include <charconv>
#include <optional>
#include <vector>

#include "support/trace.h"

namespace pdt::ductape {

namespace {

using Slot = Merger::Slot;
using KeyMap = Merger::KeyMap;

// Identity keys that decide whether two items are the same entity. Each
// writes into `key` (reused across items, so matching a duplicate
// allocates nothing).

void appendNumber(std::string& key, std::uint32_t n) {
  char digits[10];
  const auto end = std::to_chars(digits, digits + sizeof digits, n).ptr;
  key.append(digits, end);
}

void fileKey(std::string& key, const pdb::PdbFile&,
             const pdb::SourceFileItem& f) {
  key.assign(f.name);
}

void typeKey(std::string& key, const pdb::PdbFile&, const pdb::TypeItem& t) {
  key.assign(t.kind);
  key += '|';
  key += t.name;
}

void templateKey(std::string& key, const pdb::PdbFile& owner,
                 const pdb::TemplateItem& t) {
  key.assign(t.kind);
  key += '|';
  key += t.name;
  key += '|';
  if (!t.location.valid()) {
    key += '@';
    return;
  }
  const auto* f = owner.findSourceFile(t.location.file);
  key += f != nullptr ? f->name : std::string_view("?");
  key += ':';
  appendNumber(key, t.location.line);
  key += ':';
  appendNumber(key, t.location.column);
}

void classKey(std::string& key, const pdb::PdbFile&,
              const pdb::ClassItem& c) {
  key.assign(c.name);
}

void routineKey(std::string& key, const pdb::PdbFile& owner,
                const pdb::RoutineItem& r) {
  key.clear();
  if (r.parent && r.parent->kind == pdb::ItemKind::Class) {
    if (const auto* cls = owner.findClass(r.parent->id)) key += cls->name;
  } else if (r.parent) {
    if (const auto* ns = owner.findNamespace(r.parent->id)) key += ns->name;
  }
  key += "::";
  key += r.name;
  key += '|';
  const auto* sig = owner.findType(r.signature);
  key += sig != nullptr ? sig->name : std::string_view("?");
}

void namespaceKey(std::string& key, const pdb::PdbFile&,
                  const pdb::NamespaceItem& n) {
  key.assign(n.name);
}

void macroKey(std::string& key, const pdb::MacroItem& m) {
  key.assign(m.kind);
  key += '|';
  key += m.name;
  key += '|';
  key += m.text;
}

/// Unit id -> merged id for one item kind.
class IdMap {
 public:
  void set(std::uint32_t from, std::uint32_t to) { map_[from] = to; }
  [[nodiscard]] std::optional<std::uint32_t> find(std::uint32_t from) const {
    const auto it = map_.find(from);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }
  /// Rewrites `id` when it is mapped; leaves it as is otherwise.
  void remap(std::uint32_t& id) const {
    if (const auto to = find(id)) id = *to;
  }
  void reserve(std::size_t n) { map_.reserve(n); }

 private:
  std::unordered_map<std::uint32_t, std::uint32_t> map_;
};

/// What pass 1 decided for one item of the incoming unit.
struct Fate {
  Slot slot;   // the merged item it becomes or folds onto
  bool added;  // true when it becomes a new merged item
};

/// Pass 1 for one keyed kind: keys every item of `items` once against
/// `keys`, assigning new items the ids from `next_id` and the indexes from
/// `next_pos` in order. New keys enter `keys` at once, so a later item of
/// the same unit with the same key folds onto the earlier one.
template <typename Item, typename KeyFn>
std::vector<Fate> assign(const pdb::PdbFile& unit,
                         const std::vector<Item>& items, KeyMap& keys,
                         std::uint32_t next_id, std::size_t next_pos,
                         IdMap& ids, std::string& key, KeyFn key_of) {
  std::vector<Fate> fates;
  fates.reserve(items.size());
  ids.reserve(items.size());
  for (const Item& item : items) {
    key_of(key, unit, item);
    const Slot fresh{next_id, static_cast<std::uint32_t>(next_pos)};
    const auto [it, added] = keys.try_emplace(key, fresh);
    if (added) {
      ++next_id;
      ++next_pos;
    }
    ids.set(item.id, it->second.id);
    fates.push_back({it->second, added});
  }
  return fates;
}

/// Keys every item of the first unit; the first item of each key wins.
template <typename Item, typename KeyFn>
void indexKeys(const pdb::PdbFile& file, const std::vector<Item>& items,
               KeyMap& keys, std::string& key, KeyFn key_of) {
  keys.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    key_of(key, file, items[i]);
    keys.try_emplace(key, Slot{items[i].id, static_cast<std::uint32_t>(i)});
  }
}

/// Appends each id of `from` that `to` lacks. Linear in `to`: a file's
/// include list only grows when TUs disagree about what it includes.
void unionInto(std::vector<std::uint32_t>& to,
               const std::vector<std::uint32_t>& from) {
  for (const std::uint32_t id : from)
    if (std::find(to.begin(), to.end(), id) == to.end()) to.push_back(id);
}

std::uint64_t refKey(const pdb::ItemRef& r) {
  return (std::uint64_t{static_cast<std::uint8_t>(r.kind)} << 32) | r.id;
}

/// Reference rewriting from the unit's ids to the merged ids.
struct Remap {
  IdMap files, types, templates, classes, routines, namespaces;

  void pos(pdb::Pos& p) const {
    if (const auto to = files.find(p.file))
      p.file = *to;
    else
      p = {};
  }
  void extent(pdb::Extent& e) const {
    pos(e.header_begin);
    pos(e.header_end);
    pos(e.body_begin);
    pos(e.body_end);
  }
  void ref(pdb::ItemRef& r) const {
    switch (r.kind) {
      case pdb::ItemKind::SourceFile: files.remap(r.id); break;
      case pdb::ItemKind::Type: types.remap(r.id); break;
      case pdb::ItemKind::Template: templates.remap(r.id); break;
      case pdb::ItemKind::Class: classes.remap(r.id); break;
      case pdb::ItemKind::Routine: routines.remap(r.id); break;
      case pdb::ItemKind::Namespace: namespaces.remap(r.id); break;
      default: break;
    }
  }
  void ref(std::optional<pdb::ItemRef>& r) const {
    if (r) ref(*r);
  }
  /// Keeps only the includes that map, rewritten.
  void includes(std::vector<std::uint32_t>& ids) const {
    std::size_t kept = 0;
    for (const std::uint32_t id : ids)
      if (const auto to = files.find(id)) ids[kept++] = *to;
    ids.resize(kept);
  }
  void calls(std::vector<pdb::RoutineItem::Call>& calls) const {
    for (auto& call : calls) {
      routines.remap(call.routine);
      pos(call.position);
    }
  }
};

}  // namespace

Merger::Merger(pdb::PdbFile first) : merged_(std::move(first)) {
  std::string key;
  indexKeys(merged_, merged_.sourceFiles(), files_, key, fileKey);
  indexKeys(merged_, merged_.types(), types_, key, typeKey);
  indexKeys(merged_, merged_.templates(), templates_, key, templateKey);
  indexKeys(merged_, merged_.classes(), classes_, key, classKey);
  indexKeys(merged_, merged_.routines(), routines_, key, routineKey);
  indexKeys(merged_, merged_.namespaces(), namespaces_, key, namespaceKey);
  for (const auto& m : merged_.macros()) {
    macroKey(key, m);
    macros_.insert(key);
  }
  const auto& profs = merged_.dynProfs();
  for (std::size_t i = 0; i < profs.size(); ++i)
    dyn_profs_.emplace(profs[i].name, i);
  for (const auto& d : merged_.defUses()) du_routines_.insert(d.routine);
}

void Merger::add(pdb::PdbFile&& unit) {
  PDT_TRACE_SCOPE("ductape.merge");
  trace::count(trace::Counter::MergeMerges);
  const std::size_t unit_items = unit.itemCount();
  const std::size_t items_before = merged_.itemCount();
  // Moved items keep their string views into the unit's storage.
  merged_.adoptBackingsOf(unit);

  // Pass 1: every key once, every merged id before anything moves.
  using pdb::ItemKind;
  Remap remap;
  std::string key;
  const auto plan = [&](const auto& items, KeyMap& keys, ItemKind kind,
                        std::size_t size, IdMap& ids, auto key_of) {
    return assign(unit, items, keys, merged_.nextId(kind), size, ids, key,
                  key_of);
  };
  const std::vector<Fate> files =
      plan(unit.sourceFiles(), files_, ItemKind::SourceFile,
           merged_.sourceFiles().size(), remap.files, fileKey);
  const std::vector<Fate> types = plan(unit.types(), types_, ItemKind::Type,
                                       merged_.types().size(), remap.types,
                                       typeKey);
  const std::vector<Fate> templates =
      plan(unit.templates(), templates_, ItemKind::Template,
           merged_.templates().size(), remap.templates, templateKey);
  const std::vector<Fate> classes =
      plan(unit.classes(), classes_, ItemKind::Class, merged_.classes().size(),
           remap.classes, classKey);
  const std::vector<Fate> routines =
      plan(unit.routines(), routines_, ItemKind::Routine,
           merged_.routines().size(), remap.routines, routineKey);
  const std::vector<Fate> namespaces =
      plan(unit.namespaces(), namespaces_, ItemKind::Namespace,
           merged_.namespaces().size(), remap.namespaces, namespaceKey);

  // Pass 2: move the new items in, fold the duplicates onto their match.
  // A file's includes union onto an existing list (or become it, as is,
  // when the list is empty).
  for (std::size_t i = 0; i < files.size(); ++i) {
    pdb::SourceFileItem& f = unit.sourceFiles()[i];
    remap.includes(f.includes);
    if (files[i].added) {
      f.id = files[i].slot.id;
      merged_.addSourceFile(std::move(f));
      continue;
    }
    auto& mine = merged_.sourceFiles()[files[i].slot.pos];
    if (mine.includes.empty())
      mine.includes = std::move(f.includes);
    else
      unionInto(mine.includes, f.includes);
  }

  for (std::size_t i = 0; i < types.size(); ++i) {
    if (!types[i].added) continue;
    pdb::TypeItem& t = unit.types()[i];
    t.id = types[i].slot.id;
    remap.ref(t.ref);
    remap.ref(t.return_type);
    for (auto& p : t.params) remap.ref(p);
    for (auto& e : t.exception_specs) remap.ref(e);
    merged_.addType(std::move(t));
  }

  // Templates: duplicates (same kind/name/location) are eliminated —
  // the paper's headline pdbmerge behaviour.
  for (std::size_t i = 0; i < templates.size(); ++i) {
    if (!templates[i].added) continue;
    pdb::TemplateItem& t = unit.templates()[i];
    t.id = templates[i].slot.id;
    remap.pos(t.location);
    remap.extent(t.extent);
    remap.ref(t.parent);
    merged_.addTemplate(std::move(t));
  }

  // Classes: duplicate instantiations ("Stack<int>" from two translation
  // units) collapse to one item.
  for (std::size_t i = 0; i < classes.size(); ++i) {
    if (!classes[i].added) continue;
    pdb::ClassItem& c = unit.classes()[i];
    c.id = classes[i].slot.id;
    remap.pos(c.location);
    remap.extent(c.extent);
    remap.ref(c.parent);
    if (c.template_id) remap.templates.remap(*c.template_id);
    for (auto& b : c.bases) remap.classes.remap(b.cls);
    for (auto& f : c.friends) remap.ref(f.ref);
    for (auto& mf : c.funcs) {
      remap.routines.remap(mf.routine);
      remap.pos(mf.location);
    }
    for (auto& m : c.members) {
      remap.ref(m.type);
      remap.pos(m.location);
    }
    merged_.addClass(std::move(c));
  }

  // Routines. When the duplicate pair is a declaration (one TU sees only a
  // prototype) and a definition (another TU holds the body), the merged
  // routine takes the definition — its location, extent, and call edges —
  // or the whole-program call graph loses every cross-TU edge out of it.
  for (std::size_t i = 0; i < routines.size(); ++i) {
    pdb::RoutineItem& r = unit.routines()[i];
    if (routines[i].added) {
      r.id = routines[i].slot.id;
      remap.pos(r.location);
      remap.extent(r.extent);
      remap.ref(r.parent);
      remap.types.remap(r.signature);
      if (r.template_id) remap.templates.remap(*r.template_id);
      remap.calls(r.calls);
      merged_.addRoutine(std::move(r));
      continue;
    }
    auto& mine = merged_.routines()[routines[i].slot.pos];
    if (mine.defined || !r.defined) continue;
    mine.defined = true;
    mine.location = r.location;
    remap.pos(mine.location);
    mine.extent = r.extent;
    remap.extent(mine.extent);
    mine.calls = std::move(r.calls);
    remap.calls(mine.calls);
  }

  // Namespaces: a reopened namespace unions its members onto the match.
  for (std::size_t i = 0; i < namespaces.size(); ++i) {
    pdb::NamespaceItem& n = unit.namespaces()[i];
    for (auto& m : n.members) remap.ref(m);
    if (namespaces[i].added) {
      n.id = namespaces[i].slot.id;
      remap.pos(n.location);
      merged_.addNamespace(std::move(n));
      continue;
    }
    const std::uint32_t pos = namespaces[i].slot.pos;
    auto& mine = merged_.namespaces()[pos].members;
    const auto [set, first_union] = namespace_members_.try_emplace(pos);
    if (first_union)
      for (const pdb::ItemRef& m : mine) set->second.insert(refKey(m));
    for (const pdb::ItemRef& m : n.members)
      if (set->second.insert(refKey(m)).second) mine.push_back(m);
  }

  // Macros: exact duplicates dropped.
  for (pdb::MacroItem& m : unit.macros()) {
    macroKey(key, m);
    if (!macros_.insert(key).second) continue;
    m.id = 0;
    remap.pos(m.location);
    merged_.addMacro(std::move(m));
  }

  // Dynamic profiles: one per distinct TAU profile entry, keyed by display
  // name. Profiles of the same workload from different processes/runs sum
  // instead of duplicating (mirrors tauprof's own cross-file merge). The
  // unit's new names are only matched by later units.
  const auto remapped_routine = [&](std::uint32_t id) {
    return remap.routines.find(id).value_or(0u);
  };
  const std::size_t profs_before = merged_.dynProfs().size();
  for (pdb::DynProfItem& p : unit.dynProfs()) {
    if (const auto it = dyn_profs_.find(p.name); it != dyn_profs_.end()) {
      auto& mine = merged_.dynProfs()[it->second];
      mine.calls += p.calls;
      mine.child_calls += p.child_calls;
      mine.inclusive_ns += p.inclusive_ns;
      mine.exclusive_ns += p.exclusive_ns;
      mine.threads += p.threads;
      mine.contexts += p.contexts;
      if (mine.routine == 0 && p.routine != 0)
        mine.routine = remapped_routine(p.routine);
      continue;
    }
    p.id = 0;
    if (p.routine != 0) p.routine = remapped_routine(p.routine);
    merged_.addDynProf(std::move(p));
  }
  for (std::size_t i = profs_before; i < merged_.dynProfs().size(); ++i)
    dyn_profs_.emplace(merged_.dynProfs()[i].name, i);

  // Def-use streams: one per defined routine, keyed by the merged routine
  // id; when both sides carry one (the routine was a duplicate) the first
  // wins, as only the defining TU emits a stream at all.
  for (pdb::DefUseItem& d : unit.defUses()) {
    remap.routines.remap(d.routine);
    if (!du_routines_.insert(d.routine).second) continue;
    d.id = 0;
    for (auto& e : d.events) remap.pos(e.pos);
    merged_.addDefUse(std::move(d));
  }

  // Whatever the unit carried that did not grow the merged database was a
  // duplicate folded into an existing item.
  const std::size_t grew = merged_.itemCount() - items_before;
  trace::count(trace::Counter::MergeDuplicatesElided,
               unit_items >= grew ? unit_items - grew : 0);
  // Merged items come from several files; their record offsets no longer
  // mean anything, so validation reports plain ids again.
  merged_.setOffsetUnit(pdb::OffsetUnit::None);
  // Free the emptied unit now rather than whenever the caller drops it
  // (the driver keeps every unit's slot until the whole fold is done).
  unit = pdb::PdbFile{};
}

}  // namespace pdt::ductape
