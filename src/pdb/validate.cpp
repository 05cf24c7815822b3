#include "pdb/validate.h"

#include <optional>
#include <string_view>

namespace pdt::pdb {

namespace {

class Validator {
 public:
  Validator(const PdbFile& pdb, Sections loaded) : pdb_(pdb), loaded_(loaded) {}

  std::vector<std::string> run() {
    for (const auto& f : pdb_.sourceFiles()) {
      item_ = {"source file", f.name, ItemKind::SourceFile, f.id, f.src_offset};
      checkUnique(f, pdb_.findSourceFile(f.id));
      for (const std::uint32_t inc : f.includes) {
        if (checkable(ItemKind::SourceFile) && pdb_.findSourceFile(inc) == nullptr)
          fail("includes undefined so#" + std::to_string(inc));
      }
    }
    for (const auto& r : pdb_.routines()) {
      item_ = {"routine", r.name, ItemKind::Routine, r.id, r.src_offset};
      checkUnique(r, pdb_.findRoutine(r.id));
      checkPos(r.location, "location");
      checkParent(r.parent);
      if (checkable(ItemKind::Type) && r.signature != 0 &&
          pdb_.findType(r.signature) == nullptr)
        fail("signature references undefined ty#" + std::to_string(r.signature));
      if (checkable(ItemKind::Template) && r.template_id &&
          pdb_.findTemplate(*r.template_id) == nullptr)
        fail("rtempl references undefined te#" + std::to_string(*r.template_id));
      for (const auto& call : r.calls) {
        if (checkable(ItemKind::Routine) &&
            pdb_.findRoutine(call.routine) == nullptr)
          fail("call references undefined ro#" + std::to_string(call.routine));
        checkPos(call.position, "call site");
      }
      checkExtent(r.extent);
    }
    for (const auto& c : pdb_.classes()) {
      item_ = {"class", c.name, ItemKind::Class, c.id, c.src_offset};
      checkUnique(c, pdb_.findClass(c.id));
      checkPos(c.location, "location");
      checkParent(c.parent);
      if (checkable(ItemKind::Template) && c.template_id &&
          pdb_.findTemplate(*c.template_id) == nullptr)
        fail("ctempl references undefined te#" + std::to_string(*c.template_id));
      for (const auto& b : c.bases) {
        if (checkable(ItemKind::Class) && pdb_.findClass(b.cls) == nullptr)
          fail("base references undefined cl#" + std::to_string(b.cls));
      }
      for (const auto& fr : c.friends) {
        if (fr.ref) checkRef(*fr.ref, "friend");
      }
      for (const auto& mf : c.funcs) {
        if (checkable(ItemKind::Routine) &&
            pdb_.findRoutine(mf.routine) == nullptr)
          fail("member function references undefined ro#" +
               std::to_string(mf.routine));
        checkPos(mf.location, "member function");
      }
      for (const auto& m : c.members) {
        checkRef(m.type, {"member", m.name, " type"});
        checkPos(m.location, {"member", m.name});
      }
      checkExtent(c.extent);
    }
    for (const auto& t : pdb_.types()) {
      item_ = {"type", t.name, ItemKind::Type, t.id, t.src_offset};
      checkUnique(t, pdb_.findType(t.id));
      if (t.ref) checkRef(*t.ref, "referenced type");
      if (t.return_type) checkRef(*t.return_type, "return type");
      for (const auto& p : t.params) checkRef(p, "parameter type");
      for (const auto& e : t.exception_specs) checkRef(e, "exception spec");
    }
    for (const auto& t : pdb_.templates()) {
      item_ = {"template", t.name, ItemKind::Template, t.id, t.src_offset};
      checkUnique(t, pdb_.findTemplate(t.id));
      checkPos(t.location, "location");
      checkParent(t.parent);
      checkExtent(t.extent);
    }
    for (const auto& n : pdb_.namespaces()) {
      item_ = {"namespace", n.name, ItemKind::Namespace, n.id, n.src_offset};
      checkUnique(n, pdb_.findNamespace(n.id));
      checkPos(n.location, "location");
      for (const auto& m : n.members) checkRef(m, "member");
    }
    for (const auto& m : pdb_.macros()) {
      item_ = {"macro", m.name, ItemKind::Macro, m.id, m.src_offset};
      checkUnique(m, pdb_.findMacro(m.id));
      checkPos(m.location, "location");
    }
    for (const auto& d : pdb_.defUses()) {
      item_ = {"def-use stream", std::nullopt, ItemKind::DefUse, d.id,
               d.src_offset};
      checkUnique(d, pdb_.findDefUse(d.id));
      if (checkable(ItemKind::Routine) && d.routine != 0 &&
          pdb_.findRoutine(d.routine) == nullptr)
        fail("belongs to undefined ro#" + std::to_string(d.routine));
      if (d.routine == 0) fail("has no owning routine");
      for (const auto& e : d.events)
        checkPos(e.pos, {"event", e.name});
    }
    for (const auto& p : pdb_.dynProfs()) {
      item_ = {"dynamic profile", p.name, ItemKind::DynProf, p.id, p.src_offset};
      checkUnique(p, pdb_.findDynProf(p.id));
      if (checkable(ItemKind::Routine) && p.routine != 0 &&
          pdb_.findRoutine(p.routine) == nullptr)
        fail("links undefined ro#" + std::to_string(p.routine));
      if (p.inclusive_ns < p.exclusive_ns)
        fail("inclusive time " + std::to_string(p.inclusive_ns) +
             "ns below exclusive time " + std::to_string(p.exclusive_ns) +
             "ns");
    }
    return std::move(errors_);
  }

 private:
  /// True when references *to* this kind can be resolved — i.e. the
  /// section was materialized. A lazy read leaves sections out on purpose;
  /// dangling edges into them are expected, not corruption.
  [[nodiscard]] bool checkable(ItemKind kind) const {
    return hasSections(loaded_, sectionOf(kind));
  }

  /// What a check is about: plain text ("location"), or text naming a
  /// member or an event ("member 'x' type"). Rendered only on failure.
  struct Label {
    /// Implicit, so plain labels are written as string literals.
    Label(const char* text) : text(text) {}
    Label(std::string_view text, std::string_view quoted,
          std::string_view suffix = {})
        : text(text), quoted(quoted), suffix(suffix) {}

    [[nodiscard]] std::string str() const {
      if (!quoted) return std::string(text);
      return std::string(text) + " '" + std::string(*quoted) + "'" +
             std::string(suffix);
    }

    std::string_view text;
    std::optional<std::string_view> quoted;
    std::string_view suffix;
  };

  /// "routine 'f' (ro#3, line 42)": the item's kind, name, id, and where
  /// its record lives in the file it was read from — ", line N" (ASCII),
  /// ", byte N of <prefix> section" (binary; offsets are section-relative
  /// so the section is named too), or nothing for databases built in
  /// memory — so corrupt files are actionable.
  [[nodiscard]] std::string where() const {
    std::string out(item_.noun);
    if (item_.name) out += " '" + std::string(*item_.name) + "'";
    out += " (" + std::string(prefixOf(item_.kind)) + "#" + std::to_string(item_.id);
    if (const std::string at = recordAt(item_.offset); !at.empty()) out += ", " + at;
    return out + ")";
  }

  /// Where a record of the current item's kind lives: "line N", "byte N
  /// of <prefix> section", or "" for a database built in memory.
  [[nodiscard]] std::string recordAt(std::uint64_t offset) const {
    switch (pdb_.offsetUnit()) {
      case OffsetUnit::Line: return "line " + std::to_string(offset);
      case OffsetUnit::Byte:
        return "byte " + std::to_string(offset) + " of " +
               std::string(prefixOf(item_.kind)) + " section";
      case OffsetUnit::None: break;
    }
    return {};
  }

  void fail(const std::string& what) {
    errors_.push_back(where() + ": " + what);
  }

  /// Ids are unique per kind. The id index keeps the last record with an
  /// id, so a record the index does not point at is repeated by that one.
  template <typename Record>
  void checkUnique(const Record& record, const Record* indexed) {
    if (indexed == nullptr || indexed == &record) return;
    std::string other(item_.noun);
    if constexpr (requires(const Record& r) { r.name; })
      other += " '" + std::string(indexed->name) + "'";
    if (const std::string at = recordAt(indexed->src_offset); !at.empty())
      other += " (" + at + ")";
    fail("id repeated by " + other);
  }

  void checkPos(const Pos& pos, const Label& what) {
    if (!checkable(ItemKind::SourceFile)) return;
    if (pos.file != 0 && pdb_.findSourceFile(pos.file) == nullptr)
      fail(what.str() + " references undefined so#" + std::to_string(pos.file));
  }

  void checkExtent(const Extent& e) {
    checkPos(e.header_begin, "header begin");
    checkPos(e.header_end, "header end");
    checkPos(e.body_begin, "body begin");
    checkPos(e.body_end, "body end");
  }

  void checkParent(const std::optional<ItemRef>& parent) {
    if (parent) checkRef(*parent, "parent");
  }

  void checkRef(const ItemRef& ref, const Label& what) {
    if (ref.id == 0 || !checkable(ref.kind)) return;
    bool found = false;
    switch (ref.kind) {
      case ItemKind::SourceFile: found = pdb_.findSourceFile(ref.id) != nullptr; break;
      case ItemKind::Routine: found = pdb_.findRoutine(ref.id) != nullptr; break;
      case ItemKind::Class: found = pdb_.findClass(ref.id) != nullptr; break;
      case ItemKind::Type: found = pdb_.findType(ref.id) != nullptr; break;
      case ItemKind::Template: found = pdb_.findTemplate(ref.id) != nullptr; break;
      case ItemKind::Namespace: found = pdb_.findNamespace(ref.id) != nullptr; break;
      case ItemKind::Macro: found = pdb_.findMacro(ref.id) != nullptr; break;
      case ItemKind::DefUse: found = pdb_.findDefUse(ref.id) != nullptr; break;
      case ItemKind::DynProf: found = pdb_.findDynProf(ref.id) != nullptr; break;
    }
    if (!found) fail(what.str() + " references undefined " + ref.str());
  }

  /// The item under check; described only if one of its checks fails.
  struct Item {
    std::string_view noun;
    std::optional<std::string_view> name;
    ItemKind kind = ItemKind::SourceFile;
    std::uint32_t id = 0;
    std::uint64_t offset = 0;
  };

  const PdbFile& pdb_;
  Sections loaded_;
  Item item_;
  std::vector<std::string> errors_;
};

}  // namespace

std::vector<std::string> validate(const PdbFile& pdb) {
  return Validator(pdb, Sections::All).run();
}

std::vector<std::string> validate(const PdbFile& pdb, Sections loaded) {
  return Validator(pdb, loaded).run();
}

}  // namespace pdt::pdb
