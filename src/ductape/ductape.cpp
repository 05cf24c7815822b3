#include "ductape/ductape.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <unordered_map>
#include <unordered_set>

#include "pdb/reader.h"
#include "pdb/snapshot.h"
#include "pdb/writer.h"
#include "support/trace.h"

namespace pdt::ductape {

PDB::PDB() = default;
PDB::~PDB() = default;
PDB::PDB(PDB&&) noexcept = default;
PDB& PDB::operator=(PDB&&) noexcept = default;

std::string pdbItem::fullName() const {
  if (parent_class_ == nullptr && parent_nspace_ == nullptr) return name_;
  if (full_name_.empty()) {
    const std::string parent = parent_class_ != nullptr
                                   ? parent_class_->fullName()
                                   : parent_nspace_->fullName();
    full_name_.reserve(parent.size() + 2 + name_.size());
    full_name_ = parent;
    full_name_ += "::";
    full_name_ += name_;
  }
  return full_name_;
}

// ---------------------------------------------------------------------------
// Construction from the typed representation
// ---------------------------------------------------------------------------

PDB PDB::fromPdbFile(pdb::PdbFile file) {
  PDB out;
  out.raw_ = std::move(file);
  out.graph_dirty_ = true;
  return out;
}

PDB PDB::read(const std::string& path) {
  return read(path, pdb::Sections::All);
}

PDB PDB::read(const std::string& path, pdb::Sections sections) {
  auto result = pdb::open(path, sections);
  if (!result.ok()) {
    PDB out;
    out.error_ = result.opened ? path + ": " + result.errors.front()
                               : "cannot open '" + path + "'";
    return out;
  }
  return fromPdbFile(pdb::releasePdb(std::move(result.snapshot)));
}

const pdbFile* PDB::fileById(std::uint32_t id) const {
  const pdb::SourceFileItem* item = raw_.findSourceFile(id);
  if (item == nullptr) return nullptr;
  // build() creates one object per raw item, in raw order.
  return getFileVec()[static_cast<std::size_t>(item - raw_.sourceFiles().data())];
}

const pdbRoutine* PDB::routineById(std::uint32_t id) const {
  const pdb::RoutineItem* item = raw_.findRoutine(id);
  if (item == nullptr) return nullptr;
  return getRoutineVec()[static_cast<std::size_t>(item - raw_.routines().data())];
}

bool PDB::write(const std::string& path) const {
  return pdb::writeToFile(raw_, path);
}

bool PDB::write(const std::string& path, pdb::Format format) const {
  return pdb::writeFile(raw_, path, format);
}

void PDB::write(std::ostream& os) const { pdb::write(raw_, os); }

void PDB::ensureBuilt() const {
  if (!graph_dirty_) return;
  // Logically-const lazy construction; instances are single-thread-confined.
  auto* self = const_cast<PDB*>(this);
  self->build();
  self->graph_dirty_ = false;
}

void PDB::build() {
  file_storage_.clear();
  routine_storage_.clear();
  class_storage_.clear();
  type_storage_.clear();
  template_storage_.clear();
  namespace_storage_.clear();
  macro_storage_.clear();
  call_storage_.clear();
  files_.clear();
  routines_.clear();
  classes_.clear();
  types_.clear();
  templates_.clear();
  namespaces_.clear();
  macros_.clear();

  std::unordered_map<std::uint32_t, pdbFile*> file_by_id;
  std::unordered_map<std::uint32_t, pdbRoutine*> routine_by_id;
  std::unordered_map<std::uint32_t, pdbClass*> class_by_id;
  std::unordered_map<std::uint32_t, pdbType*> type_by_id;
  std::unordered_map<std::uint32_t, pdbTemplate*> template_by_id;
  std::unordered_map<std::uint32_t, pdbNamespace*> namespace_by_id;

  // Pass 1: create all objects so cross-references can be wired in pass 2.
  for (const auto& f : raw_.sourceFiles()) {
    auto obj = std::make_unique<pdbFile>(std::string(f.name), static_cast<int>(f.id));
    obj->system_ = f.system;
    file_by_id[f.id] = obj.get();
    obj->ordinal_ = static_cast<std::uint32_t>(files_.size());
    files_.push_back(obj.get());
    file_storage_.push_back(std::move(obj));
  }
  for (const auto& r : raw_.routines()) {
    auto obj = std::make_unique<pdbRoutine>(std::string(r.name), static_cast<int>(r.id));
    routine_by_id[r.id] = obj.get();
    obj->ordinal_ = static_cast<std::uint32_t>(routines_.size());
    routines_.push_back(obj.get());
    routine_storage_.push_back(std::move(obj));
  }
  for (const auto& c : raw_.classes()) {
    auto obj = std::make_unique<pdbClass>(std::string(c.name), static_cast<int>(c.id));
    class_by_id[c.id] = obj.get();
    obj->ordinal_ = static_cast<std::uint32_t>(classes_.size());
    classes_.push_back(obj.get());
    class_storage_.push_back(std::move(obj));
  }
  for (const auto& t : raw_.types()) {
    auto obj = std::make_unique<pdbType>(std::string(t.name), static_cast<int>(t.id));
    type_by_id[t.id] = obj.get();
    obj->ordinal_ = static_cast<std::uint32_t>(types_.size());
    types_.push_back(obj.get());
    type_storage_.push_back(std::move(obj));
  }
  for (const auto& t : raw_.templates()) {
    auto obj = std::make_unique<pdbTemplate>(std::string(t.name), static_cast<int>(t.id));
    template_by_id[t.id] = obj.get();
    obj->ordinal_ = static_cast<std::uint32_t>(templates_.size());
    templates_.push_back(obj.get());
    template_storage_.push_back(std::move(obj));
  }
  for (const auto& n : raw_.namespaces()) {
    auto obj = std::make_unique<pdbNamespace>(std::string(n.name), static_cast<int>(n.id));
    namespace_by_id[n.id] = obj.get();
    obj->ordinal_ = static_cast<std::uint32_t>(namespaces_.size());
    namespaces_.push_back(obj.get());
    namespace_storage_.push_back(std::move(obj));
  }
  for (const auto& m : raw_.macros()) {
    auto obj = std::make_unique<pdbMacro>(std::string(m.name), static_cast<int>(m.id));
    obj->kind_ = m.kind == "undef" ? pdbMacro::MA_UNDEF : pdbMacro::MA_DEF;
    obj->text_ = m.text;
    obj->ordinal_ = static_cast<std::uint32_t>(macros_.size());
    macros_.push_back(obj.get());
    macro_storage_.push_back(std::move(obj));
  }

  const auto loc = [&](const pdb::Pos& pos) -> pdbLoc {
    pdbLoc l;
    if (const auto it = file_by_id.find(pos.file); it != file_by_id.end())
      l.file_ptr = it->second;
    l.line_ = static_cast<int>(pos.line);
    l.col_ = static_cast<int>(pos.column);
    return l;
  };
  const auto access = [](std::string_view a) {
    if (a == "pub") return pdbItem::AC_PUB;
    if (a == "prot") return pdbItem::AC_PROT;
    if (a == "priv") return pdbItem::AC_PRIV;
    return pdbItem::AC_NA;
  };
  const auto typeOf = [&](const pdb::ItemRef& ref) -> const pdbType* {
    if (ref.kind != pdb::ItemKind::Type) return nullptr;
    const auto it = type_by_id.find(ref.id);
    return it == type_by_id.end() ? nullptr : it->second;
  };
  const auto classOf = [&](const pdb::ItemRef& ref) -> const pdbClass* {
    if (ref.kind != pdb::ItemKind::Class) return nullptr;
    const auto it = class_by_id.find(ref.id);
    return it == class_by_id.end() ? nullptr : it->second;
  };
  const auto setParent = [&](pdbItem* item, const std::optional<pdb::ItemRef>& p) {
    if (!p) return;
    if (p->kind == pdb::ItemKind::Class) {
      if (const auto it = class_by_id.find(p->id); it != class_by_id.end())
        item->parent_class_ = it->second;
    } else if (p->kind == pdb::ItemKind::Namespace) {
      if (const auto it = namespace_by_id.find(p->id); it != namespace_by_id.end())
        item->parent_nspace_ = it->second;
    }
  };
  const auto setFat = [&](pdbFatItem* item, const pdb::Extent& e) {
    item->head_begin_ = loc(e.header_begin);
    item->head_end_ = loc(e.header_end);
    item->body_begin_ = loc(e.body_begin);
    item->body_end_ = loc(e.body_end);
  };

  // Pass 2: wire attributes and cross-references.
  for (const auto& f : raw_.sourceFiles()) {
    pdbFile* obj = file_by_id.at(f.id);
    for (const std::uint32_t inc : f.includes) {
      if (const auto it = file_by_id.find(inc); it != file_by_id.end())
        obj->includes_.push_back(it->second);
    }
  }
  for (const auto& t : raw_.types()) {
    pdbType* obj = type_by_id.at(t.id);
    if (t.kind == "bool") obj->kind_ = pdbType::TY_BOOL;
    else if (t.kind == "char") obj->kind_ = pdbType::TY_CHAR;
    else if (t.kind == "int") obj->kind_ = pdbType::TY_INT;
    else if (t.kind == "float") obj->kind_ = pdbType::TY_FLOAT;
    else if (t.kind == "void") obj->kind_ = pdbType::TY_VOID;
    else if (t.kind == "wchar") obj->kind_ = pdbType::TY_WCHAR;
    else if (t.kind == "ptr") obj->kind_ = pdbType::TY_PTR;
    else if (t.kind == "ref") obj->kind_ = pdbType::TY_REF;
    else if (t.kind == "tref") obj->kind_ = pdbType::TY_TREF;
    else if (t.kind == "func") obj->kind_ = pdbType::TY_FUNC;
    else if (t.kind == "enum") obj->kind_ = pdbType::TY_ENUM;
    else if (t.kind == "array") obj->kind_ = pdbType::TY_ARRAY;
    else if (t.kind == "class") obj->kind_ = pdbType::TY_CLASS;
    else if (t.kind == "tparam") obj->kind_ = pdbType::TY_TPARAM;
    else if (t.kind == "typedef") obj->kind_ = pdbType::TY_TYPEDEF;
    else obj->kind_ = pdbType::TY_OTHER;
    if (t.ref) {
      obj->referenced_ = typeOf(*t.ref);
      obj->referenced_class_ = classOf(*t.ref);
    }
    for (const std::string_view q : t.qualifiers) {
      if (q == "const") obj->is_const_ = true;
      if (q == "volatile") obj->is_volatile_ = true;
    }
    if (t.return_type) obj->return_type_ = typeOf(*t.return_type);
    for (const auto& p : t.params) {
      if (const pdbType* pt = typeOf(p)) obj->arguments_.push_back(pt);
    }
    obj->ellipsis_ = t.has_ellipsis;
    for (const auto& e : t.exception_specs) {
      if (const pdbType* et = typeOf(e)) obj->exception_spec_.push_back(et);
    }
    obj->array_size_ = static_cast<long>(t.array_size);
    for (const auto& [name, value] : t.enumerators)
      obj->enum_constants_.emplace_back(name, static_cast<long>(value));
  }
  for (const auto& t : raw_.templates()) {
    pdbTemplate* obj = template_by_id.at(t.id);
    obj->location_ = loc(t.location);
    obj->access_ = access(t.access);
    setParent(obj, t.parent);
    if (t.kind == "func") obj->kind_ = pdbItem::TE_FUNC;
    else if (t.kind == "memfunc") obj->kind_ = pdbItem::TE_MEMFUNC;
    else if (t.kind == "statmem") obj->kind_ = pdbItem::TE_STATMEM;
    else if (t.kind == "alias") obj->kind_ = pdbItem::TE_ALIAS;
    else obj->kind_ = pdbItem::TE_CLASS;
    obj->text_ = t.text;
    setFat(obj, t.extent);
  }
  for (const auto& c : raw_.classes()) {
    pdbClass* obj = class_by_id.at(c.id);
    obj->location_ = loc(c.location);
    obj->access_ = access(c.access);
    setParent(obj, c.parent);
    obj->kind_ = c.kind == "struct"
                     ? pdbClass::CL_STRUCT
                     : (c.kind == "union" ? pdbClass::CL_UNION : pdbClass::CL_CLASS);
    if (c.template_id) {
      if (const auto it = template_by_id.find(*c.template_id);
          it != template_by_id.end())
        obj->template_ = it->second;
    }
    obj->specialized_ = c.is_specialization;
    for (const auto& b : c.bases) {
      if (const auto it = class_by_id.find(b.cls); it != class_by_id.end()) {
        pdbBase base;
        base.base_ptr = it->second;
        base.access_ = access(b.access);
        base.virtual_ = b.is_virtual;
        obj->bases_.push_back(base);
        it->second->derived_.push_back(obj);
      }
    }
    for (const auto& f : c.friends) {
      pdbFriend fr;
      fr.is_class_ = f.is_class;
      fr.name_ = f.name;
      obj->friends_.push_back(std::move(fr));
    }
    for (const auto& mf : c.funcs) {
      if (const auto it = routine_by_id.find(mf.routine); it != routine_by_id.end())
        obj->funcs_.push_back(it->second);
    }
    for (const auto& m : c.members) {
      pdbMember mem;
      mem.name_ = m.name;
      mem.location_ = loc(m.location);
      mem.access_ = access(m.access);
      mem.kind_ = m.kind;
      mem.type_ = typeOf(m.type);
      mem.class_type_ = classOf(m.type);
      obj->members_.push_back(std::move(mem));
    }
    setFat(obj, c.extent);
  }
  for (const auto& r : raw_.routines()) {
    pdbRoutine* obj = routine_by_id.at(r.id);
    obj->location_ = loc(r.location);
    obj->access_ = access(r.access);
    setParent(obj, r.parent);
    if (const auto it = type_by_id.find(r.signature); it != type_by_id.end())
      obj->signature_ = it->second;
    if (r.kind == "ctor") obj->kind_ = pdbItem::RO_CTOR;
    else if (r.kind == "dtor") obj->kind_ = pdbItem::RO_DTOR;
    else if (r.kind == "conv") obj->kind_ = pdbItem::RO_CONV;
    else if (r.kind == "op") obj->kind_ = pdbItem::RO_OP;
    else obj->kind_ = pdbItem::RO_NORMAL;
    obj->virtuality_ = r.virtuality == "pure"
                           ? pdbItem::VI_PURE
                           : (r.virtuality == "virt" ? pdbItem::VI_VIRT
                                                     : pdbItem::VI_NO);
    obj->linkage_ = r.linkage == "C" ? pdbRoutine::LK_C : pdbRoutine::LK_CXX;
    obj->storage_ = r.storage == "static"
                        ? pdbRoutine::ST_STATIC
                        : (r.storage == "extern" ? pdbRoutine::ST_EXTERN
                                                 : pdbRoutine::ST_NA);
    obj->static_ = r.is_static;
    obj->inline_ = r.is_inline;
    obj->explicit_ = r.is_explicit;
    obj->defined_ = r.defined;
    if (r.template_id) {
      if (const auto it = template_by_id.find(*r.template_id);
          it != template_by_id.end())
        obj->template_ = it->second;
    }
    obj->specialized_ = r.is_specialization;
    setFat(obj, r.extent);
    for (const auto& call : r.calls) {
      const auto it = routine_by_id.find(call.routine);
      if (it == routine_by_id.end()) continue;
      auto edge = std::make_unique<pdbCall>(it->second, call.is_virtual,
                                            loc(call.position));
      obj->callees_.push_back(edge.get());
      // Inverse edge: the callee's callers record who calls it and where.
      auto inverse = std::make_unique<pdbCall>(obj, call.is_virtual,
                                               loc(call.position));
      it->second->callers_.push_back(inverse.get());
      call_storage_.push_back(std::move(edge));
      call_storage_.push_back(std::move(inverse));
    }
  }
  for (const auto& n : raw_.namespaces()) {
    pdbNamespace* obj = namespace_by_id.at(n.id);
    obj->location_ = loc(n.location);
    obj->alias_ = n.alias;
    for (const auto& m : n.members) {
      const pdbItem* member = nullptr;
      switch (m.kind) {
        case pdb::ItemKind::Routine:
          if (const auto it = routine_by_id.find(m.id); it != routine_by_id.end())
            member = it->second;
          break;
        case pdb::ItemKind::Class:
          if (const auto it = class_by_id.find(m.id); it != class_by_id.end())
            member = it->second;
          break;
        case pdb::ItemKind::Namespace:
          if (const auto it = namespace_by_id.find(m.id);
              it != namespace_by_id.end())
            member = it->second;
          break;
        case pdb::ItemKind::Template:
          if (const auto it = template_by_id.find(m.id);
              it != template_by_id.end())
            member = it->second;
          break;
        default:
          break;
      }
      if (member != nullptr) obj->members_.push_back(member);
    }
  }
}

// ---------------------------------------------------------------------------
// Whole-database queries
// ---------------------------------------------------------------------------

PDB::itemvec PDB::getItemVec() const {
  ensureBuilt();
  itemvec out;
  out.reserve(files_.size() + routines_.size() + classes_.size() + types_.size() +
              templates_.size() + namespaces_.size() + macros_.size());
  for (const auto* f : files_) out.push_back(f);
  for (const auto* t : templates_) out.push_back(t);
  for (const auto* r : routines_) out.push_back(r);
  for (const auto* c : classes_) out.push_back(c);
  for (const auto* t : types_) out.push_back(t);
  for (const auto* n : namespaces_) out.push_back(n);
  for (const auto* m : macros_) out.push_back(m);
  return out;
}

PDB::filevec PDB::getIncludeTreeRoots() const {
  ensureBuilt();
  std::unordered_set<const pdbFile*> included;
  for (const pdbFile* f : files_) {
    for (const pdbFile* inc : f->includes()) included.insert(inc);
  }
  filevec roots;
  for (const pdbFile* f : files_) {
    if (!included.contains(f)) roots.push_back(f);
  }
  return roots;
}

PDB::routinevec PDB::getCallTreeRoots() const {
  ensureBuilt();
  routinevec roots;
  for (const pdbRoutine* r : routines_) {
    if (r->callers().empty()) roots.push_back(r);
  }
  return roots;
}

PDB::classvec PDB::getClassHierarchyRoots() const {
  ensureBuilt();
  classvec roots;
  for (const pdbClass* c : classes_) {
    if (c->baseClasses().empty()) roots.push_back(c);
  }
  return roots;
}

// ---------------------------------------------------------------------------
// Merge (pdbmerge): combine databases, eliminate duplicate instantiations
// ---------------------------------------------------------------------------

namespace {

/// Identity keys used to detect duplicates across compilations.
std::string fileKey(const pdb::SourceFileItem& f) { return std::string(f.name); }

std::string posKey(const pdb::PdbFile& owner, const pdb::Pos& pos) {
  if (!pos.valid()) return "@";
  const auto* f = owner.findSourceFile(pos.file);
  return std::string(f != nullptr ? f->name : "?") + ":" +
         std::to_string(pos.line) + ":" + std::to_string(pos.column);
}

/// Joins key parts with '|' in one allocation (parts may be string_views).
template <typename... Parts>
std::string joinKey(const Parts&... parts) {
  std::string key;
  key.reserve((std::string_view(parts).size() + ...) + sizeof...(parts));
  bool first = true;
  const auto append = [&](std::string_view part) {
    if (!first) key.push_back('|');
    first = false;
    key.append(part);
  };
  (append(parts), ...);
  return key;
}

std::string typeKey(const pdb::TypeItem& t) { return joinKey(t.kind, t.name); }

std::string templateKey(const pdb::PdbFile& owner, const pdb::TemplateItem& t) {
  return joinKey(t.kind, t.name, posKey(owner, t.location));
}

std::string classKey(const pdb::ClassItem& c) { return std::string(c.name); }

std::string routineKey(const pdb::PdbFile& owner, const pdb::RoutineItem& r) {
  const auto* sig = owner.findType(r.signature);
  std::string parent;
  if (r.parent && r.parent->kind == pdb::ItemKind::Class) {
    const auto* cls = owner.findClass(r.parent->id);
    if (cls != nullptr) parent = cls->name;
  } else if (r.parent) {
    const auto* ns = owner.findNamespace(r.parent->id);
    if (ns != nullptr) parent = ns->name;
  }
  return parent + "::" + std::string(r.name) + "|" +
         std::string(sig != nullptr ? sig->name : "?");
}

std::string namespaceKey(const pdb::NamespaceItem& n) { return std::string(n.name); }

std::string macroKey(const pdb::MacroItem& m) {
  return joinKey(m.kind, m.name, m.text);
}

}  // namespace

void PDB::merge(const PDB& other) {
  PDT_TRACE_SCOPE("ductape.merge");
  trace::count(trace::Counter::MergeMerges);
  const pdb::PdbFile& theirs = other.raw_;
  const std::size_t items_before = raw_.itemCount();
  // Items copied from `theirs` carry string views into its backings; the
  // merged database must keep that storage alive.
  raw_.adoptBackingsOf(theirs);

  // Old-id -> merged-id maps, per kind.
  std::unordered_map<std::uint32_t, std::uint32_t> file_map, type_map,
      template_map, class_map, routine_map, namespace_map;
  // Which merged items are newly appended (and need reference fixups).
  std::vector<std::uint32_t> new_types, new_templates, new_classes, new_routines,
      new_namespaces;

  // Existing keys.
  std::unordered_map<std::string, std::uint32_t> my_files, my_types, my_templates,
      my_classes, my_routines, my_namespaces;
  std::unordered_set<std::string> my_macros;
  for (const auto& f : raw_.sourceFiles()) my_files.emplace(fileKey(f), f.id);
  for (const auto& t : raw_.types()) my_types.emplace(typeKey(t), t.id);
  for (const auto& t : raw_.templates())
    my_templates.emplace(templateKey(raw_, t), t.id);
  for (const auto& c : raw_.classes()) my_classes.emplace(classKey(c), c.id);
  for (const auto& r : raw_.routines())
    my_routines.emplace(routineKey(raw_, r), r.id);
  for (const auto& n : raw_.namespaces())
    my_namespaces.emplace(namespaceKey(n), n.id);
  for (const auto& m : raw_.macros()) my_macros.insert(macroKey(m));

  // Files.
  for (const auto& f : theirs.sourceFiles()) {
    if (const auto it = my_files.find(fileKey(f)); it != my_files.end()) {
      file_map[f.id] = it->second;
      continue;
    }
    pdb::SourceFileItem copy = f;
    copy.id = 0;
    // The include list still holds ids from `theirs`; drop it so the fixup
    // pass below rebuilds it from remapped ids. Keeping it would union
    // remapped ids onto stale ones whenever the id spaces differ (as they
    // do for the intermediates of the tree-reduction pdbmerge).
    copy.includes.clear();
    const std::uint32_t id = raw_.addSourceFile(std::move(copy));
    file_map[f.id] = id;
    my_files.emplace(fileKey(f), id);
  }
  // Fix include lists of newly added files and union those of duplicates.
  // Indexed by id up front — scanning raw_.sourceFiles() per input file made
  // this quadratic in the number of files.
  std::unordered_map<std::uint32_t, std::size_t> mine_file_at;
  mine_file_at.reserve(raw_.sourceFiles().size());
  for (std::size_t i = 0; i < raw_.sourceFiles().size(); ++i)
    mine_file_at.emplace(raw_.sourceFiles()[i].id, i);
  for (const auto& f : theirs.sourceFiles()) {
    auto& mine = raw_.sourceFiles()[mine_file_at.at(file_map.at(f.id))];
    std::vector<std::uint32_t> remapped;
    for (const std::uint32_t inc : f.includes) {
      if (const auto it = file_map.find(inc); it != file_map.end())
        remapped.push_back(it->second);
    }
    if (mine.includes.empty()) {
      mine.includes = std::move(remapped);
    } else {
      for (const std::uint32_t inc : remapped) {
        if (std::find(mine.includes.begin(), mine.includes.end(), inc) ==
            mine.includes.end())
          mine.includes.push_back(inc);
      }
    }
  }

  const auto remapPos = [&](pdb::Pos& pos) {
    if (const auto it = file_map.find(pos.file); it != file_map.end())
      pos.file = it->second;
    else
      pos = {};
  };
  const auto remapExtent = [&](pdb::Extent& e) {
    remapPos(e.header_begin);
    remapPos(e.header_end);
    remapPos(e.body_begin);
    remapPos(e.body_end);
  };

  // Types (refs fixed after all type ids are known).
  for (const auto& t : theirs.types()) {
    if (const auto it = my_types.find(typeKey(t)); it != my_types.end()) {
      type_map[t.id] = it->second;
      continue;
    }
    pdb::TypeItem copy = t;
    copy.id = 0;
    const std::uint32_t id = raw_.addType(std::move(copy));
    type_map[t.id] = id;
    new_types.push_back(id);
    my_types.emplace(typeKey(t), id);
  }

  // Templates: duplicates (same kind/name/location) are eliminated —
  // the paper's headline pdbmerge behaviour.
  for (const auto& t : theirs.templates()) {
    if (const auto it = my_templates.find(templateKey(theirs, t));
        it != my_templates.end()) {
      template_map[t.id] = it->second;
      continue;
    }
    pdb::TemplateItem copy = t;
    copy.id = 0;
    remapPos(copy.location);
    remapExtent(copy.extent);
    const std::uint32_t id = raw_.addTemplate(std::move(copy));
    template_map[t.id] = id;
    new_templates.push_back(id);
    my_templates.emplace(templateKey(theirs, t), id);
  }

  // Classes: duplicate instantiations ("Stack<int>" from two translation
  // units) collapse to one item.
  for (const auto& c : theirs.classes()) {
    if (const auto it = my_classes.find(classKey(c)); it != my_classes.end()) {
      class_map[c.id] = it->second;
      continue;
    }
    pdb::ClassItem copy = c;
    copy.id = 0;
    remapPos(copy.location);
    remapExtent(copy.extent);
    const std::uint32_t id = raw_.addClass(std::move(copy));
    class_map[c.id] = id;
    new_classes.push_back(id);
    my_classes.emplace(classKey(c), id);
  }

  // Routines. When the duplicate pair is a declaration (one TU sees only a
  // prototype) and a definition (another TU holds the body), the merged
  // routine must carry the definition — its location, extent, and call
  // edges — or the whole-program call graph loses every cross-TU edge out
  // of that routine. Collected here, applied after the id maps close.
  std::vector<std::pair<std::uint32_t, const pdb::RoutineItem*>> dup_routines;
  for (const auto& r : theirs.routines()) {
    if (const auto it = my_routines.find(routineKey(theirs, r));
        it != my_routines.end()) {
      routine_map[r.id] = it->second;
      dup_routines.emplace_back(it->second, &r);
      continue;
    }
    pdb::RoutineItem copy = r;
    copy.id = 0;
    remapPos(copy.location);
    remapExtent(copy.extent);
    for (auto& call : copy.calls) remapPos(call.position);
    const std::uint32_t id = raw_.addRoutine(std::move(copy));
    routine_map[r.id] = id;
    new_routines.push_back(id);
    my_routines.emplace(routineKey(theirs, r), id);
  }

  // Namespaces. Duplicates union their member lists (members are
  // remapped and appended after the id maps are complete, below).
  std::vector<std::pair<std::uint32_t, std::vector<pdb::ItemRef>>>
      namespace_member_appends;
  for (const auto& n : theirs.namespaces()) {
    if (const auto it = my_namespaces.find(namespaceKey(n));
        it != my_namespaces.end()) {
      namespace_map[n.id] = it->second;
      namespace_member_appends.emplace_back(it->second, n.members);
      continue;
    }
    pdb::NamespaceItem copy = n;
    copy.id = 0;
    remapPos(copy.location);
    const std::uint32_t id = raw_.addNamespace(std::move(copy));
    namespace_map[n.id] = id;
    new_namespaces.push_back(id);
    my_namespaces.emplace(namespaceKey(n), id);
  }

  // Macros: exact duplicates dropped.
  for (const auto& m : theirs.macros()) {
    if (my_macros.contains(macroKey(m))) continue;
    pdb::MacroItem copy = m;
    copy.id = 0;
    remapPos(copy.location);
    raw_.addMacro(std::move(copy));
    my_macros.insert(macroKey(m));
  }

  // Dynamic profiles: one per distinct TAU profile entry, keyed by display
  // name. Merging two measured databases sums their counts and times —
  // profiles of the same workload from different processes/runs aggregate
  // instead of duplicating (mirrors tauprof's own cross-file merge).
  {
    std::unordered_map<std::string_view, std::size_t> my_dp_at;
    my_dp_at.reserve(raw_.dynProfs().size());
    for (std::size_t i = 0; i < raw_.dynProfs().size(); ++i)
      my_dp_at.emplace(raw_.dynProfs()[i].name, i);
    for (const auto& p : theirs.dynProfs()) {
      const auto remapped_routine = [&] {
        const auto it = routine_map.find(p.routine);
        return it != routine_map.end() ? it->second : 0u;
      };
      if (const auto it = my_dp_at.find(p.name); it != my_dp_at.end()) {
        auto& mine = raw_.dynProfs()[it->second];
        mine.calls += p.calls;
        mine.child_calls += p.child_calls;
        mine.inclusive_ns += p.inclusive_ns;
        mine.exclusive_ns += p.exclusive_ns;
        mine.threads += p.threads;
        mine.contexts += p.contexts;
        if (mine.routine == 0 && p.routine != 0)
          mine.routine = remapped_routine();
        continue;
      }
      pdb::DynProfItem copy = p;
      copy.id = 0;
      if (copy.routine != 0) copy.routine = remapped_routine();
      raw_.addDynProf(std::move(copy));
    }
  }

  // Def-use streams: one per defined routine, keyed by the merged routine
  // id. When both sides carry a stream for the same routine (the routine
  // itself was a duplicate) the first one wins — mirroring the
  // declaration/definition rule above, where only the defining TU emits a
  // stream at all.
  {
    std::unordered_set<std::uint32_t> my_du_routines;
    my_du_routines.reserve(raw_.defUses().size());
    for (const auto& d : raw_.defUses()) my_du_routines.insert(d.routine);
    for (const auto& d : theirs.defUses()) {
      pdb::DefUseItem copy = d;
      copy.id = 0;
      if (const auto it = routine_map.find(copy.routine);
          it != routine_map.end())
        copy.routine = it->second;
      if (!my_du_routines.insert(copy.routine).second) continue;
      for (auto& e : copy.events) remapPos(e.pos);
      raw_.addDefUse(std::move(copy));
    }
  }

  // Reference fixups on newly appended items.
  const auto remapRef = [&](pdb::ItemRef& ref) {
    const std::unordered_map<std::uint32_t, std::uint32_t>* map = nullptr;
    switch (ref.kind) {
      case pdb::ItemKind::SourceFile: map = &file_map; break;
      case pdb::ItemKind::Type: map = &type_map; break;
      case pdb::ItemKind::Template: map = &template_map; break;
      case pdb::ItemKind::Class: map = &class_map; break;
      case pdb::ItemKind::Routine: map = &routine_map; break;
      case pdb::ItemKind::Namespace: map = &namespace_map; break;
      default: return;
    }
    if (const auto it = map->find(ref.id); it != map->end()) ref.id = it->second;
  };
  const auto remapOptRef = [&](std::optional<pdb::ItemRef>& ref) {
    if (ref) remapRef(*ref);
  };

  raw_.reindex();
  std::unordered_set<std::uint32_t> new_type_set(new_types.begin(), new_types.end());
  for (auto& t : raw_.types()) {
    if (!new_type_set.contains(t.id)) continue;
    remapOptRef(t.ref);
    remapOptRef(t.return_type);
    for (auto& p : t.params) remapRef(p);
    for (auto& e : t.exception_specs) remapRef(e);
  }
  std::unordered_set<std::uint32_t> new_class_set(new_classes.begin(),
                                                  new_classes.end());
  for (auto& c : raw_.classes()) {
    if (!new_class_set.contains(c.id)) continue;
    remapOptRef(c.parent);
    if (c.template_id) {
      if (const auto it = template_map.find(*c.template_id);
          it != template_map.end())
        c.template_id = it->second;
    }
    for (auto& b : c.bases) {
      if (const auto it = class_map.find(b.cls); it != class_map.end())
        b.cls = it->second;
    }
    for (auto& f : c.friends) remapOptRef(f.ref);
    for (auto& mf : c.funcs) {
      if (const auto it = routine_map.find(mf.routine); it != routine_map.end())
        mf.routine = it->second;
      remapPos(mf.location);
    }
    for (auto& m : c.members) {
      remapRef(m.type);
      remapPos(m.location);
    }
  }
  std::unordered_set<std::uint32_t> new_routine_set(new_routines.begin(),
                                                    new_routines.end());
  for (auto& r : raw_.routines()) {
    if (!new_routine_set.contains(r.id)) continue;
    remapOptRef(r.parent);
    if (const auto it = type_map.find(r.signature); it != type_map.end())
      r.signature = it->second;
    if (r.template_id) {
      if (const auto it = template_map.find(*r.template_id);
          it != template_map.end())
        r.template_id = it->second;
    }
    for (auto& call : r.calls) {
      if (const auto it = routine_map.find(call.routine); it != routine_map.end())
        call.routine = it->second;
    }
  }
  std::unordered_set<std::uint32_t> new_template_set(new_templates.begin(),
                                                     new_templates.end());
  for (auto& t : raw_.templates()) {
    if (!new_template_set.contains(t.id)) continue;
    remapOptRef(t.parent);
  }
  std::unordered_set<std::uint32_t> new_namespace_set(new_namespaces.begin(),
                                                      new_namespaces.end());
  for (auto& n : raw_.namespaces()) {
    if (!new_namespace_set.contains(n.id)) continue;
    for (auto& m : n.members) remapRef(m);
  }
  // Declaration + definition pairs: adopt the definition side.
  if (!dup_routines.empty()) {
    std::unordered_map<std::uint32_t, std::size_t> mine_routine_at;
    mine_routine_at.reserve(raw_.routines().size());
    for (std::size_t i = 0; i < raw_.routines().size(); ++i)
      mine_routine_at.emplace(raw_.routines()[i].id, i);
    for (const auto& [my_id, their_r] : dup_routines) {
      auto& mine = raw_.routines()[mine_routine_at.at(my_id)];
      if (mine.defined || !their_r->defined) continue;
      mine.defined = true;
      mine.location = their_r->location;
      remapPos(mine.location);
      mine.extent = their_r->extent;
      remapExtent(mine.extent);
      mine.calls = their_r->calls;
      for (auto& call : mine.calls) {
        if (const auto it = routine_map.find(call.routine);
            it != routine_map.end())
          call.routine = it->second;
        remapPos(call.position);
      }
    }
  }
  // Union member lists of namespaces that merged with existing ones.
  if (!namespace_member_appends.empty()) {
    std::unordered_map<std::uint32_t, std::size_t> mine_ns_at;
    mine_ns_at.reserve(raw_.namespaces().size());
    for (std::size_t i = 0; i < raw_.namespaces().size(); ++i)
      mine_ns_at.emplace(raw_.namespaces()[i].id, i);
    for (auto& [ns_id, members] : namespace_member_appends) {
      auto& n = raw_.namespaces()[mine_ns_at.at(ns_id)];
      for (pdb::ItemRef m : members) {
        remapRef(m);
        if (std::find(n.members.begin(), n.members.end(), m) == n.members.end())
          n.members.push_back(m);
      }
    }
  }

  raw_.reindex();
  // Whatever `theirs` carried that did not grow the merged database was a
  // duplicate folded into an existing item.
  const std::size_t grew = raw_.itemCount() - items_before;
  trace::count(trace::Counter::MergeDuplicatesElided,
               theirs.itemCount() >= grew ? theirs.itemCount() - grew : 0);
  // Merged items come from two files; their record offsets no longer mean
  // anything, so validation reports plain ids again.
  raw_.setOffsetUnit(pdb::OffsetUnit::None);
  graph_dirty_ = true;  // object graph rebuilt lazily at the next accessor
}

}  // namespace pdt::ductape
