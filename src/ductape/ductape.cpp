#include "ductape/ductape.h"

#include <ostream>
#include <unordered_map>
#include <unordered_set>

#include "ductape/merger.h"
#include "pdb/reader.h"
#include "pdb/snapshot.h"
#include "pdb/writer.h"

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
// Merge (pdbmerge): a Merger over this database and a copy of `other`
// ---------------------------------------------------------------------------

void PDB::merge(const PDB& other) {
  pdb::PdbFile theirs = other.raw_;  // copied first: `other` may be *this
  Merger merger(std::move(raw_));
  merger.add(std::move(theirs));
  raw_ = std::move(merger).release();
  graph_dirty_ = true;  // object graph rebuilt lazily at the next accessor
}

pdb::PdbFile PDB::release() && {
  pdb::PdbFile out = std::move(raw_);
  *this = PDB{};
  return out;
}

}  // namespace pdt::ductape
