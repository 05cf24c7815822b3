#include "ductape/ductape.h"

#include <ostream>
#include <type_traits>

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
  // One node array per kind, sized once from the kind's records: node i is
  // built from record i, so its ordinal is its position, and a record found
  // through raw_'s id index names its node.
  const auto layOut = [](auto& nodes, auto& view, const auto& records) {
    nodes = std::remove_reference_t<decltype(nodes)>(records.size());
    view.resize(records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      nodes[i].name_ = records[i].name;
      nodes[i].id_ = static_cast<int>(records[i].id);
      nodes[i].ordinal_ = static_cast<std::uint32_t>(i);
      view[i] = &nodes[i];
    }
  };
  layOut(file_nodes_, files_, raw_.sourceFiles());
  layOut(routine_nodes_, routines_, raw_.routines());
  layOut(class_nodes_, classes_, raw_.classes());
  layOut(type_nodes_, types_, raw_.types());
  layOut(template_nodes_, templates_, raw_.templates());
  layOut(namespace_nodes_, namespaces_, raw_.namespaces());
  layOut(macro_nodes_, macros_, raw_.macros());

  // Null when the id does not resolve: absent, or its section not loaded.
  const auto nodeFor = [](auto& nodes, const auto& records, const auto* found) {
    return found == nullptr
               ? nullptr
               : &nodes[static_cast<std::size_t>(found - records.data())];
  };
  const auto fileOf = [&](std::uint32_t id) {
    return nodeFor(file_nodes_, raw_.sourceFiles(), raw_.findSourceFile(id));
  };
  const auto routineOf = [&](std::uint32_t id) {
    return nodeFor(routine_nodes_, raw_.routines(), raw_.findRoutine(id));
  };
  const auto classOf = [&](std::uint32_t id) {
    return nodeFor(class_nodes_, raw_.classes(), raw_.findClass(id));
  };
  const auto typeOf = [&](std::uint32_t id) {
    return nodeFor(type_nodes_, raw_.types(), raw_.findType(id));
  };
  const auto templateOf = [&](std::uint32_t id) {
    return nodeFor(template_nodes_, raw_.templates(), raw_.findTemplate(id));
  };
  const auto namespaceOf = [&](std::uint32_t id) {
    return nodeFor(namespace_nodes_, raw_.namespaces(), raw_.findNamespace(id));
  };

  const auto loc = [&](const pdb::Pos& pos) -> pdbLoc {
    return {fileOf(pos.file), static_cast<int>(pos.line),
            static_cast<int>(pos.column)};
  };
  const auto access = [](std::string_view a) {
    if (a == "pub") return pdbItem::AC_PUB;
    if (a == "prot") return pdbItem::AC_PROT;
    if (a == "priv") return pdbItem::AC_PRIV;
    return pdbItem::AC_NA;
  };
  const auto typeRef = [&](const pdb::ItemRef& ref) -> const pdbType* {
    return ref.kind == pdb::ItemKind::Type ? typeOf(ref.id) : nullptr;
  };
  const auto classRef = [&](const pdb::ItemRef& ref) -> const pdbClass* {
    return ref.kind == pdb::ItemKind::Class ? classOf(ref.id) : nullptr;
  };
  const auto setParent = [&](pdbItem& item, const std::optional<pdb::ItemRef>& p) {
    if (!p) return;
    if (p->kind == pdb::ItemKind::Class) item.parent_class_ = classOf(p->id);
    else if (p->kind == pdb::ItemKind::Namespace) item.parent_nspace_ = namespaceOf(p->id);
  };
  const auto setFat = [&](pdbFatItem& item, const pdb::Extent& e) {
    item.head_begin_ = loc(e.header_begin);
    item.head_end_ = loc(e.header_end);
    item.body_begin_ = loc(e.body_begin);
    item.body_end_ = loc(e.body_end);
  };

  // Each node is wired from its own record, in record order.
  for (std::size_t i = 0; i < file_nodes_.size(); ++i) {
    const pdb::SourceFileItem& f = raw_.sourceFiles()[i];
    pdbFile& obj = file_nodes_[i];
    obj.system_ = f.system;
    for (const std::uint32_t inc : f.includes) {
      if (const pdbFile* included = fileOf(inc)) obj.includes_.push_back(included);
    }
  }
  for (std::size_t i = 0; i < type_nodes_.size(); ++i) {
    const pdb::TypeItem& t = raw_.types()[i];
    pdbType& obj = type_nodes_[i];
    if (t.kind == "bool") obj.kind_ = pdbType::TY_BOOL;
    else if (t.kind == "char") obj.kind_ = pdbType::TY_CHAR;
    else if (t.kind == "int") obj.kind_ = pdbType::TY_INT;
    else if (t.kind == "float") obj.kind_ = pdbType::TY_FLOAT;
    else if (t.kind == "void") obj.kind_ = pdbType::TY_VOID;
    else if (t.kind == "wchar") obj.kind_ = pdbType::TY_WCHAR;
    else if (t.kind == "ptr") obj.kind_ = pdbType::TY_PTR;
    else if (t.kind == "ref") obj.kind_ = pdbType::TY_REF;
    else if (t.kind == "tref") obj.kind_ = pdbType::TY_TREF;
    else if (t.kind == "func") obj.kind_ = pdbType::TY_FUNC;
    else if (t.kind == "enum") obj.kind_ = pdbType::TY_ENUM;
    else if (t.kind == "array") obj.kind_ = pdbType::TY_ARRAY;
    else if (t.kind == "class") obj.kind_ = pdbType::TY_CLASS;
    else if (t.kind == "tparam") obj.kind_ = pdbType::TY_TPARAM;
    else if (t.kind == "typedef") obj.kind_ = pdbType::TY_TYPEDEF;
    else obj.kind_ = pdbType::TY_OTHER;
    if (t.ref) {
      obj.referenced_ = typeRef(*t.ref);
      obj.referenced_class_ = classRef(*t.ref);
    }
    for (const std::string_view q : t.qualifiers) {
      if (q == "const") obj.is_const_ = true;
      if (q == "volatile") obj.is_volatile_ = true;
    }
    if (t.return_type) obj.return_type_ = typeRef(*t.return_type);
    for (const auto& p : t.params) {
      if (const pdbType* pt = typeRef(p)) obj.arguments_.push_back(pt);
    }
    obj.ellipsis_ = t.has_ellipsis;
    for (const auto& e : t.exception_specs) {
      if (const pdbType* et = typeRef(e)) obj.exception_spec_.push_back(et);
    }
    obj.array_size_ = static_cast<long>(t.array_size);
    for (const auto& [name, value] : t.enumerators)
      obj.enum_constants_.emplace_back(name, static_cast<long>(value));
  }
  for (std::size_t i = 0; i < template_nodes_.size(); ++i) {
    const pdb::TemplateItem& t = raw_.templates()[i];
    pdbTemplate& obj = template_nodes_[i];
    obj.location_ = loc(t.location);
    obj.access_ = access(t.access);
    setParent(obj, t.parent);
    if (t.kind == "func") obj.kind_ = pdbItem::TE_FUNC;
    else if (t.kind == "memfunc") obj.kind_ = pdbItem::TE_MEMFUNC;
    else if (t.kind == "statmem") obj.kind_ = pdbItem::TE_STATMEM;
    else if (t.kind == "alias") obj.kind_ = pdbItem::TE_ALIAS;
    else obj.kind_ = pdbItem::TE_CLASS;
    obj.text_ = t.text;
    setFat(obj, t.extent);
  }
  for (std::size_t i = 0; i < class_nodes_.size(); ++i) {
    const pdb::ClassItem& c = raw_.classes()[i];
    pdbClass& obj = class_nodes_[i];
    obj.location_ = loc(c.location);
    obj.access_ = access(c.access);
    setParent(obj, c.parent);
    obj.kind_ = c.kind == "struct"
                    ? pdbClass::CL_STRUCT
                    : (c.kind == "union" ? pdbClass::CL_UNION : pdbClass::CL_CLASS);
    if (c.template_id) obj.template_ = templateOf(*c.template_id);
    obj.specialized_ = c.is_specialization;
    for (const auto& b : c.bases) {
      pdbClass* base = classOf(b.cls);
      if (base == nullptr) continue;
      obj.bases_.push_back({base, access(b.access), b.is_virtual});
      base->derived_.push_back(&obj);
    }
    for (const auto& f : c.friends)
      obj.friends_.push_back({f.is_class, std::string(f.name)});
    for (const auto& mf : c.funcs) {
      if (const pdbRoutine* r = routineOf(mf.routine)) obj.funcs_.push_back(r);
    }
    for (const auto& m : c.members) {
      obj.members_.push_back({std::string(m.name), loc(m.location), access(m.access),
                              std::string(m.kind), typeRef(m.type), classRef(m.type)});
    }
    setFat(obj, c.extent);
  }
  // Every call edge, callee and caller direction, lives in calls_, which
  // is sized for all of them up front so the edge pointers stay put.
  std::size_t edges = 0;
  for (const auto& r : raw_.routines()) edges += r.calls.size();
  calls_.clear();
  calls_.reserve(2 * edges);
  for (std::size_t i = 0; i < routine_nodes_.size(); ++i) {
    const pdb::RoutineItem& r = raw_.routines()[i];
    pdbRoutine& obj = routine_nodes_[i];
    obj.location_ = loc(r.location);
    obj.access_ = access(r.access);
    setParent(obj, r.parent);
    obj.signature_ = typeOf(r.signature);
    if (r.kind == "ctor") obj.kind_ = pdbItem::RO_CTOR;
    else if (r.kind == "dtor") obj.kind_ = pdbItem::RO_DTOR;
    else if (r.kind == "conv") obj.kind_ = pdbItem::RO_CONV;
    else if (r.kind == "op") obj.kind_ = pdbItem::RO_OP;
    else obj.kind_ = pdbItem::RO_NORMAL;
    obj.virtuality_ = r.virtuality == "pure"
                          ? pdbItem::VI_PURE
                          : (r.virtuality == "virt" ? pdbItem::VI_VIRT
                                                    : pdbItem::VI_NO);
    obj.linkage_ = r.linkage == "C" ? pdbRoutine::LK_C : pdbRoutine::LK_CXX;
    obj.storage_ = r.storage == "static"
                       ? pdbRoutine::ST_STATIC
                       : (r.storage == "extern" ? pdbRoutine::ST_EXTERN
                                                : pdbRoutine::ST_NA);
    obj.static_ = r.is_static;
    obj.inline_ = r.is_inline;
    obj.explicit_ = r.is_explicit;
    obj.defined_ = r.defined;
    if (r.template_id) obj.template_ = templateOf(*r.template_id);
    obj.specialized_ = r.is_specialization;
    setFat(obj, r.extent);
    obj.callees_.reserve(r.calls.size());
    for (const auto& call : r.calls) {
      pdbRoutine* callee = routineOf(call.routine);
      if (callee == nullptr) continue;
      const pdbLoc at = loc(call.position);
      obj.callees_.push_back(&calls_.emplace_back(callee, call.is_virtual, at));
      callee->callers_.push_back(&calls_.emplace_back(&obj, call.is_virtual, at));
    }
  }
  for (std::size_t i = 0; i < namespace_nodes_.size(); ++i) {
    const pdb::NamespaceItem& n = raw_.namespaces()[i];
    pdbNamespace& obj = namespace_nodes_[i];
    obj.location_ = loc(n.location);
    obj.alias_ = n.alias;
    for (const auto& m : n.members) {
      const pdbItem* member = nullptr;
      switch (m.kind) {
        case pdb::ItemKind::Routine: member = routineOf(m.id); break;
        case pdb::ItemKind::Class: member = classOf(m.id); break;
        case pdb::ItemKind::Namespace: member = namespaceOf(m.id); break;
        case pdb::ItemKind::Template: member = templateOf(m.id); break;
        default: break;
      }
      if (member != nullptr) obj.members_.push_back(member);
    }
  }
  for (std::size_t i = 0; i < macro_nodes_.size(); ++i) {
    const pdb::MacroItem& m = raw_.macros()[i];
    macro_nodes_[i].kind_ = m.kind == "undef" ? pdbMacro::MA_UNDEF : pdbMacro::MA_DEF;
    macro_nodes_[i].text_ = m.text;
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
  std::vector<bool> included(files_.size());
  for (const pdbFile* f : files_) {
    for (const pdbFile* inc : f->includes()) included[inc->ordinal()] = true;
  }
  filevec roots;
  for (const pdbFile* f : files_) {
    if (!included[f->ordinal()]) roots.push_back(f);
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
