// DUCTAPE: C++ program Database Utilities and Conversion Tools
// APplication Environment (paper §3.3).
//
// Object-oriented API over PDB files. The class hierarchy reproduces
// paper Figure 4:
//
//   pdbSimpleItem
//   ├── pdbFile
//   └── pdbItem
//       ├── pdbMacro
//       ├── pdbType
//       └── pdbFatItem
//           ├── pdbTemplate
//           ├── pdbNamespace
//           └── pdbTemplateItem
//               ├── pdbClass
//               └── pdbRoutine
//
// Attribute references are implemented as pointers to the corresponding
// objects, "allowing easy navigation through the available program
// information". Naming follows the paper's code excerpts (Figures 5/6):
// pdbRoutine::callvec, callees(), call(), isVirtual(), fullName(),
// flag(), PDB::getTemplateVec(), pdbItem::TE_MEMFUNC, ...
//
// Storage: the graph is an id-indexed view over the PDB's records, built
// lazily on first access. Each kind's nodes live in one contiguous array
// with node i built from record i, so pdbSimpleItem::ordinal() is the
// position of both. A reference by id resolves through the records' own
// id index (pdb::PdbFile::find*), and the record found names its node by
// position; there is no second id map. Call edges of both directions
// share one array sized from the total call count.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "pdb/format.h"
#include "pdb/pdb.h"

namespace pdt::ductape {

class PDB;
class pdbFile;
class pdbType;
class pdbClass;
class pdbRoutine;
class pdbTemplate;
class pdbNamespace;

/// Traversal flag used by tools that walk cyclic structures (Figure 5).
enum pdbFlag { INACTIVE = 0, ACTIVE = 1 };

/// A source location: file + line + column.
struct pdbLoc {
  const pdbFile* file_ptr = nullptr;
  int line_ = 0;
  int col_ = 0;

  [[nodiscard]] const pdbFile* file() const { return file_ptr; }
  [[nodiscard]] int line() const { return line_; }
  [[nodiscard]] int col() const { return col_; }
  [[nodiscard]] bool valid() const { return file_ptr != nullptr; }
};

// ---------------------------------------------------------------------------
// pdbSimpleItem: name + id (root of Figure 4)
// ---------------------------------------------------------------------------

class pdbSimpleItem {
 public:
  explicit pdbSimpleItem(std::string name = {}, int id = 0)
      : name_(std::move(name)), id_(id) {}
  virtual ~pdbSimpleItem() = default;

  pdbSimpleItem(const pdbSimpleItem&) = delete;
  pdbSimpleItem& operator=(const pdbSimpleItem&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int id() const { return id_; }
  /// Position of the item in its kind's PDB accessor vector
  /// (getFileVec(), getRoutineVec(), ...). Dense from 0 even when ids are
  /// not, so tools can keep per-item side tables in plain vectors.
  [[nodiscard]] std::size_t ordinal() const { return ordinal_; }

  /// Fully qualified name ("Stack<int>::push").
  [[nodiscard]] virtual std::string fullName() const { return name_; }

  [[nodiscard]] pdbFlag flag() const { return flag_; }
  void flag(pdbFlag f) const { flag_ = f; }

 protected:
  friend class PDB;
  std::string name_;
  int id_;
  std::uint32_t ordinal_ = 0;

 private:
  mutable pdbFlag flag_ = INACTIVE;  // tool traversal state (Figure 5)
};

// ---------------------------------------------------------------------------
// pdbFile
// ---------------------------------------------------------------------------

class pdbFile final : public pdbSimpleItem {
 public:
  using incvec = std::vector<const pdbFile*>;

  using pdbSimpleItem::pdbSimpleItem;

  /// Files this file #includes, in include order.
  [[nodiscard]] const incvec& includes() const { return includes_; }
  [[nodiscard]] bool isSystemFile() const { return system_; }

 private:
  friend class PDB;
  incvec includes_;
  bool system_ = false;
};

// ---------------------------------------------------------------------------
// pdbItem: location, parent, access
// ---------------------------------------------------------------------------

class pdbItem : public pdbSimpleItem {
 public:
  enum access_t { AC_NA, AC_PUB, AC_PROT, AC_PRIV };

  /// Template kinds (paper Figure 6).
  enum templ_t { TE_CLASS, TE_FUNC, TE_MEMFUNC, TE_STATMEM, TE_ALIAS };

  /// Routine kinds.
  enum routine_t { RO_NORMAL, RO_CTOR, RO_DTOR, RO_CONV, RO_OP };

  /// Virtuality.
  enum virt_t { VI_NO, VI_VIRT, VI_PURE };

  using pdbSimpleItem::pdbSimpleItem;

  [[nodiscard]] const pdbLoc& location() const { return location_; }
  [[nodiscard]] access_t access() const { return access_; }
  /// Parent class, when this item is a class member (null otherwise).
  [[nodiscard]] const pdbClass* parentClass() const { return parent_class_; }
  /// Parent namespace, when directly inside one (null otherwise).
  [[nodiscard]] const pdbNamespace* parentNSpace() const { return parent_nspace_; }

  [[nodiscard]] std::string fullName() const override;

 protected:
  friend class PDB;
  pdbLoc location_;
  access_t access_ = AC_NA;
  const pdbClass* parent_class_ = nullptr;
  const pdbNamespace* parent_nspace_ = nullptr;

 private:
  /// Qualified-name cache: parents never change after PDB::build(), and a
  /// merge discards and rebuilds every object, so the first computation
  /// stays valid for the object's lifetime. Tree walks (pdbtree, the
  /// instrumentor) ask for fullName() once per visited edge; without the
  /// cache each ask re-walks the parent chain and reallocates.
  mutable std::string full_name_;
};

// ---------------------------------------------------------------------------
// pdbMacro
// ---------------------------------------------------------------------------

class pdbMacro final : public pdbItem {
 public:
  enum macro_t { MA_DEF, MA_UNDEF };

  using pdbItem::pdbItem;

  [[nodiscard]] macro_t kind() const { return kind_; }
  [[nodiscard]] const std::string& text() const { return text_; }

 private:
  friend class PDB;
  macro_t kind_ = MA_DEF;
  std::string text_;
};

// ---------------------------------------------------------------------------
// pdbType
// ---------------------------------------------------------------------------

class pdbType final : public pdbItem {
 public:
  enum type_t {
    TY_BOOL, TY_CHAR, TY_INT, TY_FLOAT, TY_VOID, TY_WCHAR, TY_PTR, TY_REF,
    TY_TREF, TY_FUNC, TY_ENUM, TY_ARRAY, TY_CLASS, TY_TPARAM, TY_TYPEDEF,
    TY_OTHER,
  };

  using typevec = std::vector<const pdbType*>;

  using pdbItem::pdbItem;

  [[nodiscard]] type_t kind() const { return kind_; }
  /// Pointee/referee/element/underlying type (TY_PTR/TY_REF/TY_TREF/...).
  [[nodiscard]] const pdbType* referencedType() const { return referenced_; }
  /// When the referenced type is a class with a cl item (paper allows
  /// "cmtype cl#63"-style direct references), the class; null otherwise.
  [[nodiscard]] const pdbClass* referencedClass() const { return referenced_class_; }
  /// The class this type names, for class types that have a cl item.
  [[nodiscard]] const pdbClass* isClass() const { return class_; }
  [[nodiscard]] bool isConst() const { return is_const_; }
  [[nodiscard]] bool isVolatile() const { return is_volatile_; }
  // Function types:
  [[nodiscard]] const pdbType* returnType() const { return return_type_; }
  [[nodiscard]] const typevec& arguments() const { return arguments_; }
  [[nodiscard]] bool hasEllipsis() const { return ellipsis_; }
  [[nodiscard]] const typevec& exceptionSpec() const { return exception_spec_; }
  [[nodiscard]] long arraySize() const { return array_size_; }
  /// Enum types: enumerator (name, value) pairs.
  [[nodiscard]] const std::vector<std::pair<std::string, long>>& enumConstants()
      const {
    return enum_constants_;
  }

 private:
  friend class PDB;
  type_t kind_ = TY_OTHER;
  const pdbType* referenced_ = nullptr;
  const pdbClass* referenced_class_ = nullptr;
  const pdbClass* class_ = nullptr;
  bool is_const_ = false;
  bool is_volatile_ = false;
  const pdbType* return_type_ = nullptr;
  typevec arguments_;
  bool ellipsis_ = false;
  typevec exception_spec_;
  long array_size_ = -1;
  std::vector<std::pair<std::string, long>> enum_constants_;
};

// ---------------------------------------------------------------------------
// pdbFatItem: header/body extents
// ---------------------------------------------------------------------------

class pdbFatItem : public pdbItem {
 public:
  using pdbItem::pdbItem;

  [[nodiscard]] const pdbLoc& headBegin() const { return head_begin_; }
  [[nodiscard]] const pdbLoc& headEnd() const { return head_end_; }
  [[nodiscard]] const pdbLoc& bodyBegin() const { return body_begin_; }
  [[nodiscard]] const pdbLoc& bodyEnd() const { return body_end_; }

 protected:
  friend class PDB;
  pdbLoc head_begin_, head_end_, body_begin_, body_end_;
};

// ---------------------------------------------------------------------------
// pdbTemplate
// ---------------------------------------------------------------------------

class pdbTemplate final : public pdbFatItem {
 public:
  using pdbFatItem::pdbFatItem;

  [[nodiscard]] templ_t kind() const { return kind_; }
  [[nodiscard]] const std::string& text() const { return text_; }

 private:
  friend class PDB;
  templ_t kind_ = TE_CLASS;
  std::string text_;
};

// ---------------------------------------------------------------------------
// pdbNamespace
// ---------------------------------------------------------------------------

class pdbNamespace final : public pdbFatItem {
 public:
  using memvec = std::vector<const pdbItem*>;

  using pdbFatItem::pdbFatItem;

  [[nodiscard]] const memvec& members() const { return members_; }
  /// Target name when this is a namespace alias ("" otherwise).
  [[nodiscard]] const std::string& alias() const { return alias_; }

 private:
  friend class PDB;
  memvec members_;
  std::string alias_;
};

// ---------------------------------------------------------------------------
// pdbTemplateItem: entities instantiable from templates
// ---------------------------------------------------------------------------

class pdbTemplateItem : public pdbFatItem {
 public:
  using pdbFatItem::pdbFatItem;

  /// The template this entity was instantiated from (null when none —
  /// including, per the paper's documented limitation, specializations
  /// analyzed without the template-ID extension).
  [[nodiscard]] const pdbTemplate* isTemplate() const { return template_; }
  [[nodiscard]] bool isSpecialized() const { return specialized_; }

 protected:
  friend class PDB;
  const pdbTemplate* template_ = nullptr;
  bool specialized_ = false;
};

// ---------------------------------------------------------------------------
// pdbClass
// ---------------------------------------------------------------------------

/// One base-class edge.
struct pdbBase {
  const pdbClass* base_ptr = nullptr;
  pdbItem::access_t access_ = pdbItem::AC_PUB;
  bool virtual_ = false;

  [[nodiscard]] const pdbClass* base() const { return base_ptr; }
  [[nodiscard]] pdbItem::access_t access() const { return access_; }
  [[nodiscard]] bool isVirtual() const { return virtual_; }
};

/// A data/type member entry.
struct pdbMember {
  std::string name_;
  pdbLoc location_;
  pdbItem::access_t access_ = pdbItem::AC_PUB;
  std::string kind_;  // "var" or "type"
  const pdbType* type_ = nullptr;
  const pdbClass* class_type_ = nullptr;  // when the member's type is a class

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const pdbLoc& location() const { return location_; }
  [[nodiscard]] pdbItem::access_t access() const { return access_; }
  [[nodiscard]] const std::string& kind() const { return kind_; }
  [[nodiscard]] const pdbType* type() const { return type_; }
  [[nodiscard]] const pdbClass* classType() const { return class_type_; }
};

struct pdbFriend {
  bool is_class_ = false;
  std::string name_;

  [[nodiscard]] bool isClass() const { return is_class_; }
  [[nodiscard]] const std::string& name() const { return name_; }
};

class pdbClass final : public pdbTemplateItem {
 public:
  enum class_t { CL_CLASS, CL_STRUCT, CL_UNION };

  using basevec = std::vector<pdbBase>;
  using funcvec = std::vector<const pdbRoutine*>;
  using memvec = std::vector<pdbMember>;
  using friendvec = std::vector<pdbFriend>;
  using classvec = std::vector<const pdbClass*>;

  using pdbTemplateItem::pdbTemplateItem;

  [[nodiscard]] class_t kind() const { return kind_; }
  [[nodiscard]] const basevec& baseClasses() const { return bases_; }
  /// Classes directly derived from this one (inverse of baseClasses).
  [[nodiscard]] const classvec& derivedClasses() const { return derived_; }
  [[nodiscard]] const funcvec& funcMembers() const { return funcs_; }
  [[nodiscard]] const memvec& dataMembers() const { return members_; }
  [[nodiscard]] const friendvec& friends() const { return friends_; }

 private:
  friend class PDB;
  class_t kind_ = CL_CLASS;
  basevec bases_;
  classvec derived_;
  funcvec funcs_;
  memvec members_;
  friendvec friends_;
};

// ---------------------------------------------------------------------------
// pdbRoutine
// ---------------------------------------------------------------------------

/// One call-site edge (Figure 5: (*it)->call(), (*it)->isVirtual()).
class pdbCall {
 public:
  pdbCall(const pdbRoutine* callee, bool is_virtual, pdbLoc loc)
      : callee_(callee), virtual_(is_virtual), location_(loc) {}

  [[nodiscard]] const pdbRoutine* call() const { return callee_; }
  [[nodiscard]] bool isVirtual() const { return virtual_; }
  [[nodiscard]] const pdbLoc& location() const { return location_; }

 private:
  const pdbRoutine* callee_;
  bool virtual_;
  pdbLoc location_;
};

class pdbRoutine final : public pdbTemplateItem {
 public:
  using callvec = std::vector<const pdbCall*>;

  enum link_t { LK_CXX, LK_C };
  enum store_t { ST_NA, ST_STATIC, ST_EXTERN };

  using pdbTemplateItem::pdbTemplateItem;

  /// The routines this routine calls (Figure 5's r->callees()).
  [[nodiscard]] const callvec& callees() const { return callees_; }
  /// Call sites targeting this routine (inverse edges).
  [[nodiscard]] const callvec& callers() const { return callers_; }

  [[nodiscard]] const pdbType* signature() const { return signature_; }
  [[nodiscard]] routine_t kind() const { return kind_; }
  [[nodiscard]] virt_t virtuality() const { return virtuality_; }
  [[nodiscard]] link_t linkage() const { return linkage_; }
  [[nodiscard]] store_t storage() const { return storage_; }
  [[nodiscard]] bool isStatic() const { return static_; }
  [[nodiscard]] bool isInline() const { return inline_; }
  [[nodiscard]] bool isExplicit() const { return explicit_; }
  [[nodiscard]] bool isDefined() const { return defined_; }

 private:
  friend class PDB;
  callvec callees_;
  callvec callers_;
  const pdbType* signature_ = nullptr;
  routine_t kind_ = RO_NORMAL;
  virt_t virtuality_ = VI_NO;
  link_t linkage_ = LK_CXX;
  store_t storage_ = ST_NA;
  bool static_ = false;
  bool inline_ = false;
  bool explicit_ = false;
  bool defined_ = false;
};

// ---------------------------------------------------------------------------
// PDB: an entire program database (paper §3.3)
// ---------------------------------------------------------------------------

class PDB {
 public:
  using filevec = std::vector<const pdbFile*>;
  using routinevec = std::vector<const pdbRoutine*>;
  using classvec = std::vector<const pdbClass*>;
  using typevec = std::vector<const pdbType*>;
  using templatevec = std::vector<const pdbTemplate*>;
  using namespacevec = std::vector<const pdbNamespace*>;
  using macrovec = std::vector<const pdbMacro*>;
  using itemvec = std::vector<const pdbSimpleItem*>;

  PDB();
  ~PDB();
  PDB(PDB&&) noexcept;
  PDB& operator=(PDB&&) noexcept;

  /// Builds the object graph over a database, taking its records: pass
  /// an rvalue to move them in (an lvalue is copied). The id maps must be
  /// current (PdbFile::reindex after bulk mutation).
  static PDB fromPdbFile(pdb::PdbFile file);
  /// Reads a PDB file from disk, auto-detecting the storage format (ASCII
  /// or binary v2): pdb::open, then releasePdb into fromPdbFile, so the
  /// records are moved, never copied. Empty PDB + error message on
  /// failure.
  static PDB read(const std::string& path);
  /// Lazy variant: materializes only `sections`. The object graph
  /// tolerates the missing cross-references (every lookup is guarded), so
  /// tools that need one slice of a large database skip the rest.
  static PDB read(const std::string& path, pdb::Sections sections);

  /// Writes the database back to the ASCII format.
  bool write(const std::string& path) const;
  void write(std::ostream& os) const;
  /// Writes in an explicit storage format (`--format` in the tools).
  bool write(const std::string& path, pdb::Format format) const;

  /// Merges `other` into this database, renumbering ids and eliminating
  /// duplicate template instantiations (paper Table 2, pdbmerge): a
  /// Merger over this database, adding a copy of `other`. Folding many
  /// databases is linear through one Merger (merger.h); this call re-keys
  /// this database every time.
  ///
  /// The object graph is rebuilt lazily at the next accessor call.
  /// Pointers obtained from the accessor vectors before a merge are
  /// invalidated by it. A PDB object is not internally synchronized —
  /// confine each instance to one thread at a time.
  void merge(const PDB& other);

  /// Gives up the records by move, leaving this PDB empty — how a
  /// consumed input is handed to a Merger.
  [[nodiscard]] pdb::PdbFile release() &&;

  [[nodiscard]] bool valid() const { return error_.empty(); }
  [[nodiscard]] const std::string& errorMessage() const { return error_; }

  [[nodiscard]] const filevec& getFileVec() const { ensureBuilt(); return files_; }
  [[nodiscard]] const routinevec& getRoutineVec() const { ensureBuilt(); return routines_; }
  [[nodiscard]] const classvec& getClassVec() const { ensureBuilt(); return classes_; }
  [[nodiscard]] const typevec& getTypeVec() const { ensureBuilt(); return types_; }
  [[nodiscard]] const templatevec& getTemplateVec() const { ensureBuilt(); return templates_; }
  [[nodiscard]] const namespacevec& getNamespaceVec() const { ensureBuilt(); return namespaces_; }
  [[nodiscard]] const macrovec& getMacroVec() const { ensureBuilt(); return macros_; }
  /// The file / routine with database id `id`, null when absent. Resolved
  /// through the database's id index; builds the object graph if needed.
  [[nodiscard]] const pdbFile* fileById(std::uint32_t id) const;
  [[nodiscard]] const pdbRoutine* routineById(std::uint32_t id) const;
  /// Every item in the database (paper: "a list of all items contained").
  [[nodiscard]] itemvec getItemVec() const;

  /// Files nobody includes — the roots of the source inclusion tree.
  [[nodiscard]] filevec getIncludeTreeRoots() const;
  /// Routines nobody calls — the roots of the static call tree.
  [[nodiscard]] routinevec getCallTreeRoots() const;
  /// Classes with no bases — the roots of the class hierarchy.
  [[nodiscard]] classvec getClassHierarchyRoots() const;

  /// Underlying typed representation (for tools that need raw access).
  [[nodiscard]] const pdb::PdbFile& raw() const { return raw_; }

 private:
  void build();  // constructs the object graph from raw_
  void ensureBuilt() const;  // lazy rebuild after merge/load

  pdb::PdbFile raw_;
  std::string error_;
  mutable bool graph_dirty_ = false;

  // The object graph (see the header comment): one node array per kind,
  // node i built from record i of raw_, and every call edge of both
  // directions in calls_. build() sizes each array before wiring it and
  // nothing grows them after, so the pointers handed out stay valid until
  // the next rebuild — also across a move of the PDB.
  std::vector<pdbFile> file_nodes_;
  std::vector<pdbRoutine> routine_nodes_;
  std::vector<pdbClass> class_nodes_;
  std::vector<pdbType> type_nodes_;
  std::vector<pdbTemplate> template_nodes_;
  std::vector<pdbNamespace> namespace_nodes_;
  std::vector<pdbMacro> macro_nodes_;
  std::vector<pdbCall> calls_;

  // The accessor vectors: pointers to the nodes above, in record order.
  filevec files_;
  routinevec routines_;
  classvec classes_;
  typevec types_;
  templatevec templates_;
  namespacevec namespaces_;
  macrovec macros_;
};

}  // namespace pdt::ductape
