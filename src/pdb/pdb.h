// In-memory model of a program database (PDB) file.
//
// This is the typed representation of the ASCII format documented in
// docs/PDB_FORMAT.md (paper Table 1 / Figure 3). The IL Analyzer fills it
// from the IL; the writer/reader serialize it; DUCTAPE exposes it through
// the paper's object-oriented API.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/interner.h"

namespace pdt::pdb {

enum class ItemKind : std::uint8_t {
  SourceFile,  // so
  Routine,     // ro
  Class,       // cl
  Type,        // ty
  Template,    // te
  Namespace,   // na
  Macro,       // ma
  DefUse,      // du
  DynProf,     // dp
};

[[nodiscard]] std::string_view prefixOf(ItemKind kind);
[[nodiscard]] std::optional<ItemKind> kindFromPrefix(std::string_view prefix);

/// Bitmask of the nine item sections. Readers accept a mask and skip the
/// sections a tool does not need (the binary format's section table makes
/// the skip O(1); the ASCII reader skips item bodies without decoding
/// their attributes).
enum class Sections : std::uint16_t {
  None = 0,
  SourceFiles = 1u << 0,
  Routines = 1u << 1,
  Classes = 1u << 2,
  Types = 1u << 3,
  Templates = 1u << 4,
  Namespaces = 1u << 5,
  Macros = 1u << 6,
  DefUses = 1u << 7,
  DynProfs = 1u << 8,
  All = 0x1ff,
};

[[nodiscard]] constexpr Sections operator|(Sections a, Sections b) {
  return static_cast<Sections>(static_cast<std::uint16_t>(a) |
                               static_cast<std::uint16_t>(b));
}
[[nodiscard]] constexpr Sections operator&(Sections a, Sections b) {
  return static_cast<Sections>(static_cast<std::uint16_t>(a) &
                               static_cast<std::uint16_t>(b));
}
[[nodiscard]] constexpr Sections operator~(Sections a) {
  return static_cast<Sections>(~static_cast<std::uint16_t>(a) & 0x1ff);
}
inline Sections& operator|=(Sections& a, Sections b) { return a = a | b; }

/// True when `set` contains every section in `want`.
[[nodiscard]] constexpr bool hasSections(Sections set, Sections want) {
  return (set & want) == want;
}

[[nodiscard]] constexpr Sections sectionOf(ItemKind kind) {
  return static_cast<Sections>(1u << static_cast<std::uint8_t>(kind));
}

/// What an item's `src_offset` counts: the source line (ASCII reader), the
/// byte offset of its record (binary reader), or nothing (databases built
/// in memory, merged databases).
enum class OffsetUnit : std::uint8_t { None, Line, Byte };

/// Reference to another item: "ro#7".
struct ItemRef {
  ItemKind kind = ItemKind::Type;
  std::uint32_t id = 0;

  [[nodiscard]] bool valid() const { return id != 0; }
  [[nodiscard]] std::string str() const;
  friend bool operator==(const ItemRef&, const ItemRef&) = default;
};

/// A source position: "so#73 72 9"; id 0 renders as "NULL 0 0".
struct Pos {
  std::uint32_t file = 0;  // so item id
  std::uint32_t line = 0;
  std::uint32_t column = 0;

  [[nodiscard]] bool valid() const { return file != 0; }
  friend bool operator==(const Pos&, const Pos&) = default;
};

/// Four-position extent: header begin/end, body begin/end (rpos/cpos/tpos).
struct Extent {
  Pos header_begin, header_end, body_begin, body_end;
};

struct SourceFileItem {
  std::uint32_t id = 0;
  std::string_view name;  // path
  std::vector<std::uint32_t> includes;  // so ids, in include order
  bool system = false;
  std::uint64_t src_offset = 0;  // see PdbFile::offsetUnit()
};

// Every string field of an item — names, template/macro text, aliases as
// well as the enum-like attributes (access, linkage, kind, ...) — is a
// string_view over storage that outlives the item:
//
//  * string literals (the analyzer/frontends assign from fixed
//    vocabularies),
//  * the process-wide intern table (PdbFile::intern — producers route
//    computed names through it),
//  * a read buffer the owning PdbFile has adopted as a backing
//    (PdbFile::adoptBacking — the zero-copy readers alias the mmap'd or
//    slurped file bytes directly), or
//  * the owning PdbFile's own arena (PdbFile::own — per-database storage
//    released with the database, used for strings synthesized during a
//    parse, e.g. unescaped template text).
//
// This is what makes reads zero-copy and items cheap to copy; the cost is
// an ownership rule: whoever assigns a computed std::string must park it
// in one of the four storages first. Assigning a std::string temporary
// compiles (string -> string_view converts implicitly) and dangles.

struct RoutineItem {
  std::uint32_t id = 0;
  std::string_view name;
  Pos location;
  std::optional<ItemRef> parent;  // cl or na
  std::string_view access = "NA";  // pub/prot/priv/NA
  std::uint32_t signature = 0;     // ty id
  std::string_view linkage = "C++";
  std::string_view storage = "NA";
  std::string_view virtuality = "no";  // no/virt/pure
  std::string_view kind = "routine";   // routine/ctor/dtor/conv/op
  std::optional<std::uint32_t> template_id;  // te id (instantiations)
  bool is_specialization = false;
  bool is_static = false;
  bool is_inline = false;
  bool is_explicit = false;
  bool defined = false;

  struct Call {
    std::uint32_t routine = 0;  // ro id
    bool is_virtual = false;
    Pos position;
  };
  std::vector<Call> calls;
  Extent extent;
  std::uint64_t src_offset = 0;
};

struct ClassItem {
  std::uint32_t id = 0;
  std::string_view name;
  Pos location;
  std::optional<ItemRef> parent;
  std::string_view access = "NA";
  std::string_view kind = "class";  // class/struct/union
  std::optional<std::uint32_t> template_id;  // te id
  bool is_specialization = false;

  struct Base {
    std::uint32_t cls = 0;  // cl id
    std::string_view access = "pub";
    bool is_virtual = false;
  };
  std::vector<Base> bases;

  struct Friend {
    bool is_class = false;
    std::string_view name;
    std::optional<ItemRef> ref;
  };
  std::vector<Friend> friends;

  struct MemberFunc {
    std::uint32_t routine = 0;  // ro id
    Pos location;
  };
  std::vector<MemberFunc> funcs;

  struct Member {
    std::string_view name;
    Pos location;
    std::string_view access = "pub";
    std::string_view kind = "var";  // var/type
    ItemRef type;
  };
  std::vector<Member> members;
  Extent extent;
  std::uint64_t src_offset = 0;
};

struct TypeItem {
  std::uint32_t id = 0;
  std::string_view name;  // C++ spelling
  std::string_view kind;  // ykind: bool/char/int/.../ptr/ref/tref/func/enum/array/tparam
  std::string_view ikind;  // builtin detail (yikind)
  std::optional<ItemRef> ref;     // pointee/referee/qualified base/element
  std::vector<std::string_view> qualifiers;  // const/volatile (tref, memfn const)
  std::optional<ItemRef> return_type;
  std::vector<ItemRef> params;
  bool has_ellipsis = false;
  std::vector<ItemRef> exception_specs;
  bool has_exception_spec = false;
  std::int64_t array_size = -1;
  /// Enum types: the enumerators and their values ("yenum" lines).
  std::vector<std::pair<std::string_view, long long>> enumerators;
  std::uint64_t src_offset = 0;
};

struct TemplateItem {
  std::uint32_t id = 0;
  std::string_view name;
  Pos location;
  std::optional<ItemRef> parent;
  std::string_view access = "NA";
  std::string_view kind = "class";  // class/func/memfunc/statmem
  std::string_view text;
  Extent extent;
  std::uint64_t src_offset = 0;
};

struct NamespaceItem {
  std::uint32_t id = 0;
  std::string_view name;
  Pos location;
  std::vector<ItemRef> members;
  std::string_view alias;  // target name when this is an alias
  std::uint64_t src_offset = 0;
};

struct MacroItem {
  std::uint32_t id = 0;
  std::string_view name;
  Pos location;
  std::string_view kind = "def";  // def/undef
  std::string_view text;
  std::uint64_t src_offset = 0;
};

/// What one def-use event does to its variable.
enum class DuOp : std::uint8_t {
  Def,     // writes the named storage
  Use,     // reads the named storage
  Marker,  // structural control-flow marker (name = marker kind)
};

/// Flag bits on a def/use event (DefUseItem::Event::flags).
namespace du {
inline constexpr std::uint8_t kPointer = 1u << 0;    // pointer-typed variable
inline constexpr std::uint8_t kReference = 1u << 1;  // reference-typed variable
inline constexpr std::uint8_t kMember = 1u << 2;     // member access (a.b / p->b)
inline constexpr std::uint8_t kNullValue = 1u << 3;  // def assigns a null constant
inline constexpr std::uint8_t kUninit = 1u << 4;     // def leaves storage uninitialized
inline constexpr std::uint8_t kParam = 1u << 5;      // def of a routine parameter
inline constexpr std::uint8_t kUnknown = 1u << 6;    // def with unanalyzable value
inline constexpr std::uint8_t kDeref = 1u << 7;      // use dereferences a pointer
/// Mnemonic letters, one per bit, in bit order ("PRMNUAXD"); "-" = none.
[[nodiscard]] std::string flagsText(std::uint8_t flags);
[[nodiscard]] std::optional<std::uint8_t> flagsFromText(std::string_view text);
}  // namespace du

/// Per-routine ordered def-use stream ("du" items). One item per routine
/// with a body; `events` lists defs, uses, and structural markers in a
/// deterministic source walk order. Marker names come from a small closed
/// vocabulary (if/then/else/endif, loop/body/endloop, switch/case/
/// endswitch, ret/break/continue, irregular) that lets consumers rebuild a
/// CFG-lite without reparsing sources (docs/PDB_FORMAT.md §du).
struct DefUseItem {
  std::uint32_t id = 0;
  std::uint32_t routine = 0;  // ro id

  struct Event {
    DuOp op = DuOp::Use;
    std::uint8_t flags = 0;
    std::string_view name;  // variable path ("x", "this.top") or marker kind
    Pos pos;
    friend bool operator==(const Event&, const Event&) = default;
  };
  std::vector<Event> events;
  std::uint64_t src_offset = 0;
};

/// Measured cost of one profiled routine ("dp" items) — the dynamic half
/// of the paper's Figure 7, stored next to the static sections so tools
/// can join structure with measured cost. One item per distinct TAU
/// profile entry (base name + instantiation type); counts and times are
/// aggregated over every thread/process profile that was merged in
/// (src/tau/profile_merge, the tauprof tool).
struct DynProfItem {
  std::uint32_t id = 0;
  std::uint32_t routine = 0;  // ro id; 0 when no static routine matched
  std::string_view name;      // TAU display name, e.g. "push() <Stack<int>>"
  std::uint64_t calls = 0;
  std::uint64_t child_calls = 0;
  std::uint64_t inclusive_ns = 0;
  std::uint64_t exclusive_ns = 0;
  std::uint32_t threads = 0;   // thread profiles that contributed
  std::uint32_t contexts = 0;  // distinct (node, context) processes
  std::uint64_t src_offset = 0;
};

/// One program database. Ids are unique per item kind; lookup maps are
/// maintained by the mutators.
class PdbFile {
 public:
  static constexpr std::string_view kVersion = "1.0";

  /// Interned-string table for attribute values: returns a view that stays
  /// valid for the life of the process (shared across all databases).
  static std::string_view intern(std::string_view text) {
    return internString(text);
  }

  /// Keeps `storage` alive for as long as this database (or any copy of
  /// it) lives. The zero-copy readers park the parse buffer here so item
  /// views can alias it; shared_ptr semantics make copies of the PdbFile
  /// share the backing instead of duplicating the bytes.
  void adoptBacking(std::shared_ptr<const void> storage) {
    if (storage != nullptr) backings_.push_back(std::move(storage));
  }

  /// Adopts every backing (and the arena) of `other` — required when items
  /// move or are copied across databases (merge) and their views must
  /// outlive the source.
  void adoptBackingsOf(const PdbFile& other) {
    backings_.insert(backings_.end(), other.backings_.begin(),
                     other.backings_.end());
    if (other.arena_ != nullptr) backings_.push_back(other.arena_);
  }

  /// Copies `text` into this database's own arena and returns a stable
  /// view. Unlike intern(), the storage is released with the database —
  /// use it for strings synthesized during a parse (unescaped template
  /// text) whose lifetime should not be the whole process.
  std::string_view own(std::string_view text) { return own(std::string(text)); }
  std::string_view own(std::string&& text) {
    // Deque: grow never relocates elements, so views into the stored
    // strings stay valid (a vector would invalidate SSO strings on grow).
    if (arena_ == nullptr) arena_ = std::make_shared<std::deque<std::string>>();
    arena_->push_back(std::move(text));
    return arena_->back();
  }

  std::uint32_t addSourceFile(SourceFileItem item);
  std::uint32_t addRoutine(RoutineItem item);
  std::uint32_t addClass(ClassItem item);
  std::uint32_t addType(TypeItem item);
  std::uint32_t addTemplate(TemplateItem item);
  std::uint32_t addNamespace(NamespaceItem item);
  std::uint32_t addMacro(MacroItem item);
  std::uint32_t addDefUse(DefUseItem item);
  std::uint32_t addDynProf(DynProfItem item);

  [[nodiscard]] const std::vector<SourceFileItem>& sourceFiles() const { return files_; }
  [[nodiscard]] const std::vector<RoutineItem>& routines() const { return routines_; }
  [[nodiscard]] const std::vector<ClassItem>& classes() const { return classes_; }
  [[nodiscard]] const std::vector<TypeItem>& types() const { return types_; }
  [[nodiscard]] const std::vector<TemplateItem>& templates() const { return templates_; }
  [[nodiscard]] const std::vector<NamespaceItem>& namespaces() const { return namespaces_; }
  [[nodiscard]] const std::vector<MacroItem>& macros() const { return macros_; }
  [[nodiscard]] const std::vector<DefUseItem>& defUses() const { return def_uses_; }
  [[nodiscard]] const std::vector<DynProfItem>& dynProfs() const { return dyn_profs_; }

  // Mutable access for pdbmerge and the analyzer.
  [[nodiscard]] std::vector<SourceFileItem>& sourceFiles() { return files_; }
  [[nodiscard]] std::vector<RoutineItem>& routines() { return routines_; }
  [[nodiscard]] std::vector<ClassItem>& classes() { return classes_; }
  [[nodiscard]] std::vector<TypeItem>& types() { return types_; }
  [[nodiscard]] std::vector<TemplateItem>& templates() { return templates_; }
  [[nodiscard]] std::vector<NamespaceItem>& namespaces() { return namespaces_; }
  [[nodiscard]] std::vector<MacroItem>& macros() { return macros_; }
  [[nodiscard]] std::vector<DefUseItem>& defUses() { return def_uses_; }
  [[nodiscard]] std::vector<DynProfItem>& dynProfs() { return dyn_profs_; }

  [[nodiscard]] const SourceFileItem* findSourceFile(std::uint32_t id) const;
  [[nodiscard]] const RoutineItem* findRoutine(std::uint32_t id) const;
  [[nodiscard]] const ClassItem* findClass(std::uint32_t id) const;
  [[nodiscard]] const TypeItem* findType(std::uint32_t id) const;
  [[nodiscard]] const TemplateItem* findTemplate(std::uint32_t id) const;
  [[nodiscard]] const NamespaceItem* findNamespace(std::uint32_t id) const;
  [[nodiscard]] const MacroItem* findMacro(std::uint32_t id) const;
  [[nodiscard]] const DefUseItem* findDefUse(std::uint32_t id) const;
  [[nodiscard]] const DynProfItem* findDynProf(std::uint32_t id) const;

  [[nodiscard]] std::size_t itemCount() const;
  /// The id the next add() of an id-0 item of `kind` assigns.
  [[nodiscard]] std::uint32_t nextId(ItemKind kind) const;

  /// What the items' `src_offset` fields count. Readers set this;
  /// databases built or merged in memory leave it at None (their offsets
  /// are meaningless and diagnostics omit them).
  [[nodiscard]] OffsetUnit offsetUnit() const { return offset_unit_; }
  void setOffsetUnit(OffsetUnit unit) { offset_unit_ = unit; }

  /// Rebuilds the id->index maps (call after bulk mutation, e.g. merge).
  void reindex();

 private:
  template <typename T>
  std::uint32_t add(std::vector<T>& vec,
                    std::unordered_map<std::uint32_t, std::size_t>& index,
                    T item, std::uint32_t& next_id);

  std::vector<SourceFileItem> files_;
  std::vector<RoutineItem> routines_;
  std::vector<ClassItem> classes_;
  std::vector<TypeItem> types_;
  std::vector<TemplateItem> templates_;
  std::vector<NamespaceItem> namespaces_;
  std::vector<MacroItem> macros_;
  std::vector<DefUseItem> def_uses_;
  std::vector<DynProfItem> dyn_profs_;

  std::unordered_map<std::uint32_t, std::size_t> file_index_, routine_index_,
      class_index_, type_index_, template_index_, namespace_index_, macro_index_,
      def_use_index_, dyn_prof_index_;
  std::uint32_t next_file_id_ = 1, next_routine_id_ = 1, next_class_id_ = 1,
                next_type_id_ = 1, next_template_id_ = 1, next_namespace_id_ = 1,
                next_macro_id_ = 1, next_def_use_id_ = 1, next_dyn_prof_id_ = 1;
  OffsetUnit offset_unit_ = OffsetUnit::None;

  // Ownership for item string_views: adopted read buffers and the
  // database's own string arena. shared_ptr so PdbFile stays copyable and
  // copies share rather than duplicate the storage.
  std::vector<std::shared_ptr<const void>> backings_;
  std::shared_ptr<std::deque<std::string>> arena_;
};

}  // namespace pdt::pdb
