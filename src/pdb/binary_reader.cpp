#include "pdb/binary_reader.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "pdb/binary_layout.h"
#include "pdb/format.h"
#include "support/trace.h"

namespace pdt::pdb {
namespace {

using binary::kHeaderSize;
using binary::kSectionEntrySize;

/// Bounds-checked little-endian cursor. Any overrun poisons the cursor
/// (`ok()` goes false and every later read returns 0), so decode loops can
/// run to completion and report one error instead of reading wild.
class Cursor {
 public:
  Cursor(std::string_view bytes, std::size_t pos) : bytes_(bytes), pos_(pos) {}

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    // Single load (see binary::loadLaneLE): the record decode loop is
    // fixed-width-field bound, so the load must not expand into per-byte
    // shifts.
    std::uint32_t v = 0;
    std::memcpy(&v, bytes_.data() + pos_, sizeof v);
    if constexpr (std::endian::native == std::endian::big) {
      std::uint32_t swapped = 0;
      for (int b = 0; b < 4; ++b)
        swapped |= ((v >> (8 * b)) & 0xffu) << (8 * (3 - b));
      v = swapped;
    }
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    const std::uint64_t v = binary::loadLaneLE(bytes_.data() + pos_);
    pos_ += 8;
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t pos() const { return pos_; }

 private:
  bool need(std::size_t n) {
    if (!ok_ || pos_ + n > bytes_.size()) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

struct SectionEntry {
  std::uint32_t kind = 0;
  std::uint32_t item_count = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;
};

class BinaryReader {
 public:
  BinaryReader(std::string_view bytes, Sections sections)
      : bytes_(bytes),
        sections_(sections),
        full_(sections == Sections::All) {}

  ReadResult run() {
    if (!checkEnvelope()) return std::move(result_);
    decodeStringTable();
    if (!result_.errors.empty()) return std::move(result_);
    for (const SectionEntry& entry : table_) {
      if (entry.kind > static_cast<std::uint32_t>(ItemKind::DynProf)) {
        error("section table names unknown item kind " +
              std::to_string(entry.kind));
        continue;
      }
      const auto kind = static_cast<ItemKind>(entry.kind);
      if (!hasSections(sections_, sectionOf(kind))) {
        ++skipped_;
        continue;
      }
      decodeSection(kind, entry);
    }
    result_.pdb.setOffsetUnit(OffsetUnit::Byte);
    result_.loaded = sections_;
    return std::move(result_);
  }

  [[nodiscard]] std::uint64_t skippedSectionCount() const { return skipped_; }

 private:
  void error(std::string message) {
    result_.errors.push_back("binary: " + std::move(message));
  }

  /// Magic, size, checksum, header, section table. Runs before any record
  /// decode so corrupt files are rejected in one cheap pass.
  ///
  /// Integrity policy, chosen so a lazy read composes with mmap: a full
  /// read (mask == All) verifies the trailing whole-file checksum exactly
  /// as before; a masked read verifies the string-table checksum here and
  /// each requested section's checksum in decodeSection — bytes of
  /// unrequested sections are never touched, so their pages are never
  /// faulted in.
  bool checkEnvelope() {
    if (bytes_.size() < kHeaderSize + 8 ||
        bytes_.substr(0, kBinaryMagic.size()) != kBinaryMagic) {
      error("missing or malformed binary PDB magic");
      return false;
    }
    Cursor header(bytes_, kBinaryMagic.size());
    const std::uint32_t section_count = header.u32();
    const std::uint64_t total_size = header.u64();
    strtab_offset_ = header.u64();
    strtab_size_ = header.u64();
    const std::uint64_t strtab_checksum = header.u64();
    if (total_size != bytes_.size()) {
      error("size mismatch: header says " + std::to_string(total_size) +
            " bytes, file has " + std::to_string(bytes_.size()));
      return false;
    }
    if (full_) {
      const std::string_view body = bytes_.substr(0, bytes_.size() - 8);
      Cursor tail(bytes_, bytes_.size() - 8);
      const std::uint64_t stored = tail.u64();
      const std::uint64_t computed = binary::checksum64(body);
      if (stored != computed) {
        error("checksum mismatch (file corrupt or truncated)");
        return false;
      }
    }
    if (kHeaderSize + section_count * kSectionEntrySize > bytes_.size() - 8) {
      error("section table overruns file");
      return false;
    }
    if (strtab_offset_ + strtab_size_ > bytes_.size() - 8) {
      error("string table overruns file");
      return false;
    }
    if (!full_ &&
        binary::checksum64(bytes_.substr(
            static_cast<std::size_t>(strtab_offset_),
            static_cast<std::size_t>(strtab_size_))) != strtab_checksum) {
      error("string table checksum mismatch (file corrupt or truncated)");
      return false;
    }
    Cursor cur(bytes_, kHeaderSize);
    for (std::uint32_t i = 0; i < section_count; ++i) {
      SectionEntry entry;
      entry.kind = cur.u32();
      entry.item_count = cur.u32();
      entry.offset = cur.u64();
      entry.size = cur.u64();
      entry.checksum = cur.u64();
      if (entry.offset + entry.size > bytes_.size() - 8) {
        error("section " + std::to_string(i) + " overruns file");
        return false;
      }
      // Every record is at least 8 bytes (id + name index); rejecting
      // inflated counts here means item_count is safe to reserve() on.
      if (entry.item_count > entry.size / 8) {
        error("section " + std::to_string(i) + " declares " +
              std::to_string(entry.item_count) +
              " items, more than its payload can hold");
        return false;
      }
      table_.push_back(entry);
    }
    return true;
  }

  void decodeStringTable() {
    Cursor cur(bytes_, static_cast<std::size_t>(strtab_offset_));
    const std::uint32_t count = cur.u32();
    strings_.reserve(count);
    const std::size_t end = strtab_offset_ + strtab_size_;
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t len = cur.u32();
      if (!cur.ok() || cur.pos() + len > end) {
        error("string table truncated at entry " + std::to_string(i));
        return;
      }
      strings_.push_back(bytes_.substr(cur.pos(), len));
      cur = Cursor(bytes_, cur.pos() + len);
    }
  }

  /// String-table lookup as a view over the file buffer — the zero-copy
  /// contract: every string field of the result aliases `bytes_`, and the
  /// file-level entry points park the buffer in the PdbFile as a backing.
  /// Out-of-range indexes report once and yield "".
  std::string_view str(std::uint32_t id) {
    if (id >= strings_.size()) {
      if (!bad_string_reported_) {
        bad_string_reported_ = true;
        error("record references string " + std::to_string(id) +
              " outside the " + std::to_string(strings_.size()) +
              "-entry string table");
      }
      return {};
    }
    return strings_[id];
  }

  std::optional<ItemRef> optRef(Cursor& cur) {
    const std::uint8_t kind = cur.u8();
    const std::uint32_t id = cur.u32();
    if (kind == 0xff) return std::nullopt;
    if (kind > static_cast<std::uint8_t>(ItemKind::DynProf)) {
      error("record references unknown item kind " + std::to_string(kind));
      return std::nullopt;
    }
    return ItemRef{static_cast<ItemKind>(kind), id};
  }
  ItemRef ref(Cursor& cur) {
    const auto r = optRef(cur);
    return r ? *r : ItemRef{};
  }
  std::optional<std::uint32_t> optU32(Cursor& cur) {
    const std::uint8_t has = cur.u8();
    const std::uint32_t v = cur.u32();
    if (has == 0) return std::nullopt;
    return v;
  }
  Pos pos(Cursor& cur) {
    Pos p;
    p.file = cur.u32();
    p.line = cur.u32();
    p.column = cur.u32();
    return p;
  }
  Extent extent(Cursor& cur) {
    Extent e;
    e.header_begin = pos(cur);
    e.header_end = pos(cur);
    e.body_begin = pos(cur);
    e.body_end = pos(cur);
    return e;
  }

  /// Grows the destination vector once up front (item_count is bounded
  /// by the envelope check) instead of reallocating along the way.
  void reserveSection(ItemKind kind, std::uint32_t n) {
    PdbFile& pdb = result_.pdb;
    switch (kind) {
      case ItemKind::SourceFile:
        pdb.sourceFiles().reserve(pdb.sourceFiles().size() + n);
        break;
      case ItemKind::Template:
        pdb.templates().reserve(pdb.templates().size() + n);
        break;
      case ItemKind::Routine:
        pdb.routines().reserve(pdb.routines().size() + n);
        break;
      case ItemKind::Class:
        pdb.classes().reserve(pdb.classes().size() + n);
        break;
      case ItemKind::Type:
        pdb.types().reserve(pdb.types().size() + n);
        break;
      case ItemKind::Namespace:
        pdb.namespaces().reserve(pdb.namespaces().size() + n);
        break;
      case ItemKind::Macro:
        pdb.macros().reserve(pdb.macros().size() + n);
        break;
      case ItemKind::DefUse:
        pdb.defUses().reserve(pdb.defUses().size() + n);
        break;
      case ItemKind::DynProf:
        pdb.dynProfs().reserve(pdb.dynProfs().size() + n);
        break;
    }
  }

  void decodeSection(ItemKind kind, const SectionEntry& entry) {
    if (!full_ &&
        binary::checksum64(bytes_.substr(
            static_cast<std::size_t>(entry.offset),
            static_cast<std::size_t>(entry.size))) != entry.checksum) {
      error(std::string(prefixOf(kind)) +
            " section checksum mismatch (file corrupt or truncated)");
      return;
    }
    reserveSection(kind, entry.item_count);
    Cursor cur(bytes_, static_cast<std::size_t>(entry.offset));
    const std::size_t end = entry.offset + entry.size;
    for (std::uint32_t i = 0; i < entry.item_count; ++i) {
      const std::uint64_t record_offset = cur.pos();
      switch (kind) {
        case ItemKind::SourceFile: decodeSourceFile(cur, record_offset); break;
        case ItemKind::Template: decodeTemplate(cur, record_offset); break;
        case ItemKind::Routine: decodeRoutine(cur, record_offset); break;
        case ItemKind::Class: decodeClass(cur, record_offset); break;
        case ItemKind::Type: decodeType(cur, record_offset); break;
        case ItemKind::Namespace: decodeNamespace(cur, record_offset); break;
        case ItemKind::Macro: decodeMacro(cur, record_offset); break;
        case ItemKind::DefUse: decodeDefUse(cur, record_offset); break;
        case ItemKind::DynProf: decodeDynProf(cur, record_offset); break;
      }
      if (!cur.ok() || cur.pos() > end) {
        error(std::string(prefixOf(kind)) + " section truncated at item " +
              std::to_string(i));
        return;
      }
    }
    if (cur.pos() != end)
      error(std::string(prefixOf(kind)) + " section has " +
            std::to_string(end - cur.pos()) + " trailing bytes");
  }

  void decodeSourceFile(Cursor& cur, std::uint64_t off) {
    SourceFileItem f;
    f.id = cur.u32();
    f.name = str(cur.u32());
    const std::uint32_t n = cur.u32();
    for (std::uint32_t i = 0; i < n && cur.ok(); ++i)
      f.includes.push_back(cur.u32());
    f.system = cur.u8() != 0;
    f.src_offset = off;
    if (cur.ok()) result_.pdb.addSourceFile(std::move(f));
  }

  void decodeTemplate(Cursor& cur, std::uint64_t off) {
    TemplateItem t;
    t.id = cur.u32();
    t.name = str(cur.u32());
    t.location = pos(cur);
    t.parent = optRef(cur);
    t.access = str(cur.u32());
    t.kind = str(cur.u32());
    t.text = str(cur.u32());
    t.extent = extent(cur);
    t.src_offset = off;
    if (cur.ok()) result_.pdb.addTemplate(std::move(t));
  }

  void decodeRoutine(Cursor& cur, std::uint64_t off) {
    RoutineItem r;
    r.id = cur.u32();
    r.name = str(cur.u32());
    r.location = pos(cur);
    r.parent = optRef(cur);
    r.access = str(cur.u32());
    r.signature = cur.u32();
    r.linkage = str(cur.u32());
    r.storage = str(cur.u32());
    r.virtuality = str(cur.u32());
    r.kind = str(cur.u32());
    r.template_id = optU32(cur);
    const std::uint8_t flags = cur.u8();
    r.is_specialization = (flags & 0x01) != 0;
    r.is_static = (flags & 0x02) != 0;
    r.is_inline = (flags & 0x04) != 0;
    r.is_explicit = (flags & 0x08) != 0;
    r.defined = (flags & 0x10) != 0;
    const std::uint32_t ncalls = cur.u32();
    for (std::uint32_t i = 0; i < ncalls && cur.ok(); ++i) {
      RoutineItem::Call c;
      c.routine = cur.u32();
      c.is_virtual = cur.u8() != 0;
      c.position = pos(cur);
      r.calls.push_back(c);
    }
    r.extent = extent(cur);
    r.src_offset = off;
    if (cur.ok()) result_.pdb.addRoutine(std::move(r));
  }

  void decodeClass(Cursor& cur, std::uint64_t off) {
    ClassItem c;
    c.id = cur.u32();
    c.name = str(cur.u32());
    c.location = pos(cur);
    c.parent = optRef(cur);
    c.access = str(cur.u32());
    c.kind = str(cur.u32());
    c.template_id = optU32(cur);
    c.is_specialization = cur.u8() != 0;
    const std::uint32_t nbases = cur.u32();
    for (std::uint32_t i = 0; i < nbases && cur.ok(); ++i) {
      ClassItem::Base b;
      b.cls = cur.u32();
      b.access = str(cur.u32());
      b.is_virtual = cur.u8() != 0;
      c.bases.push_back(b);
    }
    const std::uint32_t nfriends = cur.u32();
    for (std::uint32_t i = 0; i < nfriends && cur.ok(); ++i) {
      ClassItem::Friend f;
      f.is_class = cur.u8() != 0;
      f.name = str(cur.u32());
      f.ref = optRef(cur);
      c.friends.push_back(f);
    }
    const std::uint32_t nfuncs = cur.u32();
    for (std::uint32_t i = 0; i < nfuncs && cur.ok(); ++i) {
      ClassItem::MemberFunc mf;
      mf.routine = cur.u32();
      mf.location = pos(cur);
      c.funcs.push_back(mf);
    }
    const std::uint32_t nmembers = cur.u32();
    for (std::uint32_t i = 0; i < nmembers && cur.ok(); ++i) {
      ClassItem::Member m;
      m.name = str(cur.u32());
      m.location = pos(cur);
      m.access = str(cur.u32());
      m.kind = str(cur.u32());
      m.type = ref(cur);
      c.members.push_back(m);
    }
    c.extent = extent(cur);
    c.src_offset = off;
    if (cur.ok()) result_.pdb.addClass(std::move(c));
  }

  void decodeType(Cursor& cur, std::uint64_t off) {
    TypeItem t;
    t.id = cur.u32();
    t.name = str(cur.u32());
    t.kind = str(cur.u32());
    t.ikind = str(cur.u32());
    t.ref = optRef(cur);
    const std::uint32_t nquals = cur.u32();
    for (std::uint32_t i = 0; i < nquals && cur.ok(); ++i)
      t.qualifiers.push_back(str(cur.u32()));
    t.return_type = optRef(cur);
    const std::uint32_t nparams = cur.u32();
    for (std::uint32_t i = 0; i < nparams && cur.ok(); ++i)
      t.params.push_back(ref(cur));
    const std::uint8_t flags = cur.u8();
    t.has_ellipsis = (flags & 0x01) != 0;
    t.has_exception_spec = (flags & 0x02) != 0;
    const std::uint32_t nexcep = cur.u32();
    for (std::uint32_t i = 0; i < nexcep && cur.ok(); ++i)
      t.exception_specs.push_back(ref(cur));
    t.array_size = cur.i64();
    const std::uint32_t nenum = cur.u32();
    for (std::uint32_t i = 0; i < nenum && cur.ok(); ++i) {
      const std::string_view name = str(cur.u32());
      const std::int64_t value = cur.i64();
      t.enumerators.emplace_back(name, value);
    }
    t.src_offset = off;
    if (cur.ok()) result_.pdb.addType(std::move(t));
  }

  void decodeNamespace(Cursor& cur, std::uint64_t off) {
    NamespaceItem n;
    n.id = cur.u32();
    n.name = str(cur.u32());
    n.location = pos(cur);
    const std::uint32_t nmem = cur.u32();
    for (std::uint32_t i = 0; i < nmem && cur.ok(); ++i)
      n.members.push_back(ref(cur));
    n.alias = str(cur.u32());
    n.src_offset = off;
    if (cur.ok()) result_.pdb.addNamespace(std::move(n));
  }

  void decodeMacro(Cursor& cur, std::uint64_t off) {
    MacroItem m;
    m.id = cur.u32();
    m.name = str(cur.u32());
    m.location = pos(cur);
    m.kind = str(cur.u32());
    m.text = str(cur.u32());
    m.src_offset = off;
    if (cur.ok()) result_.pdb.addMacro(std::move(m));
  }

  void decodeDefUse(Cursor& cur, std::uint64_t off) {
    DefUseItem d;
    d.id = cur.u32();
    d.routine = cur.u32();
    const std::uint32_t nevents = cur.u32();
    for (std::uint32_t i = 0; i < nevents && cur.ok(); ++i) {
      DefUseItem::Event e;
      const std::uint8_t op = cur.u8();
      if (op > static_cast<std::uint8_t>(DuOp::Marker)) {
        error("du event names unknown op " + std::to_string(op));
        return;
      }
      e.op = static_cast<DuOp>(op);
      e.flags = cur.u8();
      e.name = str(cur.u32());
      e.pos = pos(cur);
      d.events.push_back(e);
    }
    d.src_offset = off;
    if (cur.ok()) result_.pdb.addDefUse(std::move(d));
  }

  void decodeDynProf(Cursor& cur, std::uint64_t off) {
    DynProfItem p;
    p.id = cur.u32();
    p.name = str(cur.u32());
    p.routine = cur.u32();
    p.calls = cur.u64();
    p.child_calls = cur.u64();
    p.inclusive_ns = cur.u64();
    p.exclusive_ns = cur.u64();
    p.threads = cur.u32();
    p.contexts = cur.u32();
    p.src_offset = off;
    if (cur.ok()) result_.pdb.addDynProf(std::move(p));
  }

  std::string_view bytes_;
  Sections sections_ = Sections::All;
  bool full_ = true;  // mask == All: verify the trailing whole-file checksum
  std::uint64_t strtab_offset_ = 0;
  std::uint64_t strtab_size_ = 0;
  std::vector<SectionEntry> table_;
  std::vector<std::string_view> strings_;   // views into bytes_
  bool bad_string_reported_ = false;
  std::uint64_t skipped_ = 0;
  ReadResult result_;
};

}  // namespace

bool isBinaryPdb(std::string_view bytes) {
  return bytes.size() >= kBinaryMagic.size() &&
         bytes.substr(0, kBinaryMagic.size()) == kBinaryMagic;
}

ReadResult readBinaryFromBuffer(std::string_view bytes, Sections sections) {
  BinaryReader reader(bytes, sections);
  ReadResult result = reader.run();
  if (result.ok()) {
    trace::count(trace::Counter::PdbFilesRead);
    trace::count(trace::Counter::PdbItemsRead, result.pdb.itemCount());
    trace::countKey("pdb.read.by_format", "binary");
    if (const auto skipped = reader.skippedSectionCount(); skipped > 0)
      trace::count(trace::Counter::PdbSectionsSkipped, skipped);
  }
  return result;
}

}  // namespace pdt::pdb
