#include "pdb/reader.h"

#include <charconv>
#include <fstream>
#include <istream>
#include <sstream>

#include "support/text.h"
#include "support/trace.h"

namespace pdt::pdb {
namespace {

/// Cursor over the whitespace-separated fields of one attribute line.
/// Tokenizes lazily in place — no per-line vector, no per-field string.
class Fields {
 public:
  explicit Fields(std::string_view line) : text_(line) {}

  [[nodiscard]] bool empty() const {
    skipSpace();
    return pos_ >= text_.size();
  }

  std::optional<std::string_view> next() {
    skipSpace();
    if (pos_ >= text_.size()) return std::nullopt;
    const std::size_t start = pos_;
    while (pos_ < text_.size() && !isSpace(text_[pos_])) ++pos_;
    return text_.substr(start, pos_ - start);
  }

  std::optional<ItemRef> nextRef() {
    const auto f = next();
    if (!f) return std::nullopt;
    const auto hash = f->find('#');
    if (hash == std::string_view::npos) return std::nullopt;
    const auto kind = kindFromPrefix(f->substr(0, hash));
    std::uint32_t id = 0;
    if (!kind || !parseUint(f->substr(hash + 1), id)) return std::nullopt;
    return ItemRef{*kind, id};
  }

  /// Next field as a stable interned view; empty when exhausted (malformed
  /// input). Use for the bounded attribute vocabulary (access, kind, ...);
  /// the returned view outlives the parse buffer.
  std::string_view nextInterned() {
    const auto f = next();
    return f ? PdbFile::intern(*f) : std::string_view{};
  }

  std::optional<std::uint32_t> nextUint() {
    const auto f = next();
    std::uint32_t v = 0;
    if (!f || !parseUint(*f, v)) return std::nullopt;
    return v;
  }

  std::optional<std::uint64_t> nextU64() {
    const auto f = next();
    if (!f || f->empty()) return std::nullopt;
    std::uint64_t v = 0;
    const auto [ptr, ec] =
        std::from_chars(f->data(), f->data() + f->size(), v);
    if (ec != std::errc{} || ptr != f->data() + f->size()) return std::nullopt;
    return v;
  }

  std::optional<Pos> nextPos() {
    const auto f = next();
    if (!f) return std::nullopt;
    Pos pos;
    if (*f != "NULL") {
      const auto hash = f->find('#');
      if (hash == std::string_view::npos || f->substr(0, hash) != "so")
        return std::nullopt;
      if (!parseUint(f->substr(hash + 1), pos.file)) return std::nullopt;
    }
    const auto line = nextUint();
    const auto col = nextUint();
    if (!line || !col) return std::nullopt;
    pos.line = *line;
    pos.column = *col;
    return pos;
  }

 private:
  static bool isSpace(char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' ||
           c == '\f';
  }
  void skipSpace() const {
    while (pos_ < text_.size() && isSpace(text_[pos_])) ++pos_;
  }

  std::string_view text_;
  mutable std::size_t pos_ = 0;
};

/// Parses the whole database out of one contiguous buffer. Lines are
/// sliced with find('\n') — the buffer is read exactly once and the only
/// allocations left are the item vectors and genuinely unique names.
class Reader {
 public:
  explicit Reader(std::string_view buffer, Sections sections)
      : buffer_(buffer), sections_(sections) {}

  ReadResult run() {
    if (trim(nextLine()) != "<PDB 1.0>") {
      error("missing or malformed <PDB 1.0> header");
      return std::move(result_);
    }
    while (cursor_ < buffer_.size()) {
      const std::string_view text = trim(nextLine());
      ++line_no_;
      if (text.empty()) {
        flush();
        continue;
      }
      if (current_kind_ == std::nullopt) {
        startItem(text);
      } else if (!skip_) {
        attribute(text);
      }
    }
    flush();
    result_.pdb.setOffsetUnit(OffsetUnit::Line);
    result_.loaded = sections_;
    return std::move(result_);
  }

  /// Sections present in the input but left unloaded by the mask.
  [[nodiscard]] std::uint64_t skippedSectionCount() const {
    std::uint64_t n = 0;
    for (auto bits = static_cast<std::uint16_t>(skipped_present_); bits != 0;
         bits &= bits - 1)
      ++n;
    return n;
  }

 private:
  std::string_view nextLine() {
    const std::size_t start = cursor_;
    const std::size_t nl = buffer_.find('\n', start);
    if (nl == std::string_view::npos) {
      cursor_ = buffer_.size();
      return buffer_.substr(start);
    }
    cursor_ = nl + 1;
    return buffer_.substr(start, nl - start);
  }

  void error(std::string message) {
    result_.errors.push_back("line " + std::to_string(line_no_) + ": " +
                             std::move(message));
  }

  void startItem(std::string_view text) {
    const auto hash = text.find('#');
    const auto space = text.find(' ');
    if (hash == std::string_view::npos || (space != std::string_view::npos &&
                                           hash > space)) {
      error("expected item header, got '" + std::string(text) + "'");
      return;
    }
    const auto kind = kindFromPrefix(text.substr(0, hash));
    if (!kind) {
      error("unknown item prefix in '" + std::string(text) + "'");
      return;
    }
    if (!hasSections(sections_, sectionOf(*kind))) {
      // Lazy read: remember the section exists, decode nothing.
      skipped_present_ |= sectionOf(*kind);
      current_kind_ = *kind;
      skip_ = true;
      return;
    }
    const std::string_view id_text =
        text.substr(hash + 1, space == std::string_view::npos
                                  ? std::string_view::npos
                                  : space - hash - 1);
    std::uint32_t id = 0;
    if (!parseUint(id_text, id)) {
      error("malformed item id in '" + std::string(text) + "'");
      return;
    }
    // Zero-copy: the name aliases the parse buffer (the file-level entry
    // points park the buffer in the PdbFile as a backing).
    const std::string_view name =
        space == std::string_view::npos ? std::string_view{}
                                        : trim(text.substr(space + 1));
    current_kind_ = *kind;
    const auto off = static_cast<std::uint64_t>(line_no_);
    switch (*kind) {
      case ItemKind::SourceFile: file_ = {}; file_.id = id; file_.name = name; file_.src_offset = off; break;
      case ItemKind::Routine: routine_ = {}; routine_.id = id; routine_.name = name; routine_.src_offset = off; break;
      case ItemKind::Class: class_ = {}; class_.id = id; class_.name = name; class_.src_offset = off; break;
      case ItemKind::Type: type_ = {}; type_.id = id; type_.name = name; type_.src_offset = off; break;
      case ItemKind::Template: template_ = {}; template_.id = id; template_.name = name; template_.src_offset = off; break;
      case ItemKind::Namespace: namespace_ = {}; namespace_.id = id; namespace_.name = name; namespace_.src_offset = off; break;
      case ItemKind::Macro: macro_ = {}; macro_.id = id; macro_.name = name; macro_.src_offset = off; break;
      case ItemKind::DefUse: {
        def_use_ = {};
        def_use_.id = id;
        def_use_.src_offset = off;
        // Header carries the owning routine: "du#3 ro#7".
        Fields fields(name);
        const auto ref = fields.nextRef();
        if (ref && ref->kind == ItemKind::Routine) def_use_.routine = ref->id;
        else error("malformed du header routine in '" + std::string(text) + "'");
        break;
      }
      case ItemKind::DynProf:
        dyn_prof_ = {};
        dyn_prof_.id = id;
        dyn_prof_.name = name;
        dyn_prof_.src_offset = off;
        break;
    }
  }

  void flush() {
    if (!current_kind_) return;
    if (skip_) {
      skip_ = false;
      current_kind_ = std::nullopt;
      return;
    }
    switch (*current_kind_) {
      case ItemKind::SourceFile: result_.pdb.addSourceFile(std::move(file_)); break;
      case ItemKind::Routine: result_.pdb.addRoutine(std::move(routine_)); break;
      case ItemKind::Class: result_.pdb.addClass(std::move(class_)); break;
      case ItemKind::Type: result_.pdb.addType(std::move(type_)); break;
      case ItemKind::Template: result_.pdb.addTemplate(std::move(template_)); break;
      case ItemKind::Namespace: result_.pdb.addNamespace(std::move(namespace_)); break;
      case ItemKind::Macro: result_.pdb.addMacro(std::move(macro_)); break;
      case ItemKind::DefUse: result_.pdb.addDefUse(std::move(def_use_)); break;
      case ItemKind::DynProf: result_.pdb.addDynProf(std::move(dyn_prof_)); break;
    }
    current_kind_ = std::nullopt;
  }

  /// Rest of line after the key (preserves internal spacing for text).
  static std::string_view restAfterKey(std::string_view text) {
    const auto space = text.find(' ');
    return space == std::string_view::npos ? std::string_view{}
                                           : trim(text.substr(space + 1));
  }

  /// Escaped text (ttext/mtext): most lines carry no escape at all, in
  /// which case the raw bytes are the value and can alias the buffer;
  /// otherwise the unescaped copy is parked in the database's arena.
  std::string_view unescaped(std::string_view raw) {
    if (raw.find('\\') == std::string_view::npos) return raw;
    return result_.pdb.own(unescapePdbString(raw));
  }

  void attribute(std::string_view text) {
    const auto space = text.find(' ');
    const std::string_view key =
        space == std::string_view::npos ? text : text.substr(0, space);
    Fields fields(space == std::string_view::npos ? std::string_view{}
                                                  : text.substr(space + 1));
    const auto expectPos = [&](Pos& out) {
      if (const auto p = fields.nextPos()) out = *p;
      else error("malformed position in '" + std::string(text) + "'");
    };
    const auto expectExtent = [&](Extent& out) {
      const auto a = fields.nextPos(), b = fields.nextPos(), c = fields.nextPos(),
                 d = fields.nextPos();
      if (a && b && c && d) out = {*a, *b, *c, *d};
      else error("malformed extent in '" + std::string(text) + "'");
    };

    switch (*current_kind_) {
      case ItemKind::SourceFile:
        if (key == "sinc") {
          if (const auto ref = fields.nextRef()) file_.includes.push_back(ref->id);
        } else if (key == "ssys") {
          file_.system = true;
        } else {
          error("unknown source-file attribute '" + std::string(key) + "'");
        }
        break;

      case ItemKind::Routine:
        if (key == "rloc") expectPos(routine_.location);
        else if (key == "rclass" || key == "rnspace") routine_.parent = fields.nextRef();
        else if (key == "racs") routine_.access = fields.nextInterned();
        else if (key == "rsig") {
          if (const auto ref = fields.nextRef()) routine_.signature = ref->id;
        } else if (key == "rlink") routine_.linkage = PdbFile::intern(restAfterKey(text));
        else if (key == "rstore") routine_.storage = fields.nextInterned();
        else if (key == "rvirt") routine_.virtuality = fields.nextInterned();
        else if (key == "rkind") routine_.kind = fields.nextInterned();
        else if (key == "rstatic") routine_.is_static = true;
        else if (key == "rinline") routine_.is_inline = true;
        else if (key == "rexplicit") routine_.is_explicit = true;
        else if (key == "rtempl") {
          if (const auto ref = fields.nextRef()) routine_.template_id = ref->id;
        } else if (key == "rspecl") routine_.is_specialization = true;
        else if (key == "rdef") routine_.defined = true;
        else if (key == "rcall") {
          RoutineItem::Call call;
          const auto ref = fields.nextRef();
          const auto virt = fields.next();
          const auto pos = fields.nextPos();
          if (ref && virt && pos) {
            call.routine = ref->id;
            call.is_virtual = *virt == "virt";
            call.position = *pos;
            routine_.calls.push_back(call);
          } else {
            error("malformed rcall");
          }
        } else if (key == "rpos") expectExtent(routine_.extent);
        else error("unknown routine attribute '" + std::string(key) + "'");
        break;

      case ItemKind::Class:
        if (key == "cloc") expectPos(class_.location);
        else if (key == "cclass" || key == "cnspace") class_.parent = fields.nextRef();
        else if (key == "cacs") class_.access = fields.nextInterned();
        else if (key == "ckind") class_.kind = fields.nextInterned();
        else if (key == "ctempl") {
          if (const auto ref = fields.nextRef()) class_.template_id = ref->id;
        } else if (key == "cspecl") class_.is_specialization = true;
        else if (key == "cbase") {
          ClassItem::Base base;
          const auto acs = fields.next();
          const auto virt = fields.next();
          const auto ref = fields.nextRef();
          if (acs && virt && ref) {
            base.access = PdbFile::intern(*acs);
            base.is_virtual = *virt == "virt";
            base.cls = ref->id;
            class_.bases.push_back(base);
          } else {
            error("malformed cbase");
          }
        } else if (key == "cfriend") {
          ClassItem::Friend f;
          const auto what = fields.next();
          const auto name = fields.next();
          if (what && name) {
            f.is_class = *what == "class";
            f.name = *name;
            if (!fields.empty()) f.ref = fields.nextRef();
            class_.friends.push_back(f);
          } else {
            error("malformed cfriend");
          }
        } else if (key == "cfunc") {
          ClassItem::MemberFunc mf;
          const auto ref = fields.nextRef();
          const auto pos = fields.nextPos();
          if (ref && pos) {
            mf.routine = ref->id;
            mf.location = *pos;
            class_.funcs.push_back(mf);
          } else {
            error("malformed cfunc");
          }
        } else if (key == "cmem") {
          ClassItem::Member m;
          m.name = restAfterKey(text);
          class_.members.push_back(m);
        } else if (key == "cmloc") {
          if (!class_.members.empty()) expectPos(class_.members.back().location);
        } else if (key == "cmacs") {
          if (!class_.members.empty())
            class_.members.back().access = fields.nextInterned();
        } else if (key == "cmkind") {
          if (!class_.members.empty())
            class_.members.back().kind = fields.nextInterned();
        } else if (key == "cmtype") {
          if (!class_.members.empty()) {
            if (const auto ref = fields.nextRef()) class_.members.back().type = *ref;
          }
        } else if (key == "cpos") expectExtent(class_.extent);
        else error("unknown class attribute '" + std::string(key) + "'");
        break;

      case ItemKind::Type:
        if (key == "ykind") type_.kind = fields.nextInterned();
        else if (key == "yikind") type_.ikind = PdbFile::intern(restAfterKey(text));
        else if (key == "yptr" || key == "yref" || key == "ytref" || key == "yelem")
          type_.ref = fields.nextRef();
        else if (key == "ysize") {
          if (const auto v = fields.nextUint()) type_.array_size = *v;
        } else if (key == "yqual") {
          type_.qualifiers.push_back(fields.nextInterned());
        } else if (key == "yrett") type_.return_type = fields.nextRef();
        else if (key == "yargt") {
          if (const auto ref = fields.nextRef()) type_.params.push_back(*ref);
        } else if (key == "yellip") type_.has_ellipsis = true;
        else if (key == "yexcep") {
          type_.has_exception_spec = true;
          if (const auto ref = fields.nextRef()) type_.exception_specs.push_back(*ref);
        } else if (key == "yenum") {
          const auto ename = fields.next();
          const auto value = fields.next();
          long long parsed = 0;
          const bool value_ok =
              value && !value->empty() &&
              std::from_chars(value->data(), value->data() + value->size(),
                              parsed).ec == std::errc{};
          if (ename && !ename->empty() && value_ok) {
            type_.enumerators.emplace_back(*ename, parsed);
          } else {
            error("malformed yenum");
          }
        } else error("unknown type attribute '" + std::string(key) + "'");
        break;

      case ItemKind::Template:
        if (key == "tloc") expectPos(template_.location);
        else if (key == "tclass" || key == "tnspace") template_.parent = fields.nextRef();
        else if (key == "tacs") template_.access = fields.nextInterned();
        else if (key == "tkind") template_.kind = fields.nextInterned();
        else if (key == "ttext")
          template_.text = unescaped(restAfterKey(text));
        else if (key == "tpos") expectExtent(template_.extent);
        else error("unknown template attribute '" + std::string(key) + "'");
        break;

      case ItemKind::Namespace:
        if (key == "nloc") expectPos(namespace_.location);
        else if (key == "nalias") namespace_.alias = restAfterKey(text);
        else if (key == "nmem") {
          if (const auto ref = fields.nextRef()) namespace_.members.push_back(*ref);
        } else error("unknown namespace attribute '" + std::string(key) + "'");
        break;

      case ItemKind::Macro:
        if (key == "mloc") expectPos(macro_.location);
        else if (key == "mkind") macro_.kind = fields.nextInterned();
        else if (key == "mtext") macro_.text = unescaped(restAfterKey(text));
        else error("unknown macro attribute '" + std::string(key) + "'");
        break;

      case ItemKind::DefUse:
        if (key == "ddef" || key == "duse") {
          DefUseItem::Event event;
          event.op = key == "ddef" ? DuOp::Def : DuOp::Use;
          const auto flags_text = fields.next();
          const auto flags =
              flags_text ? du::flagsFromText(*flags_text) : std::nullopt;
          const auto name = fields.next();
          const auto pos = fields.nextPos();
          if (flags && name && pos) {
            event.flags = *flags;
            event.name = *name;  // zero-copy: aliases the parse buffer
            event.pos = *pos;
            def_use_.events.push_back(event);
          } else {
            error("malformed " + std::string(key));
          }
        } else if (key == "dmark") {
          DefUseItem::Event event;
          event.op = DuOp::Marker;
          const auto name = fields.next();
          const auto pos = fields.nextPos();
          if (name && pos) {
            // Marker kinds are a closed vocabulary — intern them.
            event.name = PdbFile::intern(*name);
            event.pos = *pos;
            def_use_.events.push_back(event);
          } else {
            error("malformed dmark");
          }
        } else error("unknown def-use attribute '" + std::string(key) + "'");
        break;

      case ItemKind::DynProf:
        if (key == "plink") {
          if (const auto ref = fields.nextRef();
              ref && ref->kind == ItemKind::Routine)
            dyn_prof_.routine = ref->id;
          else
            error("malformed plink");
        } else if (key == "pdata") {
          const auto calls = fields.nextU64();
          const auto subrs = fields.nextU64();
          const auto incl = fields.nextU64();
          const auto excl = fields.nextU64();
          const auto threads = fields.nextUint();
          const auto contexts = fields.nextUint();
          if (calls && subrs && incl && excl && threads && contexts) {
            dyn_prof_.calls = *calls;
            dyn_prof_.child_calls = *subrs;
            dyn_prof_.inclusive_ns = *incl;
            dyn_prof_.exclusive_ns = *excl;
            dyn_prof_.threads = *threads;
            dyn_prof_.contexts = *contexts;
          } else {
            error("malformed pdata");
          }
        } else error("unknown dynamic-profile attribute '" + std::string(key) + "'");
        break;
    }
  }

  std::string_view buffer_;
  Sections sections_ = Sections::All;
  Sections skipped_present_ = Sections::None;
  std::size_t cursor_ = 0;
  ReadResult result_;
  std::size_t line_no_ = 1;  // header consumed before the loop
  bool skip_ = false;  // current item's section is outside sections_
  std::optional<ItemKind> current_kind_;
  SourceFileItem file_;
  RoutineItem routine_;
  ClassItem class_;
  TypeItem type_;
  TemplateItem template_;
  NamespaceItem namespace_;
  MacroItem macro_;
  DefUseItem def_use_;
  DynProfItem dyn_prof_;
};

}  // namespace

ReadResult readFromBuffer(std::string_view text, Sections sections) {
  Reader reader(text, sections);
  ReadResult result = reader.run();
  if (result.ok()) {
    trace::count(trace::Counter::PdbFilesRead);
    trace::count(trace::Counter::PdbItemsRead, result.pdb.itemCount());
    trace::countKey("pdb.read.by_format", "ascii");
    if (const auto skipped = reader.skippedSectionCount(); skipped > 0)
      trace::count(trace::Counter::PdbSectionsSkipped, skipped);
  }
  return result;
}

ReadResult readFromBuffer(std::string_view text) {
  return readFromBuffer(text, Sections::All);
}

ReadResult readOwning(std::string text, Sections sections) {
  // The result aliases the buffer, so the buffer moves into a shared
  // backing the parsed database keeps alive.
  auto backing = std::make_shared<const std::string>(std::move(text));
  ReadResult result = readFromBuffer(*backing, sections);
  result.pdb.adoptBacking(std::move(backing));
  return result;
}

ReadResult read(std::istream& is) {
  // Slurp the stream; parsing one contiguous buffer beats getline-per-line.
  std::ostringstream ss;
  ss << is.rdbuf();
  return readOwning(std::move(ss).str(), Sections::All);
}

ReadResult readFromString(const std::string& text) {
  return readOwning(text, Sections::All);
}

std::optional<ReadResult> readFromFile(const std::string& path) {
  PDT_TRACE_SCOPE("pdb.read", path);
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  // One-shot read of the whole file instead of line-by-line getline.
  std::string buffer;
  in.seekg(0, std::ios::end);
  const auto size = in.tellg();
  if (size > 0) {
    buffer.resize(static_cast<std::size_t>(size));
    in.seekg(0, std::ios::beg);
    in.read(buffer.data(), size);
    buffer.resize(static_cast<std::size_t>(in.gcount()));
  }
  return readOwning(std::move(buffer), Sections::All);
}

}  // namespace pdt::pdb
