#include "pdb/pdb.h"

namespace pdt::pdb {

std::string_view prefixOf(ItemKind kind) {
  switch (kind) {
    case ItemKind::SourceFile: return "so";
    case ItemKind::Routine: return "ro";
    case ItemKind::Class: return "cl";
    case ItemKind::Type: return "ty";
    case ItemKind::Template: return "te";
    case ItemKind::Namespace: return "na";
    case ItemKind::Macro: return "ma";
    case ItemKind::DefUse: return "du";
    case ItemKind::DynProf: return "dp";
  }
  return "??";
}

std::optional<ItemKind> kindFromPrefix(std::string_view prefix) {
  if (prefix == "so") return ItemKind::SourceFile;
  if (prefix == "ro") return ItemKind::Routine;
  if (prefix == "cl") return ItemKind::Class;
  if (prefix == "ty") return ItemKind::Type;
  if (prefix == "te") return ItemKind::Template;
  if (prefix == "na") return ItemKind::Namespace;
  if (prefix == "ma") return ItemKind::Macro;
  if (prefix == "du") return ItemKind::DefUse;
  if (prefix == "dp") return ItemKind::DynProf;
  return std::nullopt;
}

namespace du {

namespace {
// One mnemonic letter per flag bit, in bit order.
constexpr std::string_view kFlagLetters = "PRMNUAXD";
}  // namespace

std::string flagsText(std::uint8_t flags) {
  if (flags == 0) return "-";
  std::string text;
  for (std::size_t bit = 0; bit < kFlagLetters.size(); ++bit)
    if ((flags & (1u << bit)) != 0) text.push_back(kFlagLetters[bit]);
  return text;
}

std::optional<std::uint8_t> flagsFromText(std::string_view text) {
  if (text == "-") return 0;
  if (text.empty()) return std::nullopt;
  std::uint8_t flags = 0;
  for (const char c : text) {
    const auto bit = kFlagLetters.find(c);
    if (bit == std::string_view::npos) return std::nullopt;
    const auto mask = static_cast<std::uint8_t>(1u << bit);
    if ((flags & mask) != 0) return std::nullopt;  // duplicate letter
    flags |= mask;
  }
  return flags;
}

}  // namespace du

std::string ItemRef::str() const {
  return std::string(prefixOf(kind)) + "#" + std::to_string(id);
}

template <typename T>
std::uint32_t PdbFile::add(std::vector<T>& vec,
                           std::unordered_map<std::uint32_t, std::size_t>& index,
                           T item, std::uint32_t& next_id) {
  if (item.id == 0) item.id = next_id;
  if (item.id >= next_id) next_id = item.id + 1;
  index[item.id] = vec.size();
  vec.push_back(std::move(item));
  return vec.back().id;
}

std::uint32_t PdbFile::addSourceFile(SourceFileItem item) {
  return add(files_, file_index_, std::move(item), next_file_id_);
}
std::uint32_t PdbFile::addRoutine(RoutineItem item) {
  return add(routines_, routine_index_, std::move(item), next_routine_id_);
}
std::uint32_t PdbFile::addClass(ClassItem item) {
  return add(classes_, class_index_, std::move(item), next_class_id_);
}
std::uint32_t PdbFile::addType(TypeItem item) {
  return add(types_, type_index_, std::move(item), next_type_id_);
}
std::uint32_t PdbFile::addTemplate(TemplateItem item) {
  return add(templates_, template_index_, std::move(item), next_template_id_);
}
std::uint32_t PdbFile::addNamespace(NamespaceItem item) {
  return add(namespaces_, namespace_index_, std::move(item), next_namespace_id_);
}
std::uint32_t PdbFile::addMacro(MacroItem item) {
  return add(macros_, macro_index_, std::move(item), next_macro_id_);
}
std::uint32_t PdbFile::addDefUse(DefUseItem item) {
  return add(def_uses_, def_use_index_, std::move(item), next_def_use_id_);
}
std::uint32_t PdbFile::addDynProf(DynProfItem item) {
  return add(dyn_profs_, dyn_prof_index_, std::move(item), next_dyn_prof_id_);
}

namespace {
template <typename T>
const T* findIn(const std::vector<T>& vec,
                const std::unordered_map<std::uint32_t, std::size_t>& index,
                std::uint32_t id) {
  const auto it = index.find(id);
  if (it == index.end() || it->second >= vec.size()) return nullptr;
  return &vec[it->second];
}
}  // namespace

const SourceFileItem* PdbFile::findSourceFile(std::uint32_t id) const {
  return findIn(files_, file_index_, id);
}
const RoutineItem* PdbFile::findRoutine(std::uint32_t id) const {
  return findIn(routines_, routine_index_, id);
}
const ClassItem* PdbFile::findClass(std::uint32_t id) const {
  return findIn(classes_, class_index_, id);
}
const TypeItem* PdbFile::findType(std::uint32_t id) const {
  return findIn(types_, type_index_, id);
}
const TemplateItem* PdbFile::findTemplate(std::uint32_t id) const {
  return findIn(templates_, template_index_, id);
}
const NamespaceItem* PdbFile::findNamespace(std::uint32_t id) const {
  return findIn(namespaces_, namespace_index_, id);
}
const MacroItem* PdbFile::findMacro(std::uint32_t id) const {
  return findIn(macros_, macro_index_, id);
}
const DefUseItem* PdbFile::findDefUse(std::uint32_t id) const {
  return findIn(def_uses_, def_use_index_, id);
}
const DynProfItem* PdbFile::findDynProf(std::uint32_t id) const {
  return findIn(dyn_profs_, dyn_prof_index_, id);
}

std::size_t PdbFile::itemCount() const {
  return files_.size() + routines_.size() + classes_.size() + types_.size() +
         templates_.size() + namespaces_.size() + macros_.size() +
         def_uses_.size() + dyn_profs_.size();
}

std::uint32_t PdbFile::nextId(ItemKind kind) const {
  switch (kind) {
    case ItemKind::SourceFile: return next_file_id_;
    case ItemKind::Routine: return next_routine_id_;
    case ItemKind::Class: return next_class_id_;
    case ItemKind::Type: return next_type_id_;
    case ItemKind::Template: return next_template_id_;
    case ItemKind::Namespace: return next_namespace_id_;
    case ItemKind::Macro: return next_macro_id_;
    case ItemKind::DefUse: return next_def_use_id_;
    case ItemKind::DynProf: return next_dyn_prof_id_;
  }
  return 0;
}

void PdbFile::reindex() {
  const auto rebuild = [](const auto& vec, auto& index, std::uint32_t& next) {
    index.clear();
    next = 1;
    for (std::size_t i = 0; i < vec.size(); ++i) {
      index[vec[i].id] = i;
      if (vec[i].id >= next) next = vec[i].id + 1;
    }
  };
  rebuild(files_, file_index_, next_file_id_);
  rebuild(routines_, routine_index_, next_routine_id_);
  rebuild(classes_, class_index_, next_class_id_);
  rebuild(types_, type_index_, next_type_id_);
  rebuild(templates_, template_index_, next_template_id_);
  rebuild(namespaces_, namespace_index_, next_namespace_id_);
  rebuild(macros_, macro_index_, next_macro_id_);
  rebuild(def_uses_, def_use_index_, next_def_use_id_);
  rebuild(dyn_profs_, dyn_prof_index_, next_dyn_prof_id_);
}

}  // namespace pdt::pdb
