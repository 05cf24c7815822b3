#include "pdb/format.h"

#include <atomic>

#include "pdb/binary_reader.h"
#include "pdb/binary_writer.h"
#include "pdb/writer.h"

namespace pdt::pdb {
namespace {

std::atomic<MmapMode> g_mmap_mode{MmapMode::Auto};

}  // namespace

std::string_view formatName(Format format) {
  switch (format) {
    case Format::Ascii: return "ascii";
    case Format::Binary: return "binary";
  }
  return "??";
}

std::optional<Format> formatFromName(std::string_view name) {
  if (name == "ascii") return Format::Ascii;
  if (name == "bin" || name == "binary") return Format::Binary;
  return std::nullopt;
}

Format detectFormat(std::string_view bytes) {
  return isBinaryPdb(bytes) ? Format::Binary : Format::Ascii;
}

ReadResult readBuffer(std::string_view bytes, Sections sections) {
  switch (detectFormat(bytes)) {
    case Format::Binary: return readBinaryFromBuffer(bytes, sections);
    case Format::Ascii: break;
  }
  return readFromBuffer(bytes, sections);
}

void setMmapMode(MmapMode mode) {
  g_mmap_mode.store(mode, std::memory_order_relaxed);
}

MmapMode mmapMode() { return g_mmap_mode.load(std::memory_order_relaxed); }

std::optional<MmapMode> mmapModeFromName(std::string_view name) {
  if (name == "off") return MmapMode::Off;
  if (name == "auto") return MmapMode::Auto;
  return std::nullopt;
}

bool parseMmapFlag(std::string_view arg, std::string& error) {
  constexpr std::string_view kPrefix = "--mmap=";
  if (!arg.starts_with(kPrefix)) return false;
  const std::string_view name = arg.substr(kPrefix.size());
  if (const auto mode = mmapModeFromName(name)) {
    setMmapMode(*mode);
  } else {
    error = "unknown --mmap mode '" + std::string(name) +
            "' (expected auto or off)";
  }
  return true;
}

std::string writeString(const PdbFile& pdb, Format format) {
  switch (format) {
    case Format::Binary: return writeBinaryToString(pdb);
    case Format::Ascii: break;
  }
  return writeToString(pdb);
}

bool writeFile(const PdbFile& pdb, const std::string& path, Format format) {
  switch (format) {
    case Format::Binary: return writeBinaryToFile(pdb, path);
    case Format::Ascii: break;
  }
  return writeToFile(pdb, path);
}

}  // namespace pdt::pdb
