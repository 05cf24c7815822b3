// The two PDB storage formats and the I/O policy shared by every reader.
//
// The ASCII grammar of docs/PDB_FORMAT.md stays the canonical interchange
// form (what the paper's pdbconv calls "a standardized form"); the compact
// binary v2 stores the same database, and neither the DUCTAPE API nor any
// consumer cares which bytes are on disk. readBuffer() auto-detects the
// format from the leading magic bytes and writeString()/writeFile() take
// it explicitly (`--format`); each switches on Format directly.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "pdb/pdb.h"
#include "pdb/reader.h"

namespace pdt::pdb {

enum class Format : std::uint8_t {
  Ascii,   // docs/PDB_FORMAT.md §grammar — canonical interchange
  Binary,  // docs/PDB_FORMAT.md §binary-v2 — section-indexed, checksummed
};

/// Leading magic of a binary v2 database. The high first byte guarantees
/// no ASCII database (which starts with "<PDB") can collide.
inline constexpr std::string_view kBinaryMagic{"\x89PDB2\r\n\x1a", 8};

/// "ascii" / "binary".
[[nodiscard]] std::string_view formatName(Format format);

/// Accepts "ascii", "bin", "binary"; nullopt otherwise.
[[nodiscard]] std::optional<Format> formatFromName(std::string_view name);

/// Sniffs serialized bytes: binary magic wins, anything else is ASCII
/// (whose own reader rejects malformed headers).
[[nodiscard]] Format detectFormat(std::string_view bytes);

/// Auto-detecting read of serialized bytes. `sections` is the lazy-read
/// mask: at most those sections are materialized (the binary reader skips
/// the others in O(1) via its section table; the ASCII reader skips their
/// attribute decoding), and `ReadResult::loaded` records what was.
/// Zero-copy: the result's string fields alias `bytes`, which must outlive
/// the database (or be adopted via PdbFile::adoptBacking). The file-level
/// pdb::open (snapshot.h) handles this.
[[nodiscard]] ReadResult readBuffer(std::string_view bytes,
                                    Sections sections = Sections::All);

/// How pdb::open acquires file bytes (--mmap=auto|off). Auto (default)
/// memory-maps where the platform supports it and falls back to a
/// buffered read when mapping fails (torn file, exotic filesystem); Off
/// always reads into an owned buffer.
enum class MmapMode : std::uint8_t { Auto, Off };

/// Process-wide mmap policy for pdb::open; tools set it from --mmap.
void setMmapMode(MmapMode mode);
[[nodiscard]] MmapMode mmapMode();

/// Accepts "auto", "off"; nullopt otherwise.
[[nodiscard]] std::optional<MmapMode> mmapModeFromName(std::string_view name);

/// Uniform `--mmap=MODE` command-line handling for every tool that reads
/// a database. Returns false when `arg` is not an --mmap flag (caller
/// keeps parsing); returns true after setting the process-wide mode, or
/// true with `error` filled for a malformed mode name.
bool parseMmapFlag(std::string_view arg, std::string& error);

/// Serializes in the requested format. Deterministic: the same PdbFile
/// always produces the same bytes.
[[nodiscard]] std::string writeString(const PdbFile& pdb, Format format);

/// Writes to `path` in the requested format; false on I/O failure.
bool writeFile(const PdbFile& pdb, const std::string& path, Format format);

}  // namespace pdt::pdb
