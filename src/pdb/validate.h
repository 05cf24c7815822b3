// Referential-integrity validation of a program database: ids are unique
// per kind, and every item id a PDB mentions (call targets, base classes,
// signatures, includes, source positions, ...) must resolve to an item of
// the right kind. Tools that consume untrusted .pdb files (pdbcheck,
// pdbmerge, the build cache) run this up front and refuse such databases
// instead of silently dropping or misdirecting edges.
#pragma once

#include <string>
#include <vector>

#include "pdb/pdb.h"

namespace pdt::pdb {

/// Returns one message per repeated id and per dangling reference; empty
/// means the database is closed under its own references. Each message
/// names the offending entity and, when the database came from a reader,
/// where its record lives ("routine 'f' (ro#3, line 42): call references
/// undefined ro#99" — line numbers for ASCII input, byte offsets for
/// binary; see PdbFile::offsetUnit).
[[nodiscard]] std::vector<std::string> validate(const PdbFile& pdb);

/// Lazy-read variant: references into sections outside `loaded` (left
/// unmaterialized by a section-masked read, ReadResult::loaded) are not
/// checked — everything else is validated as usual.
[[nodiscard]] std::vector<std::string> validate(const PdbFile& pdb,
                                                Sections loaded);

}  // namespace pdt::pdb
