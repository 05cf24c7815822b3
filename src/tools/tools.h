// The static-analysis utilities shipped with PDT (paper Table 2):
//   pdbconv  — converts the compact PDB format into a readable format
//   pdbhtml  — web-based documentation with HTML navigation links
//   pdbmerge — merges PDBs, eliminating duplicate template instantiations
//   pdbtree  — file inclusion, class hierarchy, and call graph trees
//
// Each utility is a library function (testable) plus a thin main()
// wrapper. They are also the reference examples of programming against
// the DUCTAPE API (paper §3.3).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "ductape/ductape.h"

namespace pdt::tools {

/// pdbconv: renders `pdb` in a human-readable multi-line format.
void pdbconv(const ductape::PDB& pdb, std::ostream& os);

/// pdbhtml: emits a self-contained HTML page with anchors for every item
/// and hyperlinks for every cross-reference.
void pdbhtml(const ductape::PDB& pdb, std::ostream& os,
             const std::string& title = "Program Database");

/// pdbmerge: folds `inputs[1..]` into `inputs[0]` in order through one
/// ductape::Merger, taking each input's records by move. `jobs` no
/// longer changes the merge; it stays for the callers that pass it.
[[nodiscard]] ductape::PDB pdbmerge(std::vector<ductape::PDB> inputs,
                                    std::size_t jobs = 1);

/// pdbtree: which tree to display. Profile joins the database's dp
/// section (merged dynamic profile attached by tauprof) with its static
/// routines.
enum class TreeKind { Includes, ClassHierarchy, CallGraph, Profile };

void pdbtree(const ductape::PDB& pdb, TreeKind kind, std::ostream& os);

/// The call-graph printer of paper Figure 5 (exposed for tests).
void printFuncTree(const ductape::pdbRoutine* r, int level, std::ostream& os);

/// Shared location renderer: "path:line:col", or "<generated>" for items
/// with no source location (compiler-generated ctors/dtors, builtins) —
/// never an empty or garbage file:line.
[[nodiscard]] std::string locText(const ductape::pdbLoc& loc);

}  // namespace pdt::tools
