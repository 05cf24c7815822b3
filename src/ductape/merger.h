// The merge engine behind pdbmerge (paper Table 2): folds the databases
// of separate compilations into one, eliminating duplicate template
// instantiations. PDB::merge, the driver's compile-and-merge, the
// pdbmerge tool and the sharded external merge all fold through it.
//
// A Merger owns the merged database and, for its whole life, the
// identity key -> item maps of everything already in it. The first unit
// is adopted as is (its own same-key items are kept side by side); add()
// takes each further unit by move and touches only what that unit
// brings:
//
//  1. Pass 1 computes the key of every item of the unit once and
//     assigns every merged id — the matched item's for a duplicate, the
//     next free one for a new item — before anything moves (a routine's
//     key reads the unit's own classes, namespaces and types).
//  2. Pass 2 moves each new item in with its references remapped, and
//     folds each duplicate onto the item it matched: a definition
//     replaces a declaration, include and namespace-member lists union,
//     dp profiles sum, the first du stream of a routine wins.
//
// A later item of a unit whose key matches an earlier item of the same
// unit folds onto it, as onto an item of an earlier unit. Nothing in
// add() walks the accumulated database, so folding N units costs time
// linear in their total size; the result depends only on the order the
// units are added in.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "pdb/pdb.h"

namespace pdt::ductape {

class Merger {
 public:
  /// Adopts `first` as the merged database, as is.
  explicit Merger(pdb::PdbFile first);

  /// Folds `unit` in after everything added so far, taking its records
  /// and string storage; `unit` is left empty. Counts merge.merges and
  /// merge.duplicates_elided under a ductape.merge span.
  void add(pdb::PdbFile&& unit);

  /// The merged database so far.
  [[nodiscard]] const pdb::PdbFile& merged() const { return merged_; }
  /// Gives up the merged database; the Merger is spent.
  [[nodiscard]] pdb::PdbFile release() && { return std::move(merged_); }

  /// Where a keyed item lives: its id and its index in its kind's vector
  /// (items are only ever appended, so the index never moves).
  struct Slot {
    std::uint32_t id;
    std::uint32_t pos;
  };
  using KeyMap = std::unordered_map<std::string, Slot>;

 private:
  pdb::PdbFile merged_;
  KeyMap files_, types_, templates_, classes_, routines_, namespaces_;
  std::unordered_set<std::string> macros_;
  // Members of each namespace that took a union, by namespace index,
  // built at its first union: a reopened namespace then costs what it
  // adds, not the length of its member list.
  std::unordered_map<std::uint32_t, std::unordered_set<std::uint64_t>>
      namespace_members_;
  // dp name -> index; the views alias merged_'s storage.
  std::unordered_map<std::string_view, std::size_t> dyn_profs_;
  std::unordered_set<std::uint32_t> du_routines_;
};

}  // namespace pdt::ductape
