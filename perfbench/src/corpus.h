// Seeded PDT-C++ corpora. The shapes follow bench/workloads.h (many
// instantiations, nested instantiation, call chains, shared vs unique
// instantiations across TUs); the seed draws each TU's counts and depths
// independently, so totals over a corpus stay close across seeds while
// every TU differs. The generator also records what it emitted, which is
// the oracle the merged database is checked against.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct SourceFile {
  std::string name;  // relative to the corpus directory
  std::string text;
};

/// What the generator put into the program.
struct Expectations {
  std::vector<std::string> classes;   // class template instantiations
  std::vector<std::string> routines;  // defined free routines
  std::vector<std::pair<std::string, std::string>> calls;  // caller, callee
  std::vector<std::string> dead;      // defined routines nothing calls
  std::vector<std::string> uninit;    // routines reading an unset local
  std::vector<std::string> cycle;     // routines of the recursion cycle
};

struct TuShape {
  std::vector<int> shared;  // indices of shared element classes used
  int unique = 0;           // classes only this TU defines
  int depth = 0;            // nesting depth of Box<Box<...>>
  int chain = 0;            // call-chain length
  bool dead = false;        // plants an unreachable routine
  bool uninit = false;      // plants an uninitialized read
};

struct Corpus {
  std::vector<SourceFile> files;  // shared.h, tu*.cpp, main.cpp
  std::vector<TuShape> shapes;    // one per tu*.cpp
  Expectations expect;
};

/// `tus` translation units plus a main TU that calls every driver.
[[nodiscard]] Corpus makeCorpus(std::uint64_t seed, int tus);

/// Source of TU `index` with its edit routine returning `nonce` (an edit
/// changes the TU's bytes but not the entities it defines).
[[nodiscard]] std::string tuSource(const TuShape& shape, int index, int nonce);

/// The Krylov (CG) driver of paper Figure 7 over the shipped headers, for
/// a problem of size `n`.
[[nodiscard]] std::string krylovDriver(int n);

}  // namespace perfbench
