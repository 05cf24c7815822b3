// Intra-procedural dataflow over PDB def-use streams (pdbcheck's du
// section, PDB_FORMAT.md §du).
//
// The du stream is marker-structured: the IL analyzer emits structural
// markers from a closed vocabulary (then/else/endif, loop/doloop/body/
// endloop, switch/case/default/endswitch, ret/break/continue, irregular)
// interleaved with the def/use events, which lets this module rebuild a
// CFG-lite per routine without re-parsing any source. On top of the CFG
// sits a generic forward worklist solver with a templated transfer
// function, and one concrete client: reaching definitions, the engine
// behind the uninitialized-read and dead-store rules.
//
// Storage is flat. A FlowBuilder appends each stream's CFG and solution
// to one FlowTables: a dozen CSR arrays shared by every stream of a
// database (block event ranges, succ/pred edges, per-event block and
// variable ids, per-variable def/use lists, per-event reaching/reached
// lists). Cfg and ReachingDefs are small views into those arrays whose
// accessors return std::span. The builder keeps its scratch buffers
// (marker classes, edge list, variable hash table, bitset buffer,
// worklist) from stream to stream, so solving a whole database allocates
// a fixed number of times plus amortized vector growth, not per block or
// per event.
//
// Precision contract: the CFG may only OVER-approximate the real paths
// (extra edges, never missing ones). Union-style analyses built on it
// then err toward larger fact sets, which the rules turn into silence —
// a missed finding, never a false positive. Streams containing the
// "irregular" marker (goto, labels, try) are flagged so flow-sensitive
// clients can skip the routine entirely.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "pdb/pdb.h"

namespace pdt::analysis::dataflow {

using EventIndex = std::uint32_t;

/// Row `i` of a CSR array: data[off[i], off[i+1]).
template <typename T>
[[nodiscard]] std::span<const T> csrRow(const std::vector<std::uint32_t>& off,
                                        const std::vector<T>& data,
                                        std::size_t i) {
  return {data.data() + off[i], data.data() + off[i + 1]};
}

/// The flat storage behind Cfg and ReachingDefs views. Streams are
/// appended one after another; every list is a range [off[i], off[i+1])
/// of a shared array. Each offset array starts with a single 0 and gains
/// one end offset per appended block, variable or event, so a stream's
/// ranges are addressed by its base index into the offset array.
struct FlowTables {
  // --- CFGs: per block, then per event -----------------------------------
  std::vector<std::uint32_t> block_event_off{0};
  std::vector<EventIndex> block_events;  // non-marker events, ascending
  std::vector<std::uint32_t> succ_off{0};
  std::vector<int> succ;  // stream-local block ids, edge creation order
  std::vector<std::uint32_t> pred_off{0};
  std::vector<int> pred;
  std::vector<int> block_of;  // per event; markers map to the entry block

  // --- Reaching definitions: per variable, then per event ----------------
  std::vector<std::string_view> var_names;  // first-seen order per stream
  std::vector<std::uint32_t> var_def_off{0};
  std::vector<EventIndex> var_defs;
  std::vector<std::uint32_t> var_use_off{0};
  std::vector<EventIndex> var_uses;
  std::vector<int> var_of;  // per event; -1 for markers
  std::vector<std::uint32_t> reach_off{0};
  std::vector<EventIndex> reach;  // use -> reaching defs, ascending
  std::vector<std::uint32_t> reached_off{0};
  std::vector<EventIndex> reached;  // def -> reached uses, ascending
};

/// Per-routine control-flow graph rebuilt from the marker stream: a view
/// of one stream's blocks in a FlowTables.
class Cfg {
 public:
  /// Builds the CFG of one stream into tables of its own (tests, benches;
  /// DefUseIndex builds every stream into one shared FlowTables). Never
  /// fails: malformed or irregular streams produce a graph with
  /// `irregular()` set, which solvers treat as "all bets off".
  [[nodiscard]] static Cfg build(const pdb::DefUseItem& item);

  [[nodiscard]] const pdb::DefUseItem& item() const { return *item_; }
  [[nodiscard]] int blockCount() const { return blocks_; }
  /// Non-marker events of a block, ascending.
  [[nodiscard]] std::span<const EventIndex> events(int block) const {
    return csrRow(t_->block_event_off, t_->block_events, row(block));
  }
  [[nodiscard]] std::span<const int> succ(int block) const {
    return csrRow(t_->succ_off, t_->succ, row(block));
  }
  [[nodiscard]] std::span<const int> pred(int block) const {
    return csrRow(t_->pred_off, t_->pred, row(block));
  }
  /// The builder opens every graph with the entry, then the exit block.
  [[nodiscard]] static constexpr int entry() { return 0; }
  [[nodiscard]] static constexpr int exit() { return 1; }
  /// Block containing an event (every non-marker event is in one block).
  [[nodiscard]] int blockOf(EventIndex e) const {
    return t_->block_of[event_base_ + e];
  }
  /// True when the stream contains irregular control flow (goto, label,
  /// try) or structure the builder could not pair up.
  [[nodiscard]] bool irregular() const { return irregular_; }

 private:
  friend class FlowBuilder;
  [[nodiscard]] std::size_t row(int block) const {
    return block_base_ + static_cast<std::size_t>(block);
  }

  const FlowTables* t_ = nullptr;
  std::unique_ptr<const FlowTables> owned_;  // set by build() only
  const pdb::DefUseItem* item_ = nullptr;
  std::uint32_t block_base_ = 0;
  std::uint32_t event_base_ = 0;
  int blocks_ = 0;
  bool irregular_ = false;
};

/// A lattice element (powerset, union meet): a view of `words` 64-bit
/// words in a solver's flat buffer.
class BitSet {
 public:
  explicit BitSet(std::span<std::uint64_t> words) : words_(words) {}

  [[nodiscard]] bool test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void set(std::size_t i) { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }
  void reset(std::size_t i) {
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  /// this |= other; returns true when any bit changed.
  bool unionWith(const BitSet& other) {
    std::uint64_t changed = 0;
    for (std::size_t w = 0; w < words_.size(); ++w) {
      changed |= other.words_[w] & ~words_[w];
      words_[w] |= other.words_[w];
    }
    return changed != 0;
  }
  void assign(const BitSet& other) {
    std::copy(other.words_.begin(), other.words_.end(), words_.begin());
  }

 private:
  std::span<std::uint64_t> words_;
};

/// Reusable buffers of solveForward: every block's IN state in one flat
/// word buffer, the OUT scratch, and the FIFO worklist.
struct ForwardState {
  std::vector<std::uint64_t> in;  // block b: words [b * words, (b+1) * words)
  std::vector<std::uint64_t> out;
  std::vector<int> work;
  std::vector<char> queued;
  std::size_t words = 0;

  [[nodiscard]] BitSet blockIn(int block) {
    return BitSet({in.data() + static_cast<std::size_t>(block) * words, words});
  }
};

/// Generic forward may-analysis: meet is union, boundary is the empty
/// set. Leaves the fixed-point IN state of every block in `state`;
/// `transfer(block, BitSet& s)` applies one block's effect in place. The
/// worklist is seeded in block order and runs FIFO, so the iteration count
/// is deterministic. Returns the number of worklist steps.
template <typename Transfer>
std::uint64_t solveForward(const Cfg& cfg, std::size_t lattice_bits,
                           const Transfer& transfer, ForwardState& state) {
  const auto n = static_cast<std::size_t>(cfg.blockCount());
  state.words = (lattice_bits + 63) / 64;
  state.in.assign(n * state.words, 0);
  state.out.resize(state.words);
  state.work.resize(n);
  state.queued.assign(n, 1);
  for (std::size_t b = 0; b < n; ++b) state.work[b] = static_cast<int>(b);
  // Ring buffer: a block is queued at most once, so n slots suffice.
  std::size_t head = 0;
  std::size_t size = n;
  std::uint64_t steps = 0;
  BitSet out({state.out.data(), state.words});
  while (size > 0) {
    const int b = state.work[head];
    head = head + 1 == n ? 0 : head + 1;
    --size;
    state.queued[b] = 0;
    ++steps;
    out.assign(state.blockIn(b));
    transfer(b, out);
    for (const int s : cfg.succ(b)) {
      if (state.blockIn(s).unionWith(out) && state.queued[s] == 0) {
        state.queued[s] = 1;
        state.work[(head + size) % n] = s;
        ++size;
      }
    }
  }
  return steps;
}

/// Reaching definitions over one routine's du stream, as a view of one
/// stream's lists in a FlowTables. Facts are def events; a def "reaches"
/// a point when some CFG path from the def to the point is free of killing
/// redefinitions of the same variable.
///
/// Kill semantics honor the stream's flags: a def carrying kUnknown
/// (escaped storage, conditionally-evaluated context) generates but never
/// kills — a weak update — so downstream rules see every value such
/// storage might still hold.
class ReachingDefs {
 public:
  /// Solves one CFG into tables of its own (tests, benches).
  explicit ReachingDefs(const Cfg& cfg);

  /// Defs reaching the given use event, ascending by event index.
  [[nodiscard]] std::span<const EventIndex> defsReaching(
      EventIndex use_event) const {
    if (use_event >= events_) return {};
    return csrRow(t_->reach_off, t_->reach, event_base_ + use_event);
  }
  /// Uses reached by the given def event, ascending by event index.
  [[nodiscard]] std::span<const EventIndex> usesReached(
      EventIndex def_event) const {
    if (def_event >= events_) return {};
    return csrRow(t_->reached_off, t_->reached, event_base_ + def_event);
  }

  /// Dense variable numbering of the stream (names in first-seen order).
  [[nodiscard]] std::span<const std::string_view> varNames() const {
    return {t_->var_names.data() + var_base_, vars_};
  }
  /// Variable index of an event, -1 for markers.
  [[nodiscard]] int varOf(EventIndex e) const {
    return t_->var_of[event_base_ + e];
  }
  /// All def events of a variable, in stream order.
  [[nodiscard]] std::span<const EventIndex> defsOf(int var) const {
    return csrRow(t_->var_def_off, t_->var_defs,
                  var_base_ + static_cast<std::size_t>(var));
  }
  /// All use events of a variable, in stream order.
  [[nodiscard]] std::span<const EventIndex> usesOf(int var) const {
    return csrRow(t_->var_use_off, t_->var_uses,
                  var_base_ + static_cast<std::size_t>(var));
  }

 private:
  friend class FlowBuilder;
  ReachingDefs() = default;

  const FlowTables* t_ = nullptr;
  std::unique_ptr<const FlowTables> owned_;  // set by the public ctor only
  std::uint32_t event_base_ = 0;
  std::uint32_t events_ = 0;
  std::uint32_t var_base_ = 0;
  std::uint32_t vars_ = 0;
};

/// Appends CFGs and reaching-definitions solutions to one FlowTables.
/// Scratch buffers persist from stream to stream, so building N streams
/// allocates a fixed number of times plus amortized vector growth.
class FlowBuilder {
 public:
  explicit FlowBuilder(FlowTables& tables);
  ~FlowBuilder();
  FlowBuilder(const FlowBuilder&) = delete;
  FlowBuilder& operator=(const FlowBuilder&) = delete;

  /// Rebuilds one stream's CFG; the view borrows `item` and the tables.
  [[nodiscard]] Cfg buildCfg(const pdb::DefUseItem& item);
  /// Solves reaching definitions over a CFG (its tables may differ from
  /// this builder's); the view borrows the tables.
  [[nodiscard]] ReachingDefs solve(const Cfg& cfg);

  /// Worklist steps summed over every solve() so far.
  [[nodiscard]] std::uint64_t worklistSteps() const { return steps_; }

 private:
  struct Scratch;
  FlowTables& t_;
  std::unique_ptr<Scratch> s_;
  std::uint64_t steps_ = 0;
};

}  // namespace pdt::analysis::dataflow
