// Differential test of the flat dataflow layer. Fixed-seed generators
// produce well-nested marker streams covering if/else, while loops, do
// loops, switches with fallthrough, ret/break/continue and weak
// (kUnknown) defs. For every stream the CFG must place each def/use event
// in exactly one block with symmetric succ/pred lists, and the
// reaching-definitions answers — from a DefUseIndex over all streams and
// from a standalone Cfg/ReachingDefs — must equal a naive std::set
// fixed-point solver written here against the stream itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string_view>
#include <vector>

#include "analysis/dataflow.h"
#include "analysis/du_index.h"
#include "ductape/ductape.h"
#include "pdb/pdb.h"

namespace pdt::analysis {
namespace {

using dataflow::EventIndex;
using pdb::DefUseItem;
using pdb::DuOp;

/// Random well-nested statement sequences in the IL analyzer's marker
/// grammar. Break only appears inside a loop or switch, continue only
/// inside a loop.
class StreamGen {
 public:
  explicit StreamGen(unsigned seed) : rng_(seed) {}

  std::vector<DefUseItem::Event> stream() {
    out_.clear();
    seq(0, false, false);
    return out_;
  }

 private:
  static constexpr std::string_view kVars[] = {"a", "b", "c", "d", "e"};

  int pick(int n) { return static_cast<int>(rng_() % static_cast<unsigned>(n)); }
  std::string_view var() { return kVars[pick(5)]; }
  void emit(DuOp op, std::string_view name, std::uint8_t flags = 0) {
    out_.push_back({op, flags, name, {1, static_cast<std::uint32_t>(out_.size() + 1), 1}});
  }
  void mark(std::string_view m) { emit(DuOp::Marker, m); }
  void access() {
    if (pick(2) == 0) {
      std::uint8_t flags = 0;
      if (pick(6) == 0) flags |= pdb::du::kUnknown;  // weak update
      if (pick(8) == 0) flags |= pdb::du::kUninit;
      emit(DuOp::Def, var(), flags);
    } else {
      emit(DuOp::Use, var());
    }
  }

  void seq(int depth, bool in_loop, bool breakable) {
    const int n = pick(depth < 4 ? 6 : 3);
    for (int k = 0; k < n; ++k) stmt(depth, in_loop, breakable);
  }

  void stmt(int depth, bool in_loop, bool breakable) {
    const int choice = depth < 4 ? pick(12) : pick(4);
    switch (choice) {
      case 4:  // if / if-else
        access();
        mark("then");
        seq(depth + 1, in_loop, breakable);
        if (pick(2) == 0) {
          mark("else");
          seq(depth + 1, in_loop, breakable);
        }
        mark("endif");
        break;
      case 5:  // while / for
        mark("loop");
        access();
        mark("body");
        seq(depth + 1, true, true);
        mark("endloop");
        break;
      case 6:  // do-while
        mark("doloop");
        mark("body");
        seq(depth + 1, true, true);
        access();
        mark("endloop");
        break;
      case 7: {  // switch; labels fall through unless a break intervenes
        access();
        mark("switch");
        const int labels = pick(4);
        const int default_at = pick(labels + 1);  // == labels: no default
        for (int l = 0; l < labels; ++l) {
          mark(l == default_at ? "default" : "case");
          seq(depth + 1, in_loop, true);
          if (pick(2) == 0) mark("break");
        }
        mark("endswitch");
        break;
      }
      case 8:
        if (pick(3) == 0) mark("ret");
        break;
      case 9:
        if (breakable && pick(2) == 0) mark("break");
        break;
      case 10:
        if (in_loop && pick(2) == 0) mark("continue");
        break;
      default:
        access();
    }
  }

  std::mt19937 rng_;
  std::vector<DefUseItem::Event> out_;
};

/// Naive reaching definitions: std::set states, round-robin over blocks
/// until nothing changes, kills by comparing variable names directly.
/// Returns use event -> reaching def events.
std::map<EventIndex, std::set<EventIndex>> naiveReaching(
    const dataflow::Cfg& cfg) {
  const auto& events = cfg.item().events;
  const auto apply = [&](EventIndex e, std::set<EventIndex>& s) {
    if (events[e].op != DuOp::Def) return;
    if ((events[e].flags & pdb::du::kUnknown) == 0) {
      std::erase_if(s, [&](EventIndex d) { return events[d].name == events[e].name; });
    }
    s.insert(e);
  };
  const int n = cfg.blockCount();
  std::vector<std::set<EventIndex>> in(n), out(n);
  for (bool changed = true; changed;) {
    changed = false;
    for (int b = 0; b < n; ++b) {
      std::set<EventIndex> s;
      for (const int p : cfg.pred(b)) s.insert(out[p].begin(), out[p].end());
      in[b] = s;
      for (const EventIndex e : cfg.events(b)) apply(e, s);
      if (s != out[b]) {
        out[b] = std::move(s);
        changed = true;
      }
    }
  }
  std::map<EventIndex, std::set<EventIndex>> reaching;
  for (int b = 0; b < n; ++b) {
    std::set<EventIndex> s = in[b];
    for (const EventIndex e : cfg.events(b)) {
      if (events[e].op == DuOp::Use) {
        auto& r = reaching[e];
        for (const EventIndex d : s) {
          if (events[d].name == events[e].name) r.insert(d);
        }
      }
      apply(e, s);
    }
  }
  return reaching;
}

std::vector<EventIndex> list(std::span<const EventIndex> s) {
  return {s.begin(), s.end()};
}

/// Every def/use event in exactly one block (the one blockOf names),
/// markers in none, and each edge listed on both of its ends.
void expectCfgInvariants(const dataflow::Cfg& cfg, int stream) {
  const auto& events = cfg.item().events;
  std::vector<int> seen(events.size(), 0);
  for (int b = 0; b < cfg.blockCount(); ++b) {
    for (const EventIndex e : cfg.events(b)) {
      ++seen[e];
      EXPECT_EQ(cfg.blockOf(e), b) << "stream " << stream << " event " << e;
    }
    for (const int s : cfg.succ(b)) {
      const auto count = [](std::span<const int> v, int x) {
        return std::count(v.begin(), v.end(), x);
      };
      EXPECT_EQ(count(cfg.succ(b), s), count(cfg.pred(s), b))
          << "stream " << stream << " edge " << b << "->" << s;
    }
  }
  std::size_t edges = 0;
  for (int b = 0; b < cfg.blockCount(); ++b) {
    edges += cfg.succ(b).size();
    edges -= cfg.pred(b).size();
  }
  EXPECT_EQ(edges, 0u) << "stream " << stream;
  for (std::size_t e = 0; e < events.size(); ++e) {
    EXPECT_EQ(seen[e], events[e].op == DuOp::Marker ? 0 : 1)
        << "stream " << stream << " event " << e;
  }
}

void expectMatchesNaive(const dataflow::Cfg& cfg,
                        const dataflow::ReachingDefs& rd, int stream) {
  const auto& events = cfg.item().events;
  const auto reaching = naiveReaching(cfg);
  std::map<EventIndex, std::vector<EventIndex>> reached;
  for (const auto& [use, defs] : reaching) {
    for (const EventIndex d : defs) reached[d].push_back(use);
  }
  for (EventIndex e = 0; e < events.size(); ++e) {
    std::vector<EventIndex> want_defs;
    if (const auto it = reaching.find(e); it != reaching.end())
      want_defs.assign(it->second.begin(), it->second.end());
    EXPECT_EQ(list(rd.defsReaching(e)), want_defs)
        << "stream " << stream << " use " << e;
    EXPECT_EQ(list(rd.usesReached(e)), reached[e])
        << "stream " << stream << " def " << e;
  }
}

constexpr int kStreams = 400;

TEST(DataflowDiff, FlatIndexMatchesNaiveSolver) {
  StreamGen gen(20261019);
  pdb::PdbFile file;
  std::set<std::string_view> markers;
  std::size_t weak_defs = 0;
  for (int i = 0; i < kStreams; ++i) {
    DefUseItem item;
    item.events = gen.stream();
    for (const auto& e : item.events) {
      if (e.op == DuOp::Marker) markers.insert(e.name);
      if (e.op == DuOp::Def && (e.flags & pdb::du::kUnknown) != 0) ++weak_defs;
    }
    file.addDefUse(std::move(item));
  }
  // The corpus covers the whole well-nested vocabulary.
  for (const std::string_view m :
       {"then", "else", "endif", "loop", "doloop", "body", "endloop", "switch",
        "case", "default", "endswitch", "ret", "break", "continue"})
    EXPECT_TRUE(markers.contains(m)) << m;
  EXPECT_GT(weak_defs, 0u);

  const ductape::PDB pdb = ductape::PDB::fromPdbFile(file);
  const auto index = DefUseIndex::build(pdb);
  ASSERT_EQ(index->streams().size(), static_cast<std::size_t>(kStreams));
  for (int i = 0; i < kStreams; ++i) {
    const DefUseIndex::Stream& s = index->streams()[i];
    ASSERT_FALSE(s.cfg.irregular()) << "stream " << i;
    ASSERT_TRUE(s.rd.has_value());
    expectCfgInvariants(s.cfg, i);
    expectMatchesNaive(s.cfg, *s.rd, i);
  }
}

TEST(DataflowDiff, StandaloneViewsMatchNaiveSolver) {
  StreamGen gen(7);
  for (int i = 0; i < 50; ++i) {
    DefUseItem item;
    item.events = gen.stream();
    const dataflow::Cfg cfg = dataflow::Cfg::build(item);
    ASSERT_FALSE(cfg.irregular()) << "stream " << i;
    expectCfgInvariants(cfg, i);
    expectMatchesNaive(cfg, dataflow::ReachingDefs(cfg), i);
  }
}

TEST(DataflowDiff, IrregularStreamsKeepCfgInvariants) {
  StreamGen gen(99);
  std::mt19937 rng(99);
  for (int i = 0; i < 50; ++i) {
    DefUseItem item;
    item.events = gen.stream();
    // A goto, or a closer without its opener, somewhere in the stream.
    const std::string_view stray = i % 2 == 0 ? "irregular" : "endif";
    const auto at = item.events.begin() +
                    static_cast<std::ptrdiff_t>(rng() % (item.events.size() + 1));
    item.events.insert(at, {DuOp::Marker, 0, stray, {1, 1, 1}});
    const dataflow::Cfg cfg = dataflow::Cfg::build(item);
    EXPECT_TRUE(cfg.irregular()) << "stream " << i;
    expectCfgInvariants(cfg, i);
  }
}

}  // namespace
}  // namespace pdt::analysis
