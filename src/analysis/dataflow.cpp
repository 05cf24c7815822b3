#include "analysis/dataflow.h"

#include <bit>
#include <functional>
#include <string_view>
#include <utility>

namespace pdt::analysis::dataflow {

namespace {

using pdb::DefUseItem;
using pdb::DuOp;

/// Every event classified once: a plain def/use, or one marker of the
/// closed vocabulary. `Other` covers "irregular" and unknown markers.
enum class Mark : std::uint8_t {
  None, Then, Else, Endif, Loop, Doloop, Body, Endloop,
  Switch, Case, Default, Endswitch, Ret, Break, Continue, Other
};

/// A marker with an empty name has always counted as a plain event.
Mark classify(const DefUseItem::Event& e) {
  if (e.op != DuOp::Marker || e.name.empty()) return Mark::None;
  static constexpr std::pair<std::string_view, Mark> kNames[] = {
      {"then", Mark::Then},         {"else", Mark::Else},
      {"endif", Mark::Endif},       {"loop", Mark::Loop},
      {"doloop", Mark::Doloop},     {"body", Mark::Body},
      {"endloop", Mark::Endloop},   {"switch", Mark::Switch},
      {"case", Mark::Case},         {"default", Mark::Default},
      {"endswitch", Mark::Endswitch}, {"ret", Mark::Ret},
      {"break", Mark::Break},       {"continue", Mark::Continue},
  };
  for (const auto& [name, mark] : kNames) {
    if (e.name == name) return mark;
  }
  return Mark::Other;
}

/// A set of marks as a bitmask: parseSeq's stop set.
using StopSet = std::uint32_t;
constexpr StopSet bit(Mark m) { return StopSet{1} << static_cast<int>(m); }

/// Appends one stream's lists to a concatenated CSR. `each(emit)` must
/// call emit(key, value) for every pair, the same way both times it is
/// invoked; values are grouped by key (0..keys-1) keeping emission order.
/// `cursor` is scratch.
template <typename Value, typename Each>
void appendGrouped(std::vector<std::uint32_t>& off, std::vector<Value>& data,
                   std::size_t keys, std::vector<std::uint32_t>& cursor,
                   const Each& each) {
  cursor.assign(keys, 0);
  std::size_t total = 0;
  each([&](std::size_t key, Value) {
    ++cursor[key];
    ++total;
  });
  auto at = static_cast<std::uint32_t>(data.size());
  data.resize(data.size() + total);
  for (std::size_t k = 0; k < keys; ++k) {
    const std::uint32_t count = cursor[k];
    cursor[k] = at;
    at += count;
    off.push_back(at);
  }
  each([&](std::size_t key, Value v) { data[cursor[key]++] = v; });
}

}  // namespace

struct FlowBuilder::Scratch {
  // CFG reconstruction.
  std::vector<Mark> marks;       // per event
  std::vector<int> block_of;     // per event
  std::vector<std::pair<int, int>> edges;
  std::vector<int> break_targets;
  std::vector<int> continue_targets;
  // Reaching definitions.
  std::vector<int> var_slots;    // open-addressing table: local var id or -1
  std::vector<int> fact_of;      // per event: def ordinal, -1 otherwise
  std::vector<std::pair<EventIndex, EventIndex>> reach;  // (use, def)
  ForwardState flow;
  // Shared by every appendGrouped call.
  std::vector<std::uint32_t> cursor;
};

namespace {

/// Recursive-descent builder over the well-nested marker grammar the IL
/// analyzer emits. Any stream that does not match the grammar (stray or
/// missing markers) is flagged irregular rather than rejected. Writes the
/// block of every event and the edge list into the builder's scratch.
struct Parser {
  Parser(const std::vector<Mark>& marks, std::vector<int>& block_of,
         std::vector<std::pair<int, int>>& edges, std::vector<int>& breaks,
         std::vector<int>& continues)
      : marks_(marks),
        block_of_(block_of),
        edges_(edges),
        break_targets_(breaks),
        continue_targets_(continues) {}

  void run() {
    cur_ = newBlock();  // Cfg::entry()
    newBlock();         // Cfg::exit()
    parseSeq(0);
    if (i_ < marks_.size()) irregular_ = true;  // unconsumed stop marker
    edge(cur_, Cfg::exit());  // falling off the end returns
  }
  int newBlock() { return blocks_++; }
  void edge(int from, int to) { edges_.emplace_back(from, to); }
  [[nodiscard]] bool at(Mark m) const {
    return i_ < marks_.size() && marks_[i_] == m;
  }
  /// Consumes `m` if it is next; otherwise the stream is irregular.
  void expect(Mark m) {
    if (at(m)) ++i_;
    else irregular_ = true;
  }

  /// Consumes events until one in `stop` (left unconsumed) or stream end.
  void parseSeq(StopSet stop) {
    while (i_ < marks_.size()) {
      const Mark mark = marks_[i_];
      if (mark == Mark::None) {  // plain def/use event
        block_of_[i_++] = cur_;
        continue;
      }
      if ((stop & bit(mark)) != 0) return;
      switch (mark) {
        case Mark::Then: parseIf(); break;
        case Mark::Loop: parseLoop(); break;
        case Mark::Doloop: parseDo(); break;
        case Mark::Switch: parseSwitch(); break;
        case Mark::Ret:
          ++i_;
          edge(cur_, Cfg::exit());
          cur_ = newBlock();  // continuation is unreachable
          break;
        case Mark::Break: jump(break_targets_); break;
        case Mark::Continue: jump(continue_targets_); break;
        default:
          // "irregular", or a structural closer with no matching opener.
          irregular_ = true;
          ++i_;
      }
    }
  }

  void jump(const std::vector<int>& targets) {
    ++i_;
    if (targets.empty()) {
      irregular_ = true;
    } else {
      edge(cur_, targets.back());
      cur_ = newBlock();
    }
  }

  // `cur_` holds the condition events; we are at "then".
  void parseIf() {
    ++i_;
    const int cond = cur_;
    const int then_entry = newBlock();
    edge(cond, then_entry);
    cur_ = then_entry;
    parseSeq(bit(Mark::Else) | bit(Mark::Endif));
    const int then_exit = cur_;
    int else_exit = -1;
    if (at(Mark::Else)) {
      ++i_;
      const int else_entry = newBlock();
      edge(cond, else_entry);
      cur_ = else_entry;
      parseSeq(bit(Mark::Endif));
      else_exit = cur_;
    }
    expect(Mark::Endif);
    const int join = newBlock();
    edge(then_exit, join);
    if (else_exit >= 0) edge(else_exit, join);
    else edge(cond, join);  // no else: condition may fail straight through
    cur_ = join;
  }

  // while/for: "loop" <cond events> "body" <body+increment> "endloop".
  void parseLoop() {
    ++i_;
    const int before = cur_;
    const int header = newBlock();
    edge(before, header);
    cur_ = header;
    parseSeq(bit(Mark::Body));
    const int cond_exit = cur_;
    expect(Mark::Body);
    const int join = newBlock();
    break_targets_.push_back(join);
    continue_targets_.push_back(header);
    const int body_entry = newBlock();
    edge(cond_exit, body_entry);
    edge(cond_exit, join);  // zero iterations
    cur_ = body_entry;
    parseSeq(bit(Mark::Endloop));
    edge(cur_, header);  // back edge
    expect(Mark::Endloop);
    break_targets_.pop_back();
    continue_targets_.pop_back();
    cur_ = join;
  }

  // do-while: "doloop" "body" <body+cond events> "endloop". The body runs
  // at least once; the condition events sit at the end of the body region.
  void parseDo() {
    ++i_;
    expect(Mark::Body);
    const int before = cur_;
    const int body_entry = newBlock();
    edge(before, body_entry);
    const int join = newBlock();
    break_targets_.push_back(join);
    continue_targets_.push_back(body_entry);
    cur_ = body_entry;
    parseSeq(bit(Mark::Endloop));
    edge(cur_, body_entry);  // back edge
    edge(cur_, join);
    expect(Mark::Endloop);
    break_targets_.pop_back();
    continue_targets_.pop_back();
    cur_ = join;
  }

  // "switch" ("case"|"default" <stmts>)* "endswitch". Each label is
  // entered from the switch head; label regions fall through to the next.
  void parseSwitch() {
    ++i_;
    const int head = cur_;
    const int join = newBlock();
    break_targets_.push_back(join);
    bool has_default = false;
    int prev_exit = -1;
    while (at(Mark::Case) || at(Mark::Default)) {
      has_default = has_default || marks_[i_] == Mark::Default;
      ++i_;
      const int label_entry = newBlock();
      edge(head, label_entry);
      if (prev_exit >= 0) edge(prev_exit, label_entry);  // fallthrough
      cur_ = label_entry;
      parseSeq(bit(Mark::Case) | bit(Mark::Default) | bit(Mark::Endswitch));
      prev_exit = cur_;
    }
    expect(Mark::Endswitch);
    if (prev_exit >= 0) edge(prev_exit, join);
    // No default label (or an empty switch): the selector may match
    // nothing and control falls straight through.
    if (!has_default || prev_exit < 0) edge(head, join);
    break_targets_.pop_back();
    cur_ = join;
  }

  const std::vector<Mark>& marks_;
  std::vector<int>& block_of_;
  std::vector<std::pair<int, int>>& edges_;
  std::vector<int>& break_targets_;
  std::vector<int>& continue_targets_;
  std::size_t i_ = 0;
  int blocks_ = 0;
  int cur_ = 0;
  bool irregular_ = false;
};

}  // namespace

FlowBuilder::FlowBuilder(FlowTables& tables)
    : t_(tables), s_(std::make_unique<Scratch>()) {}

FlowBuilder::~FlowBuilder() = default;

Cfg FlowBuilder::buildCfg(const DefUseItem& item) {
  Scratch& s = *s_;
  const auto& events = item.events;
  const std::size_t n = events.size();
  s.marks.resize(n);
  for (std::size_t e = 0; e < n; ++e) s.marks[e] = classify(events[e]);
  s.block_of.assign(n, Cfg::entry());
  s.edges.clear();
  s.break_targets.clear();
  s.continue_targets.clear();
  Parser parser(s.marks, s.block_of, s.edges, s.break_targets,
                s.continue_targets);
  parser.run();

  Cfg cfg;
  cfg.t_ = &t_;
  cfg.item_ = &item;
  cfg.block_base_ = static_cast<std::uint32_t>(t_.block_event_off.size() - 1);
  cfg.event_base_ = static_cast<std::uint32_t>(t_.block_of.size());
  cfg.blocks_ = parser.blocks_;
  cfg.irregular_ = parser.irregular_;
  const auto blocks = static_cast<std::size_t>(parser.blocks_);
  t_.block_of.insert(t_.block_of.end(), s.block_of.begin(), s.block_of.end());
  appendGrouped<EventIndex>(
      t_.block_event_off, t_.block_events, blocks, s.cursor,
      [&](const auto& emit) {
        for (std::size_t e = 0; e < n; ++e) {
          if (s.marks[e] == Mark::None)
            emit(static_cast<std::size_t>(s.block_of[e]),
                 static_cast<EventIndex>(e));
        }
      });
  appendGrouped<int>(t_.succ_off, t_.succ, blocks, s.cursor,
                     [&](const auto& emit) {
                       for (const auto& [from, to] : s.edges)
                         emit(static_cast<std::size_t>(from), to);
                     });
  appendGrouped<int>(t_.pred_off, t_.pred, blocks, s.cursor,
                     [&](const auto& emit) {
                       for (const auto& [from, to] : s.edges)
                         emit(static_cast<std::size_t>(to), from);
                     });
  return cfg;
}

ReachingDefs FlowBuilder::solve(const Cfg& cfg) {
  Scratch& s = *s_;
  const auto& events = cfg.item().events;
  const std::size_t n = events.size();

  ReachingDefs rd;
  rd.t_ = &t_;
  rd.event_base_ = static_cast<std::uint32_t>(t_.var_of.size());
  rd.events_ = static_cast<std::uint32_t>(n);
  rd.var_base_ = static_cast<std::uint32_t>(t_.var_names.size());

  // Dense variable numbering in first-seen order, through an
  // open-addressing table sized for the stream (load factor <= 1/2).
  const std::size_t slots = std::bit_ceil(std::max<std::size_t>(16, 2 * n));
  s.var_slots.assign(slots, -1);
  int vars = 0;
  for (const DefUseItem::Event& ev : events) {
    if (ev.op == DuOp::Marker) {
      t_.var_of.push_back(-1);
      continue;
    }
    std::size_t h = std::hash<std::string_view>()(ev.name) & (slots - 1);
    while (s.var_slots[h] >= 0 &&
           t_.var_names[rd.var_base_ + static_cast<std::size_t>(
                                           s.var_slots[h])] != ev.name)
      h = (h + 1) & (slots - 1);
    if (s.var_slots[h] < 0) {
      s.var_slots[h] = vars++;
      t_.var_names.push_back(ev.name);
    }
    t_.var_of.push_back(s.var_slots[h]);
  }
  rd.vars_ = static_cast<std::uint32_t>(vars);
  const int* var_of = t_.var_of.data() + rd.event_base_;

  const auto byVar = [&](DuOp op) {
    return [&, op](const auto& emit) {
      for (std::size_t e = 0; e < n; ++e) {
        if (events[e].op == op)
          emit(static_cast<std::size_t>(var_of[e]), static_cast<EventIndex>(e));
      }
    };
  };
  appendGrouped<EventIndex>(t_.var_def_off, t_.var_defs,
                            static_cast<std::size_t>(vars), s.cursor,
                            byVar(DuOp::Def));
  appendGrouped<EventIndex>(t_.var_use_off, t_.var_uses,
                            static_cast<std::size_t>(vars), s.cursor,
                            byVar(DuOp::Use));

  // Facts are def events, numbered in stream order.
  s.fact_of.assign(n, -1);
  std::size_t facts = 0;
  for (std::size_t e = 0; e < n; ++e) {
    if (events[e].op == DuOp::Def) s.fact_of[e] = static_cast<int>(facts++);
  }
  const auto apply = [&](EventIndex e, BitSet& state) {
    const DefUseItem::Event& ev = events[e];
    if (ev.op != DuOp::Def) return;
    // Weak update: an escaped/conditional def adds a possible value but
    // cannot retire the others.
    if ((ev.flags & pdb::du::kUnknown) == 0) {
      for (const EventIndex d : rd.defsOf(var_of[e]))
        state.reset(static_cast<std::size_t>(s.fact_of[d]));
    }
    state.set(static_cast<std::size_t>(s.fact_of[e]));
  };
  steps_ += solveForward(
      cfg, facts,
      [&](int block, BitSet& state) {
        for (const EventIndex e : cfg.events(block)) apply(e, state);
      },
      s.flow);

  // Reconstruct per-use reaching sets by replaying each block once. A
  // use's defs are emitted ascending (defsOf is in stream order).
  s.reach.clear();
  BitSet state({s.flow.out.data(), s.flow.words});
  for (int b = 0; b < cfg.blockCount(); ++b) {
    state.assign(s.flow.blockIn(b));
    for (const EventIndex e : cfg.events(b)) {
      if (events[e].op == DuOp::Use) {
        for (const EventIndex d : rd.defsOf(var_of[e])) {
          if (state.test(static_cast<std::size_t>(s.fact_of[d])))
            s.reach.emplace_back(e, d);
        }
      }
      apply(e, state);
    }
  }
  appendGrouped<EventIndex>(t_.reach_off, t_.reach, n, s.cursor,
                            [&](const auto& emit) {
                              for (const auto& [use, def] : s.reach)
                                emit(use, def);
                            });
  // Walking uses in ascending order leaves each def's uses ascending.
  appendGrouped<EventIndex>(
      t_.reached_off, t_.reached, n, s.cursor, [&](const auto& emit) {
        for (EventIndex u = 0; u < n; ++u) {
          for (const EventIndex d : rd.defsReaching(u)) emit(d, u);
        }
      });
  return rd;
}

Cfg Cfg::build(const DefUseItem& item) {
  auto tables = std::make_unique<FlowTables>();
  Cfg cfg = FlowBuilder(*tables).buildCfg(item);
  cfg.owned_ = std::move(tables);
  return cfg;
}

ReachingDefs::ReachingDefs(const Cfg& cfg) {
  auto tables = std::make_unique<FlowTables>();
  *this = FlowBuilder(*tables).solve(cfg);
  owned_ = std::move(tables);
}

}  // namespace pdt::analysis::dataflow
