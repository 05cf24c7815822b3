#include "spans.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <string_view>

#include "support/trace.h"

namespace perfbench {

namespace {

// The benchmark numbers its threads itself; the first span on a thread
// also emits one zero-length marker into the program's trace whose detail
// carries that number, so collect() can map the program's thread ids onto
// the benchmark's.
constexpr const char* kThreadMarker = "perfbench.thread";

std::uint32_t benchThreadId() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = [] {
    const std::uint32_t n = next.fetch_add(1);
    pdt::trace::emitComplete(kThreadMarker, pdt::trace::nowUs(), 0, std::to_string(n));
    return n;
  }();
  return id;
}

thread_local int t_open_span = -1;

}  // namespace

void inferParents(std::vector<Span>& spans) {
  std::vector<int> order(spans.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const Span& x = spans[a];
    const Span& y = spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_us != y.start_us) return x.start_us < y.start_us;
    if (x.end_us != y.end_us) return x.end_us > y.end_us;
    if (x.explicit_parent != y.explicit_parent) return x.explicit_parent;
    return a < b;
  });
  std::vector<int> stack;
  std::uint32_t tid = 0;
  for (const int i : order) {
    Span& s = spans[i];
    if (stack.empty() || s.tid != tid) {
      stack.clear();
      tid = s.tid;
    }
    // Every span on the stack started no later than `s`; it contains `s`
    // exactly when it also ends no earlier.
    while (!stack.empty() && spans[stack.back()].end_us < s.end_us)
      stack.pop_back();
    if (!s.explicit_parent) s.parent = stack.empty() ? -1 : stack.back();
    stack.push_back(i);
  }
}

std::vector<std::uint64_t> selfTimes(const std::vector<Span>& spans) {
  // Children of one parent run one after another on its thread; their
  // union is computed anyway so a malformed overlap never goes negative.
  std::vector<std::vector<int>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) children[spans[i].parent].push_back(static_cast<int>(i));
  }
  std::vector<std::uint64_t> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
    for (const int c : children[i]) {
      const std::uint64_t b = std::max(spans[c].start_us, p.start_us);
      const std::uint64_t e = std::min(spans[c].end_us, p.end_us);
      if (e > b) cover.emplace_back(b, e);
    }
    std::sort(cover.begin(), cover.end());
    std::uint64_t covered = 0;
    std::uint64_t cur_b = 0;
    std::uint64_t cur_e = 0;
    bool open = false;
    for (const auto& [b, e] : cover) {
      if (open && b <= cur_e) {
        cur_e = std::max(cur_e, e);
        continue;
      }
      if (open) covered += cur_e - cur_b;
      cur_b = b;
      cur_e = e;
      open = true;
    }
    if (open) covered += cur_e - cur_b;
    const std::uint64_t dur = p.end_us - p.start_us;
    out[i] = dur > covered ? dur - covered : 0;
  }
  return out;
}

std::vector<std::string> rootNames(const std::vector<Span>& spans) {
  std::vector<std::string> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    int r = static_cast<int>(i);
    for (int guard = 0; spans[r].parent >= 0 && guard < 1000; ++guard)
      r = spans[r].parent;
    out[i] = spans[r].name;
  }
  return out;
}

std::string layerOf(const std::string& name) {
  static const std::pair<std::string_view, std::string_view> kPrefixes[] = {
      {"tu.compile", "driver"},     {"driver.", "driver"},
      {"frontend.lex", "lex"},      {"frontend.parse", "parse"},
      {"frontend.", "frontend"},    {"sema.", "sema"},
      {"il.", "ilanalyzer"},        {"ductape.", "ductape"},
      {"merge.", "ductape"},        {"pdb.", "pdb"},
      {"cache.", "build_cache"},    {"query.", "query"},
      {"check.", "analysis"},       {"analysis.", "analysis"},
      {"pdbd.", "pdbd"},            {"tauprof.", "tauprof"},
      {"tau.", "tau"},              {"gxx.", "gxx"},
  };
  for (const auto& [prefix, layer] : kPrefixes) {
    if (name.rfind(prefix, 0) == 0) return std::string(layer);
  }
  return "other";
}

SpanRecorder::Scope::Scope(SpanRecorder& rec, const char* name)
    : rec_(rec.enabled() ? &rec : nullptr) {
  if (rec_ == nullptr) return;
  Span s;
  s.name = name;
  s.tid = benchThreadId();
  s.parent = t_open_span;
  s.explicit_parent = true;
  s.start_us = pdt::trace::nowUs();
  {
    const std::lock_guard<std::mutex> lock(rec_->mu_);
    index_ = static_cast<int>(rec_->spans_.size());
    rec_->spans_.push_back(std::move(s));
  }
  saved_parent_ = t_open_span;
  t_open_span = index_;
}

SpanRecorder::Scope::~Scope() {
  if (rec_ == nullptr) return;
  const std::uint64_t end = pdt::trace::nowUs();
  {
    const std::lock_guard<std::mutex> lock(rec_->mu_);
    rec_->spans_[index_].end_us = end;
  }
  t_open_span = saved_parent_;
}

std::vector<Span> SpanRecorder::collect() const {
  std::vector<Span> out;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    out = spans_;
  }
  const std::vector<pdt::trace::Event> events = pdt::trace::snapshotEvents();
  std::map<std::uint32_t, std::uint32_t> tid_map;
  for (const pdt::trace::Event& e : events) {
    if (e.kind == 'X' && std::string_view(e.name) == kThreadMarker)
      tid_map[e.tid] = static_cast<std::uint32_t>(std::stoul(e.detail));
  }
  for (const pdt::trace::Event& e : events) {
    if (e.kind != 'X' || std::string_view(e.name) == kThreadMarker) continue;
    Span s;
    s.name = e.name;
    const auto it = tid_map.find(e.tid);
    // Threads the benchmark never opened a span on get ids of their own.
    s.tid = it != tid_map.end() ? it->second : 1000000 + e.tid;
    s.start_us = e.ts_us;
    s.end_us = e.ts_us + e.dur_us;
    out.push_back(std::move(s));
  }
  inferParents(out);
  return out;
}

LayerTable layerTable(const std::vector<Span>& spans) {
  const std::vector<std::uint64_t> self = selfTimes(spans);
  const std::vector<std::string> roots = rootNames(spans);
  LayerTable table;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    table[roots[i]][layerOf(spans[i].name)] += static_cast<double>(self[i]) / 1000.0;
  }
  return table;
}

}  // namespace perfbench
