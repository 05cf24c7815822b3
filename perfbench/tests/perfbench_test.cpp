// The benchmark's own tests: seeded corpora are reproducible, the
// self-time arithmetic is right on synthetic nested spans, and every
// metric the driver can emit is well named and declared in
// BENCHMARK.json with the same unit.
#include <cstdio>
#include <map>
#include <regex>
#include <string>

#include "corpus.h"
#include "metrics.h"
#include "spans.h"
#include "util.h"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "FAILED: %s\n", what.c_str());
}

std::string flatten(const perfbench::Corpus& c) {
  std::string out;
  for (const auto& f : c.files) out += f.name + "\n" + f.text;
  return out;
}

void corpusIsSeeded() {
  const std::string a = flatten(perfbench::makeCorpus(7, 40));
  expect(a == flatten(perfbench::makeCorpus(7, 40)), "same seed gives the same corpus");
  expect(a != flatten(perfbench::makeCorpus(8, 40)), "different seeds give different corpora");
  const perfbench::Corpus c = perfbench::makeCorpus(7, 40);
  expect(c.files.size() == 42, "shared.h + 40 TUs + main.cpp");
  expect(!c.expect.dead.empty() && !c.expect.uninit.empty() && c.expect.cycle.size() == 2,
         "every corpus plants each defect");
  expect(perfbench::tuSource(c.shapes[3], 3, 1) != perfbench::tuSource(c.shapes[3], 3, 2),
         "an edit changes the TU's bytes");
}

perfbench::Span span(const char* name, std::uint64_t b, std::uint64_t e,
                     std::uint32_t tid = 1) {
  perfbench::Span s;
  s.name = name;
  s.tid = tid;
  s.start_us = b;
  s.end_us = e;
  return s;
}

void selfTimeArithmetic() {
  // build.cold [0,100] > tu.compile [10,90] > frontend.lex [10,30],
  // frontend.parse [30,70] > sema.instantiate [40,50]; il.analyze [70,85].
  // A span of another thread inside the same interval is not a child.
  std::vector<perfbench::Span> spans = {
      span("frontend.parse", 30, 70), span("build.cold", 0, 100),
      span("sema.instantiate", 40, 50), span("tu.compile", 10, 90),
      span("il.analyze", 70, 85), span("frontend.lex", 10, 30),
      span("pdbd.request", 20, 60, 2),
  };
  perfbench::inferParents(spans);
  const auto self = perfbench::selfTimes(spans);
  const std::map<std::string, std::uint64_t> want = {
      {"build.cold", 20}, {"tu.compile", 5},     {"frontend.lex", 20},
      {"frontend.parse", 30}, {"sema.instantiate", 10}, {"il.analyze", 15},
      {"pdbd.request", 40},
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    expect(self[i] == want.at(spans[i].name),
           spans[i].name + " self time " + std::to_string(self[i]));
  }
  expect(spans[2].parent == 0, "sema.instantiate nests in frontend.parse");
  expect(spans[6].parent == -1, "another thread's span is a root");

  // An explicit parent is kept; identical intervals nest the benchmark's
  // span outside the program's.
  std::vector<perfbench::Span> same = {span("pdb.write", 5, 9), span("pdb.write", 5, 9),
                                       span("build.cold", 0, 10)};
  same[1].explicit_parent = true;
  same[1].parent = 2;
  perfbench::inferParents(same);
  expect(same[1].parent == 2 && same[0].parent == 1, "explicit span is the outer one");
  const auto table = perfbench::layerTable(same);
  expect(table.at("build.cold").at("pdb") == 0.004, "layer table sums pdb self time");
  expect(table.at("build.cold").at("other") == 0.006, "uncovered time lands in other");

  // Overlapping children never make self time negative.
  std::vector<perfbench::Span> overlap = {span("a", 0, 10), span("b", 1, 6), span("c", 4, 12)};
  overlap[1].explicit_parent = overlap[2].explicit_parent = true;
  overlap[1].parent = overlap[2].parent = 0;
  perfbench::inferParents(overlap);
  expect(perfbench::selfTimes(overlap)[0] == 1, "union of overlapping children");
}

void metricsAreDeclared() {
  const std::string json = perfbench::readFile(PERFBENCH_JSON);
  expect(!json.empty(), "BENCHMARK.json is readable");
  std::map<std::string, std::string> declared;
  const std::regex entry(R"re("name":\s*"([^"]+)",\s*"unit":\s*"([^"]+)")re");
  for (std::sregex_iterator it(json.begin(), json.end(), entry), end; it != end; ++it)
    declared[(*it)[1]] = (*it)[2];
  const std::regex valid("[A-Za-z0-9_.-]+");
  for (const auto* specs : {&perfbench::endToEndMetrics(), &perfbench::perLayerMetrics()}) {
    for (const perfbench::MetricSpec& m : *specs) {
      expect(std::regex_match(m.name, valid), std::string("metric name ") + m.name);
      const auto it = declared.find(m.name);
      expect(it != declared.end() && it->second == m.unit,
             std::string("metric ") + m.name + " declared with unit " + m.unit);
    }
  }
  expect(declared.size() ==
             perfbench::endToEndMetrics().size() + perfbench::perLayerMetrics().size(),
         "BENCHMARK.json declares no metric the driver does not emit");
}

}  // namespace

int main() {
  corpusIsSeeded();
  selfTimeArithmetic();
  metricsAreDeclared();
  if (g_failures == 0) std::printf("perfbench_test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
