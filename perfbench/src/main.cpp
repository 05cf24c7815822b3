// pdt_perfbench: one benchmark run of one workload.
//
//   pdt_perfbench --workload compile|query --seed N --seconds S
//                 --trace 0|1 --work DIR
//
// Every workload runs the four stages (build, analyze, serve, profile);
// two of them run at full scale for 35% of the window each, the others a
// small probe for 15% each. Set-up runs three times and setup_s is the
// median. With --trace 0 the last stdout line carries every end-to-end
// metric; with --trace 1 the first half of the window runs untraced and
// the second half traced, and the line carries every per-layer metric,
// after a self-time table per operation.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "metrics.h"
#include "spans.h"
#include "stage.h"
#include "support/trace.h"
#include "util.h"

namespace {

// Timings from an unoptimized or sanitized build say nothing about the
// program users run; such a binary refuses to report.
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
constexpr bool kReportable = false;
#else
constexpr bool kReportable = true;
#endif

constexpr int kSetupRuns = 3;
constexpr double kHeavyShare = 0.35;
constexpr double kProbeShare = 0.15;
constexpr double kRoundSeconds = 2.0;

// The stages each workload runs at full scale: the front end with its
// dynamic counterpart, and the two ways the query layers are used.
struct Workload {
  const char* name;
  const char* heavy[2];
};
constexpr Workload kWorkloads[] = {
    {"compile", {"build", "profile"}},
    {"query", {"serve", "analyze"}},
};

int usage() {
  std::cerr << "usage: pdt_perfbench --workload compile|query "
               "--seed N --seconds S --trace 0|1 --work DIR\n";
  return 2;
}

void printTable(const perfbench::LayerTable& table) {
  // One block per operation (root span): each layer's self time, its
  // share, and "other" — time inside the operation no layer span covers.
  for (const auto& [root, layers] : table) {
    double total = 0;
    for (const auto& [layer, ms] : layers) total += ms;
    if (total <= 0) continue;
    std::printf("self-time %-18s total %10.2f ms\n", root.c_str(), total);
    for (const auto& [layer, ms] : layers) {
      std::printf("  %-14s %10.2f ms %6.1f%%\n", layer.c_str(), ms, 100.0 * ms / total);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string work;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::stoull(value);
    else if (flag == "--seconds") seconds = std::stod(value);
    else if (flag == "--trace") trace = std::stoi(value);
    else if (flag == "--work") work = value;
    else return usage();
  }
  if (workload.empty() || work.empty() || seconds <= 0 || (trace != 0 && trace != 1))
    return usage();
  if (!kReportable) {
    std::cerr << "pdt_perfbench: refusing to report from an unoptimized or "
                 "sanitized build\n";
    return 3;
  }

  std::vector<std::unique_ptr<perfbench::Stage>> stages;
  stages.push_back(perfbench::makeBuildStage());
  stages.push_back(perfbench::makeAnalyzeStage());
  stages.push_back(perfbench::makeServeStage());
  stages.push_back(perfbench::makeProfileStage());
  const Workload* chosen = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) chosen = &w;
  }
  if (chosen == nullptr) return usage();

  perfbench::Report report;
  perfbench::SpanRecorder spans;
  std::vector<perfbench::Env> envs;
  for (const auto& s : stages) {
    perfbench::Env env;
    env.seed = seed;
    env.work = work + "/" + s->name();
    env.heavy = std::string(s->name()) == chosen->heavy[0] ||
                std::string(s->name()) == chosen->heavy[1];
    env.report = &report;
    env.spans = &spans;
    envs.push_back(env);
  }

  try {
    std::vector<double> setup_s;
    for (int rep = 0; rep < kSetupRuns; ++rep) {
      const double t0 = perfbench::nowMs();
      for (std::size_t i = 0; i < stages.size(); ++i) stages[i]->setup(envs[i]);
      setup_s.push_back((perfbench::nowMs() - t0) / 1000.0);
    }
    report.set("setup_s", perfbench::median(setup_s));

    // The window is cut into rounds and every round gives each stage its
    // share, so each stage's samples spread over the whole window and every
    // stage sees the host's fast phases as well as its slow ones.
    const int rounds = std::max(2, static_cast<int>(seconds / kRoundSeconds + 0.5));
    const double round_s = seconds / rounds;
    std::vector<double> untraced(stages.size(), 0.0);
    for (int round = 0; round < rounds; ++round) {
      if (trace == 1 && round == rounds / 2) {
        for (std::size_t i = 0; i < stages.size(); ++i) {
          untraced[i] = stages[i]->primary();
          stages[i]->resetSamples();
        }
        pdt::trace::setCollecting(true);
        spans.setEnabled(true);
      }
      for (std::size_t i = 0; i < stages.size(); ++i)
        stages[i]->run(envs[i], (envs[i].heavy ? kHeavyShare : kProbeShare) * round_s);
    }
    for (std::size_t i = 0; i < stages.size(); ++i) {
      // The first full-scale stage's own time, traced against untraced.
      if (trace == 1 && stages[i]->name() == std::string(chosen->heavy[0]) && untraced[i] > 0)
        report.set("trace.overhead_pct", 100.0 * (stages[i]->primary() - untraced[i]) / untraced[i]);
    }
    for (std::size_t i = 0; i < stages.size(); ++i) stages[i]->finish(envs[i]);
    // The larger peak of the two processes doing the work: this one and
    // the pdbd daemon.
    report.set("peak_rss_mb",
               std::max(report.get("pdbd.rss_mb"), perfbench::peakRssMb(getpid())));
    if (trace == 1) {
      // Collection stays on until the table is built: turning it on again
      // would restart the program's span clock.
      std::vector<perfbench::Span> collected = spans.collect();
      for (std::size_t i = 0; i < stages.size(); ++i) stages[i]->layers(envs[i], collected);
      spans.setEnabled(false);
      pdt::trace::setCollecting(false);
      // The in-process pdbd measurement records spans of its own.
      collected = spans.collect();
      const perfbench::LayerTable table = perfbench::layerTable(collected);
      printTable(table);
      double other = 0;
      double total = 0;
      for (const auto& [root, layers] : table) {
        for (const auto& [layer, ms] : layers) {
          total += ms;
          if (layer == "other") other += ms;
        }
      }
      report.set("other.self_pct", total > 0 ? 100.0 * other / total : 0.0);
    }
    for (auto& s : stages) s->teardown();
  } catch (const std::exception& e) {
    std::cerr << "pdt_perfbench: " << e.what() << '\n';
    return 1;
  }

  std::string missing;
  const std::string line = report.json(
      trace == 1 ? perfbench::perLayerMetrics() : perfbench::endToEndMetrics(), missing);
  if (line.empty()) {
    std::cerr << "pdt_perfbench: metric " << missing << " was not measured\n";
    return 1;
  }
  std::cout << line << std::endl;
  return 0;
}
