// One benchmark stage per part of the pipeline. Every workload runs all
// four stages so that every run reports every end-to-end metric; the
// stage named by the workload runs at full scale for most of the window,
// the others run a small probe of their layers for the rest.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "corpus.h"
#include "metrics.h"
#include "spans.h"
#include "tools/driver.h"

namespace perfbench {

struct Env {
  std::uint64_t seed = 0;
  std::string work;   // the stage's own directory inside the checkout
  bool heavy = false; // this stage is the workload's focus
  Report* report = nullptr;
  SpanRecorder* spans = nullptr;
};

class Stage {
 public:
  virtual ~Stage() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  /// Generates inputs and brings the stage to a warm state. Runs several
  /// times per process (setup_s is their median); each call starts over.
  virtual void setup(const Env& env) = 0;
  /// The measured loop: repeats the stage's operations until `seconds`
  /// have passed, checking every output and tallying operations.
  virtual void run(const Env& env, double seconds) = 0;
  /// The stage's headline time over the samples since the last reset
  /// (the traced run compares it with tracing on and off).
  [[nodiscard]] virtual double primary() const = 0;
  virtual void resetSamples() = 0;
  /// Writes the stage's end-to-end metrics.
  virtual void finish(const Env& env) = 0;
  /// Writes the stage's per-layer metrics from the traced spans.
  virtual void layers(const Env& env, const std::vector<Span>& spans) = 0;
  /// Stops anything the stage started (the serve stage's daemon).
  virtual void teardown() {}
};

std::unique_ptr<Stage> makeBuildStage();
std::unique_ptr<Stage> makeAnalyzeStage();
std::unique_ptr<Stage> makeServeStage();
std::unique_ptr<Stage> makeProfileStage();

// ---- helpers shared by the stages ----

/// Writes `corpus` under `dir`; returns the TU paths in compile order
/// (tu*.cpp, then main.cpp).
std::vector<std::string> writeCorpus(const Corpus& corpus, const std::string& dir);

/// Options for compiling a corpus in `dir` (jobs = 1).
[[nodiscard]] pdt::tools::DriverOptions corpusOptions(const std::string& dir);

/// Checks a merged database against the generator's record; returns an
/// empty string or the first mismatch.
[[nodiscard]] std::string checkAgainst(const pdt::pdb::PdbFile& pdb,
                                       const Expectations& expect);

/// Sum of the self times (ms) of spans of `layer` under roots named `root`.
[[nodiscard]] double layerMs(const LayerTable& table, const std::string& root,
                             const std::string& layer);

/// Self times (ms) of every span named `name` under roots named `root`.
[[nodiscard]] std::vector<double> spanSelfMs(const std::vector<Span>& spans,
                                             const std::string& root,
                                             const std::string& name);
/// Number of spans named `name`.
[[nodiscard]] std::size_t spanCount(const std::vector<Span>& spans,
                                    const std::string& name);

[[nodiscard]] inline double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

}  // namespace perfbench
