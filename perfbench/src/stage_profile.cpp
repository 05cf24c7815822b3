// profile: paper Figure 7. tau::instrument rewrites a seeded Krylov (CG)
// driver and the shipped headers; the plain and instrumented binaries are
// built with the system compiler in set-up. The measured loop runs the
// instrumented binary (per-thread binary profiles into the work
// directory), then the tauprof steps: read the profiles, merge them,
// attach them to the driver's database as a dp section, render the
// Profile tree.
#include <filesystem>
#include <sstream>

#include "frontend/frontend.h"
#include "ilanalyzer/analyzer.h"
#include "pdt/pdt_paths.h"
#include "query/render.h"
#include "stage.h"
#include "tau/instrumentor.h"
#include "tau/profile_merge.h"
#include "util.h"

namespace perfbench {

namespace {

const char* const kHeaders[] = {"Array.h", "BLAS1.h", "Stencil.h", "CG.h"};

/// tauprof passes per timed sample.
constexpr int kTauprofPasses = 10;

class ProfileStage final : public Stage {
 public:
  const char* name() const override { return "profile"; }

  void setup(const Env& env) override {
    Rng rng(env.seed ^ 0x70726f66696c65ULL);
    // A narrow seeded range: run time grows with n squared, and the
    // seeds of one set of runs must measure the same amount of work.
    n_ = env.heavy ? rng.uniform(198, 202) : rng.uniform(126, 130);
    dir_ = env.work;
    removeTree(dir_);
    const std::string pooma = std::string(pdt::paths::kInputDir) + "/pooma_mini";
    const std::string stl = std::string(pdt::paths::kRuntimeDir) + "/pdt_stl";
    const std::string tau = std::string(pdt::paths::kRuntimeDir) + "/tau";
    const std::string driver = dir_ + "/driver.cpp";
    writeFile(driver, krylovDriver(n_));

    pdt::SourceManager sm;
    pdt::DiagnosticEngine diags;
    pdt::frontend::FrontendOptions options;
    options.include_dirs = {pooma, stl};
    pdt::frontend::Frontend frontend(sm, diags, options);
    const auto compiled = frontend.compileFile(driver);
    if (!compiled.success) throw std::runtime_error("profile set-up: driver did not compile");
    pdb_ = pdt::ilanalyzer::analyze(compiled, sm);
    const pdt::ductape::PDB db = pdt::ductape::PDB::fromPdbFile(pdb_);

    const double t_instr = nowMs();
    std::size_t sites = 0;
    for (const char* header : kHeaders) {
      const std::string text =
          pdt::tau::instrument(db, header, readFile(pooma + "/" + header));
      sites += countSites(text);
      writeFile(dir_ + "/instr/" + header, text);
    }
    const std::string text = pdt::tau::instrument(db, "driver.cpp", readFile(driver));
    sites += countSites(text);
    writeFile(dir_ + "/instr/driver.cpp", text);
    instrument_ms_.push_back(nowMs() - t_instr);
    if (sites == 0) throw std::runtime_error("profile set-up: nothing was instrumented");

    const double t_gxx = nowMs();
    plain_ = dir_ + "/plain";
    instr_ = dir_ + "/instrumented";
    const std::string cxx = PERFBENCH_CXX;
    const std::vector<std::string> common = {cxx, "-std=c++17", "-O2", "-I", stl};
    auto plain_cmd = common;
    plain_cmd.insert(plain_cmd.end(), {"-I", pooma, driver, stl + "/pdt_stl_impl.cpp", "-o", plain_});
    auto instr_cmd = common;
    instr_cmd.insert(instr_cmd.end(), {"-I", tau, dir_ + "/instr/driver.cpp",
                                       stl + "/pdt_stl_impl.cpp", PERFBENCH_TAU_RT,
                                       "-pthread", "-o", instr_});
    if (runCommand(plain_cmd, {}, {}, dir_ + "/gxx.log") != 0 ||
        runCommand(instr_cmd, {}, {}, dir_ + "/gxx.log") != 0)
      throw std::runtime_error("profile set-up: g++ failed (see " + dir_ + "/gxx.log)");
    gxx_s_.push_back((nowMs() - t_gxx) / 1000.0);

    if (runCommand({plain_}, {}, dir_ + "/plain.out") != 0)
      throw std::runtime_error("profile set-up: plain run failed");
    plain_out_ = readFile(dir_ + "/plain.out");
    const auto at = plain_out_.find("iterations: ");
    if (at == std::string::npos) throw std::runtime_error("profile set-up: no iteration count");
    iterations_ = std::stoi(plain_out_.substr(at + 12));
    profiles_ = dir_ + "/profiles";
    Report scratch;
    SpanRecorder off;
    runOnce(scratch, off);
    if (scratch.failed() != 0) throw std::runtime_error("profile set-up: outputs failed their checks");
    resetSamples();
  }

  void run(const Env& env, double seconds) override {
    const double deadline = nowMs() + seconds * 1000.0;
    while (nowMs() < deadline) runOnce(*env.report, *env.spans);
  }

  double primary() const override { return fastest(tauprof_ms_); }

  void resetSamples() override {
    instr_ms_.clear();
    plain_ms_.clear();
    tauprof_ms_.clear();
  }

  void finish(const Env& env) override {
    env.report->set("instr_run_ms", fastest(instr_ms_));
    env.report->set("tauprof_ms", fastest(tauprof_ms_));
  }

  void layers(const Env& env, const std::vector<Span>& spans) override {
    Report& r = *env.report;
    r.set("tau.instrument_ms", median(instrument_ms_));
    r.set("gxx.build_s", median(gxx_s_));
    r.set("tau.calls", static_cast<double>(calls_));
    r.set("tau.ns_per_call",
          calls_ > 0 ? (fastest(instr_ms_) - fastest(plain_ms_)) * 1e6 / static_cast<double>(calls_) : 0.0);
    const double runs = std::max<double>(1.0, static_cast<double>(spanCount(spans, "profile.tauprof")));
    r.set("tauprof.read_ms", sum(spanSelfMs(spans, "profile.tauprof", "tauprof.read")) / runs);
    r.set("tauprof.merge_ms", sum(spanSelfMs(spans, "profile.tauprof", "tauprof.merge")) / runs);
    r.set("tauprof.attach_ms", sum(spanSelfMs(spans, "profile.tauprof", "tauprof.attach")) / runs);
  }

 private:
  static std::size_t countSites(const std::string& text) {
    std::size_t n = 0;
    for (std::size_t at = text.find("TAU_PROFILE("); at != std::string::npos;
         at = text.find("TAU_PROFILE(", at + 1))
      ++n;
    return n;
  }

  void runOnce(Report& report, SpanRecorder& spans) {
    removeTree(profiles_);
    makeDirs(profiles_);
    {
      // The uninstrumented baseline of tau.ns_per_call; no layer runs.
      const double t0 = nowMs();
      const int rc = runCommand({plain_}, {}, "/dev/null");
      plain_ms_.push_back(nowMs() - t0);
      report.op(rc == 0, "plain run exited with " + std::to_string(rc));
    }
    int rc = 0;
    {
      const SpanRecorder::Scope root(spans, "tau.run");
      const double t0 = nowMs();
      rc = runCommand({instr_}, {"TAU_PROFILE_FILE=" + profiles_}, dir_ + "/instr.out");
      instr_ms_.push_back(nowMs() - t0);
    }
    report.op(rc == 0 && readFile(dir_ + "/instr.out") == plain_out_,
              "instrumented run: exit " + std::to_string(rc) + " or output differs from plain");

    // One tauprof pass takes under a millisecond, so a sample is the mean
    // of kTauprofPasses back-to-back passes over the same profile files.
    std::string text;
    pdt::tau::MergedProfile merged;
    bool read_ok = true;
    bool same = true;
    const double t0 = nowMs();
    for (int pass = 0; pass < kTauprofPasses; ++pass) {
      std::string out = tauprof(spans, merged, read_ok);
      same = same && (pass == 0 || out == text);
      text = std::move(out);
    }
    tauprof_ms_.push_back((nowMs() - t0) / kTauprofPasses);
    report.op(read_ok && !text.empty() && same, "tauprof: no profile read, or passes differ");
    const std::string err = callCountMismatch(merged);
    report.op(err.empty(), "profile call counts: " + err);
  }

  /// One tauprof pass: read and merge the run's per-thread profiles,
  /// attach them as the dp section, and render the Profile tree.
  std::string tauprof(SpanRecorder& spans, pdt::tau::MergedProfile& merged, bool& read_ok) {
    const SpanRecorder::Scope root(spans, "profile.tauprof");
    std::vector<pdt::tau::ThreadProfile> inputs;
    {
      const SpanRecorder::Scope span(spans, "tauprof.read");
      std::vector<std::string> files;
      for (const auto& entry : std::filesystem::directory_iterator(profiles_))
        files.push_back(entry.path().string());
      std::sort(files.begin(), files.end());
      for (const std::string& f : files) {
        auto profile = pdt::tau::readThreadProfile(f);
        read_ok = read_ok && profile.has_value();
        if (profile) inputs.push_back(std::move(*profile));
      }
    }
    read_ok = read_ok && !inputs.empty();
    {
      const SpanRecorder::Scope span(spans, "tauprof.merge");
      merged = pdt::tau::mergeThreadProfiles(inputs);
    }
    pdt::pdb::PdbFile with_profile = pdb_;
    {
      const SpanRecorder::Scope span(spans, "tauprof.attach");
      pdt::tau::attachDynProfSection(merged, with_profile);
    }
    const SpanRecorder::Scope span(spans, "tauprof.render");
    const pdt::query::Index index(std::move(with_profile));
    std::ostringstream os;
    pdt::query::renderTree(index, pdt::query::Tree::Profile, os);
    return std::move(os).str();
  }

  /// Per-routine call counts implied by the printed CG iteration count k
  /// (CG.h): one solve, copyInto once, apply 1 + k, dot 1 + 2k, axpy 2k,
  /// pdtSqrt k, xpby k - 1 when the solve converged before its limit.
  std::string callCountMismatch(const pdt::tau::MergedProfile& merged) {
    const std::uint64_t k = static_cast<std::uint64_t>(iterations_);
    const bool converged = iterations_ < 4 * n_;
    const std::pair<const char*, std::uint64_t> expected[] = {
        {"solve", 1},        {"copyInto", 1}, {"apply", 1 + k},
        {"dot", 1 + 2 * k},  {"axpy", 2 * k}, {"pdtSqrt", k},
        {"xpby", converged ? k - 1 : k},
    };
    calls_ = 0;
    for (const auto& e : merged.entries) calls_ += e.calls;
    for (const auto& [routine, want] : expected) {
      std::uint64_t got = 0;
      const std::string prefix = std::string(routine) + "(";
      for (const auto& e : merged.entries) {
        if (e.name.find(prefix) != std::string::npos) got += e.calls;
      }
      if (got != want)
        return std::string(routine) + " called " + std::to_string(got) + " times, expected " +
               std::to_string(want);
    }
    return {};
  }

  int n_ = 0;
  int iterations_ = 0;
  std::string dir_;
  std::string plain_;
  std::string instr_;
  std::string plain_out_;
  std::string profiles_;
  pdt::pdb::PdbFile pdb_;
  std::uint64_t calls_ = 0;
  std::vector<double> instrument_ms_;
  std::vector<double> gxx_s_;
  std::vector<double> instr_ms_;
  std::vector<double> plain_ms_;
  std::vector<double> tauprof_ms_;
};

}  // namespace

std::unique_ptr<Stage> makeProfileStage() { return std::make_unique<ProfileStage>(); }

}  // namespace perfbench
