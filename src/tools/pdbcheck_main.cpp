// pdbcheck: rule-driven whole-program static analyzer over PDB databases.
//
// Loads one or more PDB files through DUCTAPE (merging them first, so the
// checks see the whole program the way pdbmerge's cross-TU databases
// describe it), validates referential integrity, and runs the registered
// rules over a shared AnalysisContext.
//
// Exit codes: 0 clean, 1 findings (warnings or errors), 2 usage error,
// 3 invalid input (unreadable file or dangling item references).
#include <charconv>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/checker.h"
#include "analysis/rules.h"
#include "pdb/validate.h"
#include "support/trace.h"
#include "tools/tools.h"

namespace {

constexpr const char* kUsage =
    "usage: pdbcheck <in.pdb>... [options]\n"
    "  --checks=LIST    comma-separated rule selection: names, 'all', and\n"
    "                   '-name' exclusions (default: all)\n"
    "  --format=FMT     text | json (SARIF-shaped; see docs/PDBCHECK.md)\n"
    "  -j N, --jobs N   run independent rules on N worker threads; output\n"
    "                   is byte-identical to -j 1\n"
    "  --list-checks    print the rule catalog and exit\n"
    "  --list-rules     print each rule's name, default severity, and the\n"
    "                   PDB sections it reads, then exit\n"
    "  --stats[=json]   finding counters + per-rule timing on stderr\n"
    "  --stats-out FILE write the stats report to FILE\n"
    "  --trace-out FILE write a Chrome trace_event JSON timeline to FILE\n"
    "  --mmap=MODE      input mapping: auto (default), off\n"
    "exit codes: 0 clean, 1 findings, 2 usage error, 3 invalid input\n";

/// Renders a section mask as the section prefixes it selects ("so ro du").
std::string sectionsText(pdt::pdb::Sections sections) {
  std::string out;
  for (int k = 0; k <= static_cast<int>(pdt::pdb::ItemKind::DynProf); ++k) {
    const auto kind = static_cast<pdt::pdb::ItemKind>(k);
    if ((sections & pdt::pdb::sectionOf(kind)) == pdt::pdb::Sections{})
      continue;
    if (!out.empty()) out += ' ';
    out += pdt::pdb::prefixOf(kind);
  }
  return out;
}

std::size_t parseJobs(const std::string& value) {
  std::size_t jobs = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), jobs);
  if (ec != std::errc{} || ptr != value.data() + value.size() || jobs == 0) {
    std::cerr << "pdbcheck: invalid jobs value '" << value
              << "' (expected a positive integer)\n";
    std::exit(2);
  }
  return jobs;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  pdt::analysis::CheckOptions options;
  pdt::trace::ToolObservability obs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--checks=", 0) == 0) {
      options.checks = arg.substr(9);
    } else if (arg.rfind("--format=", 0) == 0) {
      const std::string fmt = arg.substr(9);
      if (fmt == "text") {
        options.format = pdt::analysis::CheckOptions::Format::Text;
      } else if (fmt == "json") {
        options.format = pdt::analysis::CheckOptions::Format::Json;
      } else {
        std::cerr << "pdbcheck: unknown format '" << fmt << "'\n" << kUsage;
        return 2;
      }
    } else if ((arg == "-j" || arg == "--jobs") && i + 1 < argc) {
      options.jobs = parseJobs(argv[++i]);
    } else if (arg.rfind("-j", 0) == 0 && arg != "-j") {
      options.jobs = parseJobs(arg.substr(2));
    } else if (arg == "--list-checks") {
      for (const pdt::analysis::Rule* rule : pdt::analysis::allRules()) {
        std::cout << rule->name() << "\n    " << rule->description() << '\n';
      }
      return 0;
    } else if (arg == "--list-rules") {
      for (const pdt::analysis::Rule* rule : pdt::analysis::allRules()) {
        std::cout << rule->name() << "  ["
                  << pdt::analysis::severityName(rule->defaultSeverity())
                  << "]  sections: " << sectionsText(rule->sections())
                  << "\n    " << rule->description() << '\n';
      }
      return 0;
    } else if (std::string mmap_err; pdt::pdb::parseMmapFlag(arg, mmap_err)) {
      if (!mmap_err.empty()) {
        std::cerr << "pdbcheck: " << mmap_err << '\n';
        return 2;
      }
    } else if (arg == "-h" || arg == "--help") {
      std::cout << kUsage;
      return 0;
    } else if (!arg.starts_with("-")) {
      paths.push_back(arg);
    } else {
      bool used_next = false;
      std::string error;
      if (obs.parseFlag(arg, i + 1 < argc ? argv[i + 1] : nullptr, used_next,
                        error)) {
        if (!error.empty()) {
          std::cerr << "pdbcheck: " << error << '\n';
          return 2;
        }
        if (used_next) ++i;
        continue;
      }
      std::cerr << "pdbcheck: unknown option '" << arg << "'\n" << kUsage;
      return 2;
    }
  }
  if (paths.empty()) {
    std::cerr << kUsage;
    return 2;
  }
  obs.begin();

  // The selected rules declare which database sections they need; the
  // inputs are read with exactly that mask (today: everything but macros)
  // and validation is told what was deliberately left out. An invalid
  // --checks spec falls back to a full read — runChecks reports it.
  std::string select_error;
  const std::vector<const pdt::analysis::Rule*> selected =
      pdt::analysis::selectRules(options.checks, &select_error);
  const pdt::pdb::Sections sections =
      select_error.empty() ? pdt::analysis::requiredSections(selected)
                           : pdt::pdb::Sections::All;

  std::vector<pdt::ductape::PDB> inputs;
  inputs.reserve(paths.size());
  for (const std::string& path : paths) {
    pdt::ductape::PDB pdb = pdt::ductape::PDB::read(path, sections);
    if (!pdb.valid()) {
      std::cerr << "pdbcheck: " << pdb.errorMessage() << '\n';
      return 3;
    }
    const std::vector<std::string> errors =
        pdt::pdb::validate(pdb.raw(), sections);
    if (!errors.empty()) {
      for (const std::string& e : errors)
        std::cerr << "pdbcheck: " << path << ": " << e << '\n';
      std::cerr << "pdbcheck: '" << path
                << "' fails validation; refusing to analyze\n";
      return 3;
    }
    inputs.push_back(std::move(pdb));
  }

  const pdt::ductape::PDB merged = pdt::tools::pdbmerge(std::move(inputs));
  const pdt::analysis::CheckResult result =
      pdt::analysis::runChecks(merged, options);
  if (!result.ok()) {
    std::cerr << "pdbcheck: " << result.error << '\n';
    return 2;
  }
  pdt::analysis::render(result, options, std::cout);
  if (obs.wanted()) {
    pdt::trace::StatsReport report("pdbcheck");
    report.setCounters(pdt::trace::globalCounters());
    if (!obs.finish(report)) return 2;
  }
  return result.hasFindings() ? 1 : 0;
}
