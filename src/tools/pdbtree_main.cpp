// pdbtree: displays file inclusion, class hierarchy, and call graph
// trees (paper Table 2 and Figure 5).
//
// Each tree needs only a slice of the database, so pdbtree asks the
// reader for exactly the sections its mode touches (--calls never loads
// the type section, the largest part of real databases); the output is
// byte-identical to a full load because the DUCTAPE graph guards every
// cross-section reference.
#include <iostream>
#include <string>

#include "support/trace.h"
#include "tools/tools.h"

namespace {

constexpr const char* kUsage =
    "usage: pdbtree <file.pdb> [--includes|--classes|--calls|--profile]\n"
    "               [--stats[=json]] [--stats-out FILE] [--trace-out FILE]\n"
    "  --includes        source file inclusion tree only\n"
    "  --classes         class hierarchy only\n"
    "  --calls           static call tree only (paper Figure 5)\n"
    "  --profile         dp section (tauprof merge) joined with routines\n"
    "  --stats[=json]    counter + phase timing report on stderr\n"
    "  --stats-out FILE  write the stats report to FILE\n"
    "  --trace-out FILE  write a Chrome trace_event JSON timeline to FILE\n"
    "  --mmap=MODE       input mapping: auto (default), off\n";

using pdt::pdb::Sections;

/// The sections one tree actually renders: names come from the items
/// themselves, fullName() from parent classes/namespaces, and locations
/// from source files. Types, templates, and macros are never shown.
Sections sectionsForMode(const std::string& mode) {
  if (mode == "--includes") return Sections::SourceFiles;
  if (mode == "--classes")
    return Sections::Classes | Sections::SourceFiles | Sections::Namespaces;
  if (mode == "--calls")
    return Sections::Routines | Sections::Classes | Sections::Namespaces;
  if (mode == "--profile")
    return Sections::DynProfs | Sections::Routines | Sections::Classes |
           Sections::Namespaces | Sections::SourceFiles;
  // All three trees.
  return Sections::SourceFiles | Sections::Routines | Sections::Classes |
         Sections::Namespaces;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::string mode;
  pdt::trace::ToolObservability obs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--includes" || arg == "--classes" || arg == "--calls" ||
        arg == "--profile") {
      if (!mode.empty()) {
        std::cerr << kUsage;
        return 2;
      }
      mode = arg;
    } else if (std::string mmap_err; pdt::pdb::parseMmapFlag(arg, mmap_err)) {
      if (!mmap_err.empty()) {
        std::cerr << "pdbtree: " << mmap_err << '\n';
        return 2;
      }
    } else if (arg == "-h" || arg == "--help") {
      std::cout << kUsage;
      return 0;
    } else if (!arg.starts_with("-") && input.empty()) {
      input = arg;
    } else {
      bool used_next = false;
      std::string error;
      if (obs.parseFlag(arg, i + 1 < argc ? argv[i + 1] : nullptr, used_next,
                        error)) {
        if (!error.empty()) {
          std::cerr << "pdbtree: " << error << '\n';
          return 2;
        }
        if (used_next) ++i;
        continue;
      }
      std::cerr << "pdbtree: unknown mode '" << arg << "'\n";
      return 2;
    }
  }
  if (input.empty()) {
    std::cerr << kUsage;
    return 2;
  }
  obs.begin();

  const pdt::ductape::PDB pdb =
      pdt::ductape::PDB::read(input, sectionsForMode(mode));
  if (!pdb.valid()) {
    std::cerr << "pdbtree: " << pdb.errorMessage() << '\n';
    return 1;
  }
  using pdt::tools::TreeKind;
  if (mode.empty()) {
    pdt::tools::pdbtree(pdb, TreeKind::Includes, std::cout);
    std::cout << '\n';
    pdt::tools::pdbtree(pdb, TreeKind::ClassHierarchy, std::cout);
    std::cout << '\n';
    pdt::tools::pdbtree(pdb, TreeKind::CallGraph, std::cout);
  } else if (mode == "--includes") {
    pdt::tools::pdbtree(pdb, TreeKind::Includes, std::cout);
  } else if (mode == "--classes") {
    pdt::tools::pdbtree(pdb, TreeKind::ClassHierarchy, std::cout);
  } else if (mode == "--profile") {
    pdt::tools::pdbtree(pdb, TreeKind::Profile, std::cout);
  } else {
    pdt::tools::pdbtree(pdb, TreeKind::CallGraph, std::cout);
  }
  if (obs.wanted()) {
    pdt::trace::StatsReport report("pdbtree");
    report.setCounters(pdt::trace::globalCounters());
    if (!obs.finish(report)) return 1;
  }
  return 0;
}
