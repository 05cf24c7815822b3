// pdbhtml: creates web-based documentation that enables navigation of
// code via HTML links (paper Table 2).
#include <fstream>
#include <iostream>
#include <string>

#include "support/trace.h"
#include "tools/tools.h"

namespace {

constexpr const char* kUsage =
    "usage: pdbhtml <file.pdb> [out.html]\n"
    "               [--stats[=json]] [--stats-out FILE] [--trace-out FILE]\n"
    "  --stats[=json]    counter + phase timing report on stderr\n"
    "  --stats-out FILE  write the stats report to FILE\n"
    "  --trace-out FILE  write a Chrome trace_event JSON timeline to FILE\n"
    "  --mmap=MODE       input mapping: auto (default), off\n";

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::string output;
  pdt::trace::ToolObservability obs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (std::string mmap_err; pdt::pdb::parseMmapFlag(arg, mmap_err)) {
      if (!mmap_err.empty()) {
        std::cerr << "pdbhtml: " << mmap_err << '\n';
        return 2;
      }
    } else if (arg == "-h" || arg == "--help") {
      std::cout << kUsage;
      return 0;
    } else if (!arg.starts_with("-")) {
      if (input.empty()) {
        input = arg;
      } else if (output.empty()) {
        output = arg;
      } else {
        std::cerr << kUsage;
        return 2;
      }
    } else {
      bool used_next = false;
      std::string error;
      if (obs.parseFlag(arg, i + 1 < argc ? argv[i + 1] : nullptr, used_next,
                        error)) {
        if (!error.empty()) {
          std::cerr << "pdbhtml: " << error << '\n';
          return 2;
        }
        if (used_next) ++i;
        continue;
      }
      std::cerr << kUsage;
      return 2;
    }
  }
  if (input.empty()) {
    std::cerr << kUsage;
    return 2;
  }
  obs.begin();

  const pdt::ductape::PDB pdb = pdt::ductape::PDB::read(input);
  if (!pdb.valid()) {
    std::cerr << "pdbhtml: " << pdb.errorMessage() << '\n';
    return 1;
  }
  if (!output.empty()) {
    std::ofstream out(output);
    if (!out) {
      std::cerr << "pdbhtml: cannot write '" << output << "'\n";
      return 1;
    }
    pdt::tools::pdbhtml(pdb, out, input);
  } else {
    pdt::tools::pdbhtml(pdb, std::cout, input);
  }
  if (obs.wanted()) {
    pdt::trace::StatsReport report("pdbhtml");
    report.setCounters(pdt::trace::globalCounters());
    if (!obs.finish(report)) return 1;
  }
  return 0;
}
