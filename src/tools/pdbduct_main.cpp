// pdbduct: interactive def-use queries over PDB du streams.
//
// Answers "which definitions reach this use?" and "which uses observe
// this definition?" with the same reaching-definitions engine the
// pdbcheck dataflow rules run on (src/analysis/dataflow.h), so a
// diagnostic from pdbcheck can be replayed and explored here.
//
// The queries touch only routine identities, source positions, and the
// du streams, so inputs are read with a lazy section mask that leaves
// types, templates, and macros on disk (visible as pdb.sections_skipped
// in --stats); the storage format (ASCII or binary v2) is auto-detected
// per input.
#include <charconv>
#include <iostream>
#include <string>
#include <vector>

#include "pdb/pdb.h"
#include "query/render.h"
#include "support/trace.h"
#include "tools/tools.h"

namespace {

using pdt::query::DefUseQuery;

constexpr const char* kUsage =
    "usage: pdbduct <in.pdb>... [options]\n"
    "  --routine NAME    restrict to routines named NAME (plain or\n"
    "                    fully qualified); default: all routines\n"
    "  --var NAME        restrict to events of this variable path\n"
    "                    ('x', 'this.top')\n"
    "  --at LINE[:COL]   restrict to events at this source position\n"
    "  --defs            for each selected use, print the definitions\n"
    "                    that reach it\n"
    "  --uses            for each selected definition, print the uses\n"
    "                    that observe it\n"
    "  (without --defs/--uses: one summary line per du stream)\n"
    "  --stats[=json]    counter + phase timing report on stderr\n"
    "  --stats-out FILE  write the stats report to FILE\n"
    "  --trace-out FILE  write a Chrome trace_event JSON timeline to FILE\n"
    "  --mmap=MODE       input mapping: auto (default), off\n"
    "exit codes: 0 ok, 2 usage error, 3 invalid input\n";

bool parseAt(const std::string& value, DefUseQuery& query) {
  const std::size_t colon = value.find(':');
  const std::string line = value.substr(0, colon);
  int parsed = 0;
  auto [ptr, ec] =
      std::from_chars(line.data(), line.data() + line.size(), parsed);
  if (ec != std::errc{} || ptr != line.data() + line.size() || parsed <= 0)
    return false;
  query.line = parsed;
  if (colon == std::string::npos) return true;
  const std::string col = value.substr(colon + 1);
  auto [cptr, cec] = std::from_chars(col.data(), col.data() + col.size(),
                                     parsed);
  if (cec != std::errc{} || cptr != col.data() + col.size() || parsed <= 0)
    return false;
  query.col = parsed;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  DefUseQuery query;
  pdt::trace::ToolObservability obs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--routine" && i + 1 < argc) {
      query.routine = argv[++i];
    } else if (arg == "--var" && i + 1 < argc) {
      query.var = argv[++i];
    } else if (arg == "--at" && i + 1 < argc) {
      if (!parseAt(argv[++i], query)) {
        std::cerr << "pdbduct: invalid --at position '" << argv[i]
                  << "' (expected LINE[:COL])\n";
        return 2;
      }
    } else if (arg == "--defs") {
      query.defs = true;
    } else if (arg == "--uses") {
      query.uses = true;
    } else if (std::string mmap_err; pdt::pdb::parseMmapFlag(arg, mmap_err)) {
      if (!mmap_err.empty()) {
        std::cerr << "pdbduct: " << mmap_err << '\n';
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
          std::cerr << "pdbduct: " << error << '\n';
          return 2;
        }
        if (used_next) ++i;
        continue;
      }
      std::cerr << "pdbduct: unknown option '" << arg << "'\n" << kUsage;
      return 2;
    }
  }
  if (paths.empty()) {
    std::cerr << kUsage;
    return 2;
  }
  obs.begin();

  // The queries only render routine identities (routine/class/namespace
  // names), positions (source files), and the streams themselves; the
  // type, template, and macro sections stay on disk.
  constexpr pdt::pdb::Sections kMask =
      pdt::pdb::Sections::SourceFiles | pdt::pdb::Sections::Routines |
      pdt::pdb::Sections::Classes | pdt::pdb::Sections::Namespaces |
      pdt::pdb::Sections::DefUses;

  std::vector<pdt::ductape::PDB> inputs;
  inputs.reserve(paths.size());
  for (const std::string& path : paths) {
    pdt::ductape::PDB pdb = pdt::ductape::PDB::read(path, kMask);
    if (!pdb.valid()) {
      std::cerr << "pdbduct: " << pdb.errorMessage() << '\n';
      return 3;
    }
    inputs.push_back(std::move(pdb));
  }
  const pdt::ductape::PDB merged = pdt::tools::pdbmerge(std::move(inputs));

  const pdt::query::Index index(merged);
  pdt::query::renderDefUse(index, query, std::cout);

  if (obs.wanted()) {
    pdt::trace::StatsReport report("pdbduct");
    report.setCounters(pdt::trace::globalCounters());
    if (!obs.finish(report)) return 2;
  }
  return 0;
}
