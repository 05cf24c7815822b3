// pdbconv: converts program databases between storage formats and to a
// more readable dump (paper Table 2: "converts .pdb files to a
// standardized form"). Without --to, prints the human-readable dump;
// with --to=ascii|bin, rewrites the database in that storage format.
// Input format is auto-detected, so ascii->bin->ascii round trips are
// byte-identical.
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "pdb/snapshot.h"
#include "tools/tools.h"

namespace {

constexpr const char* kUsage =
    "usage: pdbconv <file.pdb> [--to=ascii|bin] [-o <out.pdb>] [--mmap=MODE]\n"
    "  (no --to)      print the readable dump to stdout / -o file\n"
    "  --to=FORMAT    rewrite the database in FORMAT (ascii or bin);\n"
    "                 the input's own format is auto-detected\n"
    "  -o FILE        write the result to FILE instead of stdout\n"
    "  --mmap=MODE    input mapping: auto (default), off\n";

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::string output;
  std::optional<pdt::pdb::Format> to;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-o" && i + 1 < argc) {
      output = argv[++i];
    } else if (arg.starts_with("--to=")) {
      to = pdt::pdb::formatFromName(arg.substr(5));
      if (!to) {
        std::cerr << "pdbconv: unknown format '" << arg.substr(5)
                  << "' (expected ascii or bin)\n";
        return 2;
      }
    } else if (std::string mmap_err; pdt::pdb::parseMmapFlag(arg, mmap_err)) {
      if (!mmap_err.empty()) {
        std::cerr << "pdbconv: " << mmap_err << '\n';
        return 2;
      }
    } else if (arg == "-h" || arg == "--help") {
      std::cout << kUsage;
      return 0;
    } else if (!arg.starts_with("-") && input.empty()) {
      input = arg;
    } else {
      std::cerr << kUsage;
      return 2;
    }
  }
  if (input.empty()) {
    std::cerr << kUsage;
    return 2;
  }

  if (to) {
    // Format conversion streams through the zero-copy reader: the typed
    // model aliases the (usually mmap'd) input buffer and the DUCTAPE
    // object graph is never built, so peak memory is roughly the input
    // size instead of input + graph (bench/bench_mmap tracks this).
    const pdt::pdb::OpenResult read = pdt::pdb::open(input);
    if (!read.opened) {
      std::cerr << "pdbconv: cannot open '" << input << "'\n";
      return 1;
    }
    if (!read.ok()) {
      std::cerr << "pdbconv: " << input << ": " << read.errors.front() << '\n';
      return 1;
    }
    const pdt::pdb::PdbFile& pdb = read.snapshot->pdb();
    if (output.empty()) {
      // A binary database on a terminal helps nobody; require -o there.
      if (*to == pdt::pdb::Format::Binary) {
        std::cerr << "pdbconv: --to=bin requires -o FILE\n";
        return 2;
      }
      std::cout << pdt::pdb::writeString(pdb, *to);
      return 0;
    }
    if (!pdt::pdb::writeFile(pdb, output, *to)) {
      std::cerr << "pdbconv: cannot write '" << output << "'\n";
      return 1;
    }
    return 0;
  }

  const pdt::ductape::PDB pdb = pdt::ductape::PDB::read(input);
  if (!pdb.valid()) {
    std::cerr << "pdbconv: " << pdb.errorMessage() << '\n';
    return 1;
  }

  if (!output.empty()) {
    std::ofstream out(output);
    if (!out) {
      std::cerr << "pdbconv: cannot write '" << output << "'\n";
      return 1;
    }
    pdt::tools::pdbconv(pdb, out);
    return out ? 0 : 1;
  }
  pdt::tools::pdbconv(pdb, std::cout);
  return 0;
}
