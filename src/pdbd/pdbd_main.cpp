// pdbd: resident PDB query daemon.
//
// Loads a database once into an immutable pdb::Snapshot, prewarms the
// shared query::Index over it, and answers pdbq clients over a Unix
// socket — the query text is byte-identical to the one-shot tools
// (pdbtree, pdbduct, pdbcheck) because both sides render through
// src/query. A "swap" request hot-swaps to a regenerated database with
// one atomic pointer store; in-flight queries finish on the generation
// they started on. Protocol: docs/PDBD.md.
#include <iostream>
#include <string>

#include "pdbd/server.h"

namespace {

constexpr const char* kUsage =
    "usage: pdbd <file.pdb> --socket PATH [--mmap=MODE]\n"
    "  --socket PATH    Unix socket to listen on (required)\n"
    "  --mmap=MODE      input mapping: auto (default), off\n"
    "Serves lookup/includes/hierarchy/calltree/profile/defuse/check\n"
    "queries over line-delimited JSON; see docs/PDBD.md. Runs until a\n"
    "client sends {\"q\": \"shutdown\"}.\n"
    "exit codes: 0 clean shutdown, 1 cannot load or listen, 2 usage\n";

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::string socket_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (std::string mmap_err; pdt::pdb::parseMmapFlag(arg, mmap_err)) {
      if (!mmap_err.empty()) {
        std::cerr << "pdbd: " << mmap_err << '\n';
        return 2;
      }
    } else if (arg == "-h" || arg == "--help") {
      std::cout << kUsage;
      return 0;
    } else if (!arg.starts_with("-") && input.empty()) {
      input = arg;
    } else {
      std::cerr << "pdbd: unknown option '" << arg << "'\n" << kUsage;
      return 2;
    }
  }
  if (input.empty() || socket_path.empty()) {
    std::cerr << kUsage;
    return 2;
  }

  pdt::pdbd::Service service;
  std::string error;
  if (!service.load(input, error)) {
    std::cerr << "pdbd: " << error << '\n';
    return 1;
  }
  std::cerr << "pdbd: serving '" << input << "' generation "
            << service.current()->id << '\n';
  return pdt::pdbd::runServer(service, socket_path, std::cerr);
}
