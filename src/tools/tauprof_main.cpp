// tauprof: merges TAU per-thread binary profile files (written by the
// measurement runtime as profile.<node>.<context>.<thread>) into one
// aggregate report — the cross-process role pprof plays in the paper's
// workflow — and can attach the merged dynamic profile to a program
// database as a dp section so pdbtree/pdbduct join static structure with
// measured cost.
//
// The merge is deterministic: the same input files produce byte-identical
// output regardless of argument order.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "pdb/snapshot.h"
#include "pdb/validate.h"
#include "tau/profile_merge.h"

namespace {

constexpr const char* kUsage =
    "usage: tauprof <profile.N.C.T>... [options]\n"
    "  -o FILE          write the merged report to FILE (default: stdout)\n"
    "  --format=FMT     report format: text (default) | csv\n"
    "  --pdb IN.pdb     link merged entries against IN.pdb's routines\n"
    "  --db-out FILE    write the database (IN.pdb when --pdb is given,\n"
    "                   else a fresh one) with the merged profile attached\n"
    "                   as a dp section\n"
    "  --db-format=FMT  database format for --db-out: ascii (default) | bin\n"
    "  --mmap=MODE      --pdb input mapping: auto (default), off\n"
    "exit codes: 0 ok, 2 usage error, 3 invalid input\n";

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> inputs;
  std::string report_out;
  std::string report_format = "text";
  std::string pdb_in;
  std::string db_out;
  pdt::pdb::Format db_format = pdt::pdb::Format::Ascii;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-o" && i + 1 < argc) {
      report_out = argv[++i];
    } else if (arg.rfind("--format=", 0) == 0) {
      report_format = arg.substr(9);
      if (report_format != "text" && report_format != "csv") {
        std::cerr << "tauprof: unknown format '" << report_format << "'\n"
                  << kUsage;
        return 2;
      }
    } else if (arg == "--pdb" && i + 1 < argc) {
      pdb_in = argv[++i];
    } else if (arg == "--db-out" && i + 1 < argc) {
      db_out = argv[++i];
    } else if (arg.rfind("--db-format=", 0) == 0) {
      const auto fmt = pdt::pdb::formatFromName(arg.substr(12));
      if (!fmt) {
        std::cerr << "tauprof: unknown database format '" << arg.substr(12)
                  << "' (expected ascii or bin)\n";
        return 2;
      }
      db_format = *fmt;
    } else if (std::string mmap_err; pdt::pdb::parseMmapFlag(arg, mmap_err)) {
      if (!mmap_err.empty()) {
        std::cerr << "tauprof: " << mmap_err << '\n';
        return 2;
      }
    } else if (arg == "-h" || arg == "--help") {
      std::cout << kUsage;
      return 0;
    } else if (!arg.starts_with("-")) {
      inputs.push_back(arg);
    } else {
      std::cerr << "tauprof: unknown option '" << arg << "'\n" << kUsage;
      return 2;
    }
  }
  if (inputs.empty()) {
    std::cerr << kUsage;
    return 2;
  }
  if (!pdb_in.empty() && db_out.empty()) {
    std::cerr << "tauprof: --pdb without --db-out has no effect; pass "
                 "--db-out FILE\n";
    return 2;
  }

  std::vector<pdt::tau::ThreadProfile> profiles;
  profiles.reserve(inputs.size());
  for (const std::string& path : inputs) {
    std::string error;
    auto profile = pdt::tau::readThreadProfile(path, &error);
    if (!profile) {
      std::cerr << "tauprof: " << error << '\n';
      return 3;
    }
    profiles.push_back(std::move(*profile));
  }
  const pdt::tau::MergedProfile merged =
      pdt::tau::mergeThreadProfiles(profiles);

  const auto render = [&](std::ostream& os) {
    if (report_format == "csv")
      pdt::tau::renderMergedCsv(merged, os);
    else
      pdt::tau::renderMergedProfile(merged, os);
  };
  if (report_out.empty()) {
    render(std::cout);
  } else {
    std::ofstream out(report_out);
    if (!out) {
      std::cerr << "tauprof: cannot write '" << report_out << "'\n";
      return 3;
    }
    render(out);
  }

  if (!db_out.empty()) {
    pdt::pdb::PdbFile pdb;
    if (!pdb_in.empty()) {
      auto read = pdt::pdb::open(pdb_in);
      if (!read.opened) {
        std::cerr << "tauprof: cannot open '" << pdb_in << "'\n";
        return 3;
      }
      if (!read.ok()) {
        std::cerr << "tauprof: " << pdb_in << ": " << read.errors.front()
                  << '\n';
        return 3;
      }
      pdb = pdt::pdb::releasePdb(std::move(read.snapshot));
    }
    const std::size_t linked = pdt::tau::attachDynProfSection(merged, pdb);
    if (!pdt::pdb::writeFile(pdb, db_out, db_format)) {
      std::cerr << "tauprof: cannot write '" << db_out << "'\n";
      return 3;
    }
    std::cerr << "tauprof: attached " << merged.entries.size()
              << " dp entries (" << linked << " linked to routines) to "
              << db_out << '\n';
  }
  return 0;
}
