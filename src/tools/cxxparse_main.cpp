// cxxparse: the frontend driver — parses a PDT-C++ translation unit and
// writes its program database, i.e. "C++ Front End + IL Analyzer" of the
// paper's Figure 2 pipeline in one command.
//
//   cxxparse <source.cpp>... [-I dir]... [-D name[=value]]... [-o out.pdb]
//            [-j N] [--cache-dir dir] [--cache-limit-mb N] [--cache-stats]
//            [--no-cache] [--dump-ast] [--instantiate-all]
//            [--direct-template-links]
//
// With several sources, each is compiled separately and the databases
// are merged (duplicate template instantiations eliminated), matching
// the compile-then-pdbmerge workflow of the paper. -j N compiles the
// translation units on N worker threads; the merge is always performed
// in input order, so the output is byte-identical to a serial run.
//
// --cache-dir enables the content-addressed per-TU build cache
// (docs/CACHING.md): unchanged TUs are republished from disk instead of
// recompiled, and cached/uncached/mixed runs stay byte-identical.
#include <charconv>
#include <iostream>
#include <string>
#include <vector>

#include "ast/dump.h"
#include "frontend/frontend.h"
#include "pdb/format.h"
#include "pdb/writer.h"
#include "support/trace.h"
#include "tools/driver.h"

namespace {

constexpr const char* kUsage =
    "usage: cxxparse <source.cpp>... [-I dir] [-D name[=value]] "
    "[-o out.pdb] [-j N] [--cache-dir dir] [--cache-limit-mb N] "
    "[--cache-stats[=json]] [--no-cache] [--stats[=json]] [--stats-out FILE] "
    "[--trace-out FILE] [--format=ascii|bin] [--mmap=MODE] [--dump-ast] "
    "[--instantiate-all] [--direct-template-links]\n"
    "  -j N, --jobs N      compile translation units on N worker threads\n"
    "                      (N >= 1; output is identical to a serial run)\n"
    "  --cache-dir dir     reuse per-TU results from the content-addressed\n"
    "                      build cache in dir (created if missing); output\n"
    "                      is identical to an uncached run\n"
    "  --cache-limit-mb N  after the run, evict least-recently-used cache\n"
    "                      entries until the cache is at most N MiB\n"
    "  --cache-stats       print hit/miss/store counters to stderr\n"
    "                      (--cache-stats=json for a machine-readable form)\n"
    "  --no-cache          ignore --cache-dir (compile everything)\n"
    "  --stats[=json]      per-phase timing + counter report on stderr;\n"
    "                      counters are identical at any -j and across\n"
    "                      warm/cold cache runs (docs/OBSERVABILITY.md)\n"
    "  --stats-out FILE    write the stats report to FILE\n"
    "  --trace-out FILE    write a Chrome trace_event JSON timeline to FILE\n"
    "                      (load in chrome://tracing or ui.perfetto.dev)\n"
    "  --format=FMT        output database format: ascii (default) or bin\n"
    "                      (binary PDB v2; see docs/PDB_FORMAT.md)\n"
    "  --mmap=MODE         how binary databases (e.g. cache entries) are\n"
    "                      read: auto (default), off\n";

/// Parses a -j/--jobs value: a positive decimal integer. Exits with a
/// diagnostic on 0 or non-numeric input instead of quietly misbehaving.
std::size_t parseJobs(const std::string& value) {
  std::size_t jobs = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), jobs);
  if (ec != std::errc{} || ptr != value.data() + value.size() || jobs == 0) {
    std::cerr << "cxxparse: invalid jobs value '" << value
              << "' (expected a positive integer)\n";
    std::exit(2);
  }
  return jobs;
}

/// Parses a --cache-limit-mb value: a non-negative decimal integer
/// (0 = unlimited, the default).
std::size_t parseCacheLimit(const std::string& value) {
  std::size_t mb = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), mb);
  if (ec != std::errc{} || ptr != value.data() + value.size()) {
    std::cerr << "cxxparse: invalid cache limit '" << value
              << "' (expected a size in MiB)\n";
    std::exit(2);
  }
  return mb;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> inputs;
  std::string output;
  pdt::pdb::Format format = pdt::pdb::Format::Ascii;
  bool dump_ast = false;
  bool no_cache = false;
  bool cache_stats = false;
  bool cache_stats_json = false;
  pdt::trace::ToolObservability obs;
  pdt::tools::DriverOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-I" && i + 1 < argc) {
      options.frontend.include_dirs.emplace_back(argv[++i]);
    } else if (arg.starts_with("-I")) {
      options.frontend.include_dirs.emplace_back(arg.substr(2));
    } else if (arg == "-D" && i + 1 < argc) {
      const std::string def = argv[++i];
      const auto eq = def.find('=');
      options.frontend.defines.emplace_back(def.substr(0, eq),
                                            eq == std::string::npos
                                                ? "1"
                                                : def.substr(eq + 1));
    } else if (arg.starts_with("-D")) {
      const std::string def = arg.substr(2);
      const auto eq = def.find('=');
      options.frontend.defines.emplace_back(def.substr(0, eq),
                                            eq == std::string::npos
                                                ? "1"
                                                : def.substr(eq + 1));
    } else if (arg == "-o" && i + 1 < argc) {
      output = argv[++i];
    } else if ((arg == "-j" || arg == "--jobs") && i + 1 < argc) {
      options.jobs = parseJobs(argv[++i]);
    } else if (arg.starts_with("-j") && arg != "-j") {
      options.jobs = parseJobs(arg.substr(2));
    } else if (arg.starts_with("--jobs=")) {
      options.jobs = parseJobs(arg.substr(7));
    } else if (arg == "-j" || arg == "--jobs") {
      std::cerr << "cxxparse: " << arg << " requires a value\n";
      return 2;
    } else if (arg == "--cache-dir" && i + 1 < argc) {
      options.cache.dir = argv[++i];
    } else if (arg.starts_with("--cache-dir=")) {
      options.cache.dir = arg.substr(12);
    } else if (arg == "--cache-limit-mb" && i + 1 < argc) {
      options.cache.limit_mb = parseCacheLimit(argv[++i]);
    } else if (arg.starts_with("--cache-limit-mb=")) {
      options.cache.limit_mb = parseCacheLimit(arg.substr(17));
    } else if (arg == "--cache-stats" || arg == "--cache-stats=text") {
      cache_stats = true;
      cache_stats_json = false;
    } else if (arg == "--cache-stats=json") {
      cache_stats = true;
      cache_stats_json = true;
    } else if (arg == "--no-cache") {
      no_cache = true;
    } else if (arg == "--cache-dir" || arg == "--cache-limit-mb") {
      std::cerr << "cxxparse: " << arg << " requires a value\n";
      return 2;
    } else if (arg.starts_with("--format=")) {
      const auto parsed = pdt::pdb::formatFromName(arg.substr(9));
      if (!parsed) {
        std::cerr << "cxxparse: unknown format '" << arg.substr(9)
                  << "' (expected ascii or bin)\n";
        return 2;
      }
      format = *parsed;
    } else if (std::string mmap_err; pdt::pdb::parseMmapFlag(arg, mmap_err)) {
      if (!mmap_err.empty()) {
        std::cerr << "cxxparse: " << mmap_err << '\n';
        return 2;
      }
    } else if (arg == "--dump-ast") {
      dump_ast = true;
    } else if (arg == "--instantiate-all") {
      options.frontend.sema.used_mode = false;
    } else if (arg == "--direct-template-links") {
      options.frontend.sema.record_specialization_origin = true;
      options.analyzer.use_direct_template_links = true;
    } else if (arg == "-h" || arg == "--help") {
      std::cout << kUsage;
      return 0;
    } else if (!arg.starts_with("-")) {
      inputs.push_back(arg);
    } else {
      bool used_next = false;
      std::string error;
      if (obs.parseFlag(arg, i + 1 < argc ? argv[i + 1] : nullptr, used_next,
                        error)) {
        if (!error.empty()) {
          std::cerr << "cxxparse: " << error << '\n';
          return 2;
        }
        if (used_next) ++i;
        continue;
      }
      std::cerr << "cxxparse: unknown option '" << arg << "'\n";
      return 2;
    }
  }
  if (inputs.empty()) {
    std::cerr << "cxxparse: no input file\n";
    return 2;
  }
  if (output.empty()) {
    output = inputs.front();
    if (const auto dot = output.find_last_of('.'); dot != std::string::npos)
      output.resize(dot);
    output += ".pdb";
  }

  if (dump_ast) {
    // AST dumping stays serial: it is a debugging aid and writes straight
    // to stdout per TU.
    for (const std::string& input : inputs) {
      pdt::SourceManager sm;
      pdt::DiagnosticEngine diags;
      pdt::frontend::Frontend frontend(sm, diags, options.frontend);
      auto result = frontend.compileFile(input);
      diags.print(std::cerr, sm);
      if (!result.success) return 1;
      pdt::ast::dump(*result.ast, std::cout);
    }
    return 0;
  }

  if (no_cache) options.cache = {};
  obs.begin();
  const pdt::tools::DriverResult result =
      pdt::tools::compileAndMerge(inputs, options);
  std::cerr << result.diagnostics;
  if (cache_stats) {
    if (cache_stats_json) {
      // The JSON form goes through the shared stats layer; the text form
      // below stays byte-for-byte what scripts have always parsed.
      pdt::trace::StatsReport report("cxxparse");
      report.addSection("cache",
                        pdt::tools::cacheStatsSection(result.cache_stats));
      report.renderJson(std::cerr);
    } else {
      std::cerr << pdt::tools::cacheStatsText(result.cache_stats) << '\n';
    }
  }
  const auto emit_observability = [&] {
    if (!obs.wanted()) return true;
    pdt::trace::StatsReport report("cxxparse");
    // Driver counters (per-TU blocks summed in input order) plus whatever
    // was counted outside a TU scope: the input-order merge and the final
    // database write.
    pdt::trace::CounterBlock totals = result.counters;
    totals += pdt::trace::globalCounters();
    report.setCounters(std::move(totals));
    if (!options.cache.dir.empty())
      report.addSection("cache",
                        pdt::tools::cacheStatsSection(result.cache_stats));
    return obs.finish(report);
  };
  if (!result.success) {
    emit_observability();
    return 1;
  }

  if (!options.cache.dir.empty() && options.cache.limit_mb > 0) {
    // Post-run LRU sweep: trims the cache back under the cap after the
    // fresh entries from this run have been published.
    const pdt::tools::BuildCache cache(options.cache);
    cache.sweep();
  }

  if (!pdt::pdb::writeFile(result.pdb->raw(), output, format)) {
    std::cerr << "cxxparse: cannot write '" << output << "'\n";
    return 1;
  }
  std::cout << "wrote " << output << " (" << result.pdb->raw().itemCount()
            << " items from " << inputs.size() << " translation unit"
            << (inputs.size() == 1 ? "" : "s") << ")\n";
  return emit_observability() ? 0 : 1;
}
