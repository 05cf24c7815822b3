#include "tools/build_cache.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>
#include <utility>

#include "lex/preprocessor.h"
#include "pdb/binary_writer.h"
#include "pdb/format.h"
#include "pdb/snapshot.h"
#include "pdb/validate.h"
#include "support/hash.h"
#include "support/text.h"

namespace pdt::tools {

namespace fs = std::filesystem;

namespace {

/// Seconds since the epoch; the manifest stamp. Wall-clock is fine here:
/// stamps order evictions, they never influence compiler output.
std::uint64_t nowStamp() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// Writes `text` to `path` atomically: temp file in the same directory,
/// then rename (POSIX rename within a directory is atomic, so concurrent
/// writers — the -j N workers, or two cxxparse processes — can never
/// expose a partial entry). Returns false on any I/O failure.
bool atomicWrite(const fs::path& path, const std::string& text) {
  static std::atomic<std::uint64_t> counter{0};
  fs::path tmp = path;
  tmp += ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) return false;
    os.write(text.data(), static_cast<std::streamsize>(text.size()));
    if (!os.good()) {
      os.close();
      std::error_code ec;
      fs::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

/// One parsed manifest: "key|stamp|size|source|dep;dep;..." (paths that
/// contain '|' or ';' are not supported by the cache and scan unkeyed).
struct Manifest {
  std::string key;
  std::uint64_t stamp = 0;
  std::uint64_t size = 0;
  std::string source;
  std::vector<std::string> deps;
};

std::string renderManifest(const CacheKey& key, std::uint64_t stamp,
                           std::uint64_t size) {
  std::string line;
  std::size_t dep_bytes = 0;
  for (const std::string& d : key.deps) dep_bytes += d.size() + 1;
  line.reserve(key.hex.size() + key.source.size() + dep_bytes + 48);
  line += key.hex;
  line += '|';
  line += std::to_string(stamp);
  line += '|';
  line += std::to_string(size);
  line += '|';
  line += key.source;
  line += '|';
  for (std::size_t i = 0; i < key.deps.size(); ++i) {
    if (i > 0) line += ';';
    line += key.deps[i];
  }
  line += '\n';
  return line;
}

std::optional<Manifest> parseManifest(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  std::string line;
  if (!std::getline(is, line)) return std::nullopt;
  const auto fields = split(line, '|');
  if (fields.size() != 5) return std::nullopt;
  Manifest m;
  m.key = std::string(fields[0]);
  m.source = std::string(fields[3]);
  // Stamps exceed 32 bits, so text.h's parseUint is too narrow here.
  const auto parse_u64 = [](std::string_view text, std::uint64_t& out) {
    if (text.empty()) return false;
    out = 0;
    for (const char c : text) {
      if (c < '0' || c > '9') return false;
      out = out * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return true;
  };
  if (!parse_u64(fields[1], m.stamp) || !parse_u64(fields[2], m.size))
    return std::nullopt;
  for (const auto dep : split(fields[4], ';'))
    if (!dep.empty()) m.deps.emplace_back(dep);
  return m;
}

void removeEntryFiles(const fs::path& pdb_path, const fs::path& manifest_path,
                      const fs::path& stats_path) {
  std::error_code ec;
  fs::remove(pdb_path, ec);
  fs::remove(manifest_path, ec);
  fs::remove(stats_path, ec);
}

std::optional<std::string> slurpFile(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  std::ostringstream ss;
  ss << is.rdbuf();
  return std::move(ss).str();
}

}  // namespace

std::string cacheStatsText(const CacheStats& stats) {
  std::string line = "cache: ";
  line += std::to_string(stats.hits);
  line += stats.hits == 1 ? " hit, " : " hits, ";
  line += std::to_string(stats.misses);
  line += stats.misses == 1 ? " miss, " : " misses, ";
  line += std::to_string(stats.stores);
  line += " stored, ";
  line += std::to_string(stats.evictions);
  line += " evicted, ";
  line += std::to_string(stats.unkeyed);
  line += " unkeyed";
  return line;
}

std::vector<std::pair<std::string, std::uint64_t>> cacheStatsSection(
    const CacheStats& stats) {
  return {{"hits", stats.hits},
          {"misses", stats.misses},
          {"stores", stats.stores},
          {"evictions", stats.evictions},
          {"unkeyed", stats.unkeyed},
          {"revalidations", stats.revalidations}};
}

std::string canonicalOptionsText(
    const frontend::FrontendOptions& frontend_options,
    const ilanalyzer::AnalyzerOptions& analyzer_options) {
  std::string text;
  text.reserve(256);
  text += "include_dirs=";
  for (const std::string& dir : frontend_options.include_dirs) {
    text += dir;
    text += ';';
  }
  text += "\ndefines=";
  for (const auto& [name, value] : frontend_options.defines) {
    text += name;
    text += '=';
    text += value;
    text += ';';
  }
  text += "\nsema.used_mode=";
  text += frontend_options.sema.used_mode ? '1' : '0';
  text += "\nsema.record_specialization_origin=";
  text += frontend_options.sema.record_specialization_origin ? '1' : '0';
  text += "\nanalyzer.use_direct_template_links=";
  text += analyzer_options.use_direct_template_links ? '1' : '0';
  text += "\nanalyzer.emit_uninstantiated_templates=";
  text += analyzer_options.emit_uninstantiated_templates ? '1' : '0';
  text += '\n';
  return text;
}

std::optional<CacheKey> computeCacheKey(
    SourceManager& sm, const std::string& input,
    const frontend::FrontendOptions& frontend_options,
    const ilanalyzer::AnalyzerOptions& analyzer_options) {
  // The scan is cache plumbing, not compilation: its preprocessor counts
  // (includes, macro expansions) must not pollute the TU's counters, or
  // warm and cold runs would disagree.
  const trace::CounterScope suppress(nullptr);
  for (const std::string& dir : frontend_options.include_dirs)
    sm.addSearchDir(dir);
  const auto main_file = sm.loadFile(input);
  if (!main_file) return std::nullopt;

  // Preprocessor-only scan: executes directives and expands macros (so a
  // -D that flips a conditional #include is followed correctly) but never
  // parses. Diagnostics go to a throwaway engine; any diagnostic — even a
  // warning — makes the TU uncacheable, because a cache hit skips the
  // compile that would re-emit it.
  DiagnosticEngine scan_diags;
  lex::Preprocessor pp(sm, scan_diags);
  for (const auto& [name, value] : frontend_options.defines)
    pp.predefineMacro(name, value);
  pp.enterMainFile(*main_file);
  for (lex::Token t = pp.next(); !t.isEnd(); t = pp.next()) {
  }
  if (!scan_diags.all().empty()) return std::nullopt;

  CacheKey key;
  key.source = input;
  Fnv128 hasher;
  hasher.update(kCacheFormatVersion);
  const std::string options_text =
      canonicalOptionsText(frontend_options, analyzer_options);
  hasher.updateU64(options_text.size());
  hasher.update(options_text);

  const std::vector<FileId>& files = pp.filesSeen();
  hasher.updateU64(files.size());
  key.deps.reserve(files.size());
  for (const FileId file : files) {
    const std::string& name = sm.name(file);
    const std::string_view content = sm.content(file);
    // Paths containing the manifest separators would corrupt the manifest.
    if (name.find('|') != std::string::npos ||
        name.find(';') != std::string::npos)
      return std::nullopt;
    hasher.updateU64(name.size());
    hasher.update(name);
    hasher.updateU64(content.size());
    hasher.update(content);
    key.deps.push_back(name);
  }
  key.hex = hasher.digest().hex();
  return key;
}

BuildCache::BuildCache(CacheOptions options) : options_(std::move(options)) {
  if (!options_.dir.empty()) {
    std::error_code ec;
    fs::create_directories(options_.dir, ec);
  }
}

std::string BuildCache::pdbPath(const CacheKey& key) const {
  return (fs::path(options_.dir) / (key.hex + ".pdb")).string();
}

std::string BuildCache::manifestPath(const CacheKey& key) const {
  return (fs::path(options_.dir) / (key.hex + ".manifest")).string();
}

std::string BuildCache::statsPath(const CacheKey& key) const {
  return (fs::path(options_.dir) / (key.hex + ".stats")).string();
}

std::optional<pdb::PdbFile> BuildCache::fetch(const CacheKey& key,
                                              CacheStats& stats,
                                              trace::CounterBlock* replay) const {
  if (!enabled()) return std::nullopt;
  // Cache I/O (the entry's pdb parse in particular) must not count as
  // compilation work; the entry's own sidecar carries the real counters.
  const trace::CounterScope suppress(nullptr);
  const fs::path pdb_path = pdbPath(key);
  const fs::path manifest_path = manifestPath(key);
  const fs::path stats_path = statsPath(key);

  // The manifest is published last, so its presence marks a complete
  // entry; no manifest (or an unparsable one) means miss.
  const auto manifest = parseManifest(manifest_path);
  std::error_code ec;
  if (!manifest || manifest->key != key.hex) {
    if (manifest || fs::exists(pdb_path, ec)) {
      removeEntryFiles(pdb_path, manifest_path, stats_path);
      ++stats.evictions;
    }
    ++stats.misses;
    return std::nullopt;
  }

  // Entries are stored in the binary format, but reads auto-detect so a
  // cache directory can mix entries (e.g. hand-seeded ASCII ones).
  auto read = pdb::open(pdb_path.string());
  const bool parses = read.ok();
  // Never trust a cache entry: a truncated, hand-edited, or stale-format
  // value must fall back to a recompile, not flow into the merge. The
  // counter sidecar is part of the entry: without it a hit could not
  // replay the compile's counters, so it too is revalidated here.
  const auto sidecar_text = slurpFile(stats_path);
  const auto sidecar =
      sidecar_text ? trace::CounterBlock::deserialize(*sidecar_text)
                   : std::nullopt;
  if (!parses || !sidecar ||
      !pdb::validate(read.snapshot->pdb()).empty()) {
    removeEntryFiles(pdb_path, manifest_path, stats_path);
    ++stats.evictions;
    ++stats.misses;
    return std::nullopt;
  }
  ++stats.revalidations;

  // Bump the manifest stamp so the LRU sweep sees this entry as fresh.
  (void)atomicWrite(manifest_path, renderManifest(key, nowStamp(), manifest->size));
  ++stats.hits;
  if (replay != nullptr) *replay = *sidecar;
  return pdb::releasePdb(std::move(read.snapshot));
}

void BuildCache::store(const CacheKey& key, const pdb::PdbFile& pdb,
                       const trace::CounterBlock& counters,
                       CacheStats& stats) const {
  if (!enabled()) return;
  // Serializing the pdb here is cache plumbing; see fetch(). Entries are
  // binary v2: smaller on disk and ~2x faster to revalidate + reload on a
  // warm hit than the ASCII form, with the checksum catching truncation.
  const trace::CounterScope suppress(nullptr);
  const std::string bytes = pdb::writeBinaryToString(pdb);
  if (!atomicWrite(pdbPath(key), bytes)) return;
  if (!atomicWrite(statsPath(key), counters.serialize())) return;
  if (!atomicWrite(manifestPath(key), renderManifest(key, nowStamp(), bytes.size())))
    return;
  ++stats.stores;
}

std::uint64_t BuildCache::totalSizeBytes() const {
  if (!enabled()) return 0;
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    total += static_cast<std::uint64_t>(entry.file_size(ec));
  }
  return total;
}

std::size_t BuildCache::sweep() const {
  if (!enabled() || options_.limit_mb == 0) return 0;
  const std::uint64_t cap = static_cast<std::uint64_t>(options_.limit_mb) << 20;

  struct Entry {
    std::uint64_t stamp = 0;
    std::uint64_t bytes = 0;  // pdb + manifest, as found on disk
    fs::path pdb_path;
    fs::path manifest_path;
  };
  std::vector<Entry> entries;
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& dirent : fs::directory_iterator(options_.dir, ec)) {
    if (!dirent.is_regular_file(ec)) continue;
    const fs::path path = dirent.path();
    if (path.extension() != ".manifest") continue;
    const auto manifest = parseManifest(path);
    Entry e;
    e.manifest_path = path;
    e.pdb_path = fs::path(path).replace_extension(".pdb");
    e.bytes = static_cast<std::uint64_t>(dirent.file_size(ec));
    std::error_code size_ec;
    const auto pdb_size = fs::file_size(e.pdb_path, size_ec);
    if (!size_ec) e.bytes += static_cast<std::uint64_t>(pdb_size);
    const auto stats_size =
        fs::file_size(fs::path(path).replace_extension(".stats"), size_ec);
    if (!size_ec) e.bytes += static_cast<std::uint64_t>(stats_size);
    // An unparsable manifest sorts oldest (stamp 0): evicted first.
    if (manifest) e.stamp = manifest->stamp;
    total += e.bytes;
    entries.push_back(std::move(e));
  }
  if (total <= cap) return 0;

  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.stamp != b.stamp) return a.stamp < b.stamp;
    return a.manifest_path < b.manifest_path;  // deterministic tie-break
  });
  std::size_t removed = 0;
  for (const Entry& e : entries) {
    if (total <= cap) break;
    removeEntryFiles(e.pdb_path, e.manifest_path,
                     fs::path(e.manifest_path).replace_extension(".stats"));
    total -= std::min(total, e.bytes);
    ++removed;
  }
  return removed;
}

}  // namespace pdt::tools
