// Storage-format round-trip tests: the binary PDB v2 representation must
// be lossless against the canonical ASCII form (ASCII -> binary -> ASCII
// is byte-identical), reject corrupted bytes instead of mis-parsing them,
// and interoperate with the build cache's binary entries.
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/temp_dir.h"
#include "pdb/format.h"
#include "pdb/reader.h"
#include "pdb/validate.h"
#include "pdb/writer.h"
#include "pdt/pdt_paths.h"
#include "tools/driver.h"

namespace pdt::pdb {
namespace {

namespace fs = std::filesystem;

/// One item of every kind, exercising every attribute the ASCII grammar
/// can express (mirrors pdb_io_test's sample).
PdbFile samplePdb() {
  PdbFile pdb;
  SourceFileItem header;
  header.name = "StackAr.h";
  const std::uint32_t header_id = pdb.addSourceFile(std::move(header));
  SourceFileItem impl;
  impl.name = "StackAr.cpp";
  const std::uint32_t impl_id = pdb.addSourceFile(std::move(impl));
  pdb.sourceFiles()[0].includes.push_back(impl_id);

  TypeItem int_ty;
  int_ty.name = "int";
  int_ty.kind = "int";
  int_ty.ikind = "int";
  const std::uint32_t int_id = pdb.addType(std::move(int_ty));

  TypeItem sig;
  sig.name = "void (int)";
  sig.kind = "func";
  sig.return_type = ItemRef{ItemKind::Type, int_id};
  sig.params.push_back({ItemKind::Type, int_id});
  const std::uint32_t sig_id = pdb.addType(std::move(sig));

  TemplateItem te;
  te.name = "Stack";
  te.kind = "class";
  te.text = "template <class Object>\nclass Stack {...};";
  te.location = {header_id, 8, 7};
  const std::uint32_t te_id = pdb.addTemplate(std::move(te));

  ClassItem cls;
  cls.name = "Stack<int>";
  cls.kind = "class";
  cls.template_id = te_id;
  cls.location = {header_id, 8, 7};
  const std::uint32_t cls_id = pdb.addClass(std::move(cls));

  RoutineItem push;
  push.name = "push";
  push.location = {impl_id, 72, 29};
  push.parent = ItemRef{ItemKind::Class, cls_id};
  push.access = "pub";
  push.signature = sig_id;
  push.template_id = te_id;
  push.defined = true;
  push.calls.push_back({1, false, {impl_id, 74, 17}});
  push.extent = {{impl_id, 72, 9}, {impl_id, 72, 52}, {impl_id, 73, 9},
                 {impl_id, 77, 9}};
  const std::uint32_t push_id = pdb.addRoutine(std::move(push));
  pdb.classes()[0].funcs.push_back({push_id, {impl_id, 72, 29}});

  ClassItem::Member mem;
  mem.name = "topOfStack";
  mem.access = "priv";
  mem.kind = "var";
  mem.type = {ItemKind::Type, int_id};
  mem.location = {header_id, 39, 28};
  pdb.classes()[0].members.push_back(std::move(mem));

  NamespaceItem ns;
  ns.name = "util";
  ns.members.push_back({ItemKind::Routine, push_id});
  pdb.addNamespace(std::move(ns));

  MacroItem ma;
  ma.name = "STACKAR_H";
  ma.kind = "def";
  ma.text = "#define STACKAR_H";
  ma.location = {header_id, 2, 1};
  pdb.addMacro(std::move(ma));

  // One def-use stream exercising every event op and every flag letter.
  DefUseItem du_item;
  du_item.routine = push_id;
  du_item.events.push_back({DuOp::Def, du::kParam, "x", {impl_id, 72, 43}});
  du_item.events.push_back(
      {DuOp::Def, du::kUninit, "tmp", {impl_id, 73, 13}});
  du_item.events.push_back({DuOp::Marker, 0, "then", {impl_id, 74, 9}});
  du_item.events.push_back(
      {DuOp::Use, static_cast<std::uint8_t>(du::kPointer | du::kDeref), "p",
       {impl_id, 74, 11}});
  du_item.events.push_back(
      {DuOp::Def, static_cast<std::uint8_t>(du::kMember | du::kNullValue),
       "this.topOfStack", {impl_id, 75, 9}});
  du_item.events.push_back(
      {DuOp::Use, static_cast<std::uint8_t>(du::kReference | du::kUnknown),
       "r", {impl_id, 76, 9}});
  du_item.events.push_back({DuOp::Marker, 0, "endif", {impl_id, 77, 9}});
  pdb.addDefUse(std::move(du_item));

  // Two dynamic-profile entries: one linked to a routine, one standalone
  // (a runtime-only name with no static counterpart).
  DynProfItem dp_linked;
  dp_linked.name = "push() <Stack<int>>";
  dp_linked.routine = push_id;
  dp_linked.calls = 4096;
  dp_linked.child_calls = 128;
  dp_linked.inclusive_ns = 987654321;
  dp_linked.exclusive_ns = 123456789;
  dp_linked.threads = 8;
  dp_linked.contexts = 2;
  pdb.addDynProf(std::move(dp_linked));

  DynProfItem dp_unlinked;
  dp_unlinked.name = "main()";
  dp_unlinked.calls = 1;
  dp_unlinked.inclusive_ns = 5000000000;
  dp_unlinked.exclusive_ns = 5000000000;
  dp_unlinked.threads = 1;
  dp_unlinked.contexts = 1;
  pdb.addDynProf(std::move(dp_unlinked));
  return pdb;
}

/// ASCII -> binary -> ASCII must reproduce the original ASCII text
/// byte for byte, and a second binary encoding must be stable too.
void expectLosslessRoundTrip(const PdbFile& original) {
  const std::string ascii = writeToString(original);

  const std::string binary = writeString(original, Format::Binary);
  ASSERT_TRUE(binary.starts_with(kBinaryMagic));
  ASSERT_EQ(detectFormat(binary), Format::Binary);
  ASSERT_EQ(detectFormat(ascii), Format::Ascii);

  ReadResult parsed = readBuffer(binary);
  ASSERT_TRUE(parsed.ok()) << parsed.errors.front();
  EXPECT_EQ(parsed.pdb.offsetUnit(), OffsetUnit::Byte);

  EXPECT_EQ(writeToString(parsed.pdb), ascii);
  EXPECT_EQ(writeString(parsed.pdb, Format::Binary), binary);
}

std::string inputPath(const std::string& rel) {
  return std::string(paths::kInputDir) + "/" + rel;
}

/// Compiles one shipped input program to a merged database.
PdbFile compileSeed(const std::vector<std::string>& sources,
                    const std::vector<std::string>& include_dirs) {
  tools::DriverOptions options;
  options.frontend.include_dirs = include_dirs;
  options.frontend.include_dirs.push_back(std::string(paths::kRuntimeDir) +
                                          "/pdt_stl");
  tools::DriverResult result = tools::compileAndMerge(sources, options);
  EXPECT_TRUE(result.success) << result.diagnostics;
  return result.pdb ? result.pdb->raw() : PdbFile{};
}

TEST(FormatRoundTrip, SampleDatabaseIsByteIdentical) {
  expectLosslessRoundTrip(samplePdb());
}

TEST(FormatRoundTrip, EmptyDatabaseIsByteIdentical) {
  expectLosslessRoundTrip(PdbFile{});
}

TEST(FormatRoundTrip, StackSeedIsByteIdentical) {
  expectLosslessRoundTrip(compileSeed({inputPath("stack/TestStackAr.cpp")},
                                      {inputPath("stack")}));
}

TEST(FormatRoundTrip, ExprMiniSeedIsByteIdentical) {
  expectLosslessRoundTrip(compileSeed({inputPath("expr_mini/et_demo.cpp")},
                                      {inputPath("expr_mini")}));
}

TEST(FormatRoundTrip, KrylovSeedIsByteIdentical) {
  expectLosslessRoundTrip(compileSeed({inputPath("pooma_mini/krylov.cpp")},
                                      {inputPath("pooma_mini")}));
}

/// Every id of `items` resolves to the same position in both databases.
template <typename Item>
void expectSameLookups(const PdbFile& read, const PdbFile& reindexed,
                       const std::vector<Item>& (PdbFile::*items)() const,
                       const Item* (PdbFile::*find)(std::uint32_t) const) {
  for (const Item& item : (read.*items)()) {
    const Item* got = (read.*find)(item.id);
    const Item* want = (reindexed.*find)(item.id);
    ASSERT_NE(got, nullptr) << "id " << item.id;
    ASSERT_NE(want, nullptr) << "id " << item.id;
    EXPECT_EQ(got - (read.*items)().data(), want - (reindexed.*items)().data())
        << "id " << item.id;
  }
}

// The readers insert every item through PdbFile::add(), which keeps the
// id maps and next ids exact as it goes; a reindex() of what they return
// must change nothing, a repeated id included (the last item wins).
TEST(FormatRoundTrip, ReadIdMapsMatchAFullReindex) {
  PdbFile source = samplePdb();
  RoutineItem again;
  again.name = "again";
  again.id = source.routines().front().id;
  source.addRoutine(std::move(again));
  RoutineItem high;
  high.name = "high";
  high.id = 40;
  source.addRoutine(std::move(high));
  for (const Format format : {Format::Ascii, Format::Binary}) {
    SCOPED_TRACE(std::string(formatName(format)));
    const std::string bytes = writeString(source, format);
    ReadResult read = readBuffer(bytes);
    ASSERT_TRUE(read.ok()) << read.errors.front();
    PdbFile reindexed = read.pdb;
    reindexed.reindex();

    const PdbFile& got = read.pdb;
    expectSameLookups(got, reindexed, &PdbFile::sourceFiles,
                      &PdbFile::findSourceFile);
    expectSameLookups(got, reindexed, &PdbFile::routines,
                      &PdbFile::findRoutine);
    expectSameLookups(got, reindexed, &PdbFile::classes,
                      &PdbFile::findClass);
    expectSameLookups(got, reindexed, &PdbFile::types,
                      &PdbFile::findType);
    expectSameLookups(got, reindexed, &PdbFile::templates,
                      &PdbFile::findTemplate);
    expectSameLookups(got, reindexed, &PdbFile::namespaces,
                      &PdbFile::findNamespace);
    expectSameLookups(got, reindexed, &PdbFile::macros,
                      &PdbFile::findMacro);
    expectSameLookups(got, reindexed, &PdbFile::defUses,
                      &PdbFile::findDefUse);
    expectSameLookups(got, reindexed, &PdbFile::dynProfs,
                      &PdbFile::findDynProf);
    const std::uint32_t repeated = source.routines().front().id;
    ASSERT_NE(got.findRoutine(repeated), nullptr);
    EXPECT_EQ(got.findRoutine(repeated)->name, "again");
    for (std::uint8_t k = 0; k <= static_cast<std::uint8_t>(ItemKind::DynProf);
         ++k)
      EXPECT_EQ(got.nextId(static_cast<ItemKind>(k)),
                reindexed.nextId(static_cast<ItemKind>(k)));
    EXPECT_EQ(read.pdb.addRoutine({}), 41u);
    EXPECT_EQ(reindexed.addRoutine({}), 41u);
  }
}

TEST(FormatRoundTrip, LazyReadLoadsOnlyRequestedSections) {
  const std::string binary = writeString(samplePdb(), Format::Binary);

  ReadResult lazy = readBuffer(binary, Sections::Routines);
  ASSERT_TRUE(lazy.ok()) << lazy.errors.front();
  EXPECT_EQ(lazy.loaded, Sections::Routines);
  EXPECT_EQ(lazy.pdb.routines().size(), 1u);
  EXPECT_TRUE(lazy.pdb.classes().empty());
  EXPECT_TRUE(lazy.pdb.sourceFiles().empty());
  EXPECT_TRUE(lazy.pdb.types().empty());

  // Section-aware validation must not flag the routine's references into
  // the sections that were deliberately left unloaded.
  EXPECT_TRUE(validate(lazy.pdb, lazy.loaded).empty());
  EXPECT_FALSE(validate(lazy.pdb).empty());
}

TEST(FormatRoundTrip, AsciiReaderHonorsSectionMask) {
  const std::string ascii = writeToString(samplePdb());

  ReadResult lazy = readBuffer(ascii, Sections::Classes);
  ASSERT_TRUE(lazy.ok()) << lazy.errors.front();
  EXPECT_EQ(lazy.loaded, Sections::Classes);
  EXPECT_EQ(lazy.pdb.classes().size(), 1u);
  EXPECT_TRUE(lazy.pdb.routines().empty());
  EXPECT_TRUE(validate(lazy.pdb, lazy.loaded).empty());
}

TEST(FormatRoundTrip, LazyReadCanLoadOnlyDefUses) {
  const std::string binary = writeString(samplePdb(), Format::Binary);

  ReadResult lazy = readBuffer(binary, Sections::DefUses);
  ASSERT_TRUE(lazy.ok()) << lazy.errors.front();
  EXPECT_EQ(lazy.loaded, Sections::DefUses);
  ASSERT_EQ(lazy.pdb.defUses().size(), 1u);
  EXPECT_EQ(lazy.pdb.defUses()[0].events.size(), 7u);
  EXPECT_TRUE(lazy.pdb.routines().empty());
  // The stream's ro# reference points into an unloaded section; the
  // section-aware validator must not flag it.
  EXPECT_TRUE(validate(lazy.pdb, lazy.loaded).empty());
}

TEST(FormatRoundTrip, LazyReadCanLoadOnlyDynProfs) {
  const std::string binary = writeString(samplePdb(), Format::Binary);

  ReadResult lazy = readBuffer(binary, Sections::DynProfs);
  ASSERT_TRUE(lazy.ok()) << lazy.errors.front();
  EXPECT_EQ(lazy.loaded, Sections::DynProfs);
  ASSERT_EQ(lazy.pdb.dynProfs().size(), 2u);
  EXPECT_EQ(lazy.pdb.dynProfs()[0].name, "push() <Stack<int>>");
  EXPECT_EQ(lazy.pdb.dynProfs()[0].calls, 4096u);
  EXPECT_EQ(lazy.pdb.dynProfs()[0].threads, 8u);
  EXPECT_TRUE(lazy.pdb.routines().empty());
  // The entry's ro# link points into an unloaded section; the
  // section-aware validator must not flag it.
  EXPECT_TRUE(validate(lazy.pdb, lazy.loaded).empty());
}

TEST(FormatRoundTrip, ValidatorFlagsInvertedDynProfTimes) {
  PdbFile pdb = samplePdb();
  pdb.dynProfs()[0].inclusive_ns = 1;
  pdb.dynProfs()[0].exclusive_ns = 2;
  const std::vector<std::string> errors = validate(pdb);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("dp#1"), std::string::npos);
  EXPECT_NE(errors[0].find("inclusive time"), std::string::npos);
}

TEST(FormatRoundTrip, BinaryDiagnosticsNameTheDuSection) {
  const std::string binary = writeString(samplePdb(), Format::Binary);
  ReadResult parsed = readBuffer(binary);
  ASSERT_TRUE(parsed.ok());
  parsed.pdb.defUses()[0].routine = 9999;
  parsed.pdb.reindex();
  const std::vector<std::string> errors = validate(parsed.pdb);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("du#1"), std::string::npos);
  EXPECT_NE(errors[0].find("of du section"), std::string::npos);
  EXPECT_NE(errors[0].find("undefined ro#9999"), std::string::npos);
}

TEST(FormatRoundTrip, BinaryRecordsByteOffsetsForDiagnostics) {
  const std::string binary = writeString(samplePdb(), Format::Binary);
  ReadResult parsed = readBuffer(binary);
  ASSERT_TRUE(parsed.ok());
  // Break a reference, then check the diagnostic carries the item's byte
  // offset inside the binary file.
  parsed.pdb.routines()[0].calls[0].routine = 9999;
  parsed.pdb.reindex();
  const std::vector<std::string> errors = validate(parsed.pdb);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("ro#1"), std::string::npos);
  EXPECT_NE(errors[0].find(", byte "), std::string::npos);
  EXPECT_NE(errors[0].find("undefined ro#9999"), std::string::npos);
}

TEST(FormatCorruption, EveryTruncationIsRejected) {
  const std::string binary = writeString(samplePdb(), Format::Binary);
  for (std::size_t len = 0; len < binary.size();
       len += (len < 64 ? 1 : 37)) {
    ReadResult r = readBuffer(binary.substr(0, len));
    EXPECT_FALSE(r.ok()) << "truncation to " << len
                         << " bytes was accepted";
  }
}

TEST(FormatCorruption, TrailingGarbageIsRejected) {
  std::string binary = writeString(samplePdb(), Format::Binary);
  binary += '\0';
  EXPECT_FALSE(readBuffer(binary).ok());
}

TEST(FormatCorruption, EveryBitFlipIsRejected) {
  const std::string binary = writeString(samplePdb(), Format::Binary);
  const std::string ascii = writeToString(samplePdb());
  for (std::size_t at = 0; at < binary.size(); ++at) {
    for (int bit = 0; bit < 8; bit += 3) {
      std::string mutated = binary;
      mutated[at] = static_cast<char>(mutated[at] ^ (1 << bit));
      ReadResult r = readBuffer(mutated);
      // The checksum (or, for flips in the magic, the ASCII header
      // check) must catch the corruption; silently succeeding with
      // different content would be a data-integrity bug.
      if (r.ok()) {
        EXPECT_EQ(writeToString(r.pdb), ascii)
            << "bit " << bit << " at byte " << at
            << " changed the database without being detected";
        ADD_FAILURE() << "bit flip at byte " << at << " was accepted";
      }
    }
  }
}

/// Build-cache integration: entries are stored in the binary format and
/// corrupt entries are evicted and recompiled, not trusted.
class FormatCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fs::create_directories(dir_ / "cache");
    std::ofstream os(dir_ / "tu.cpp");
    os << "template <class T>\nT twice(T v) { return v + v; }\n"
          "int use() { return twice(21); }\n";
    inputs_.push_back((dir_ / "tu.cpp").string());
    options_.cache.dir = (dir_ / "cache").string();
  }

  [[nodiscard]] std::string compileBytes(tools::DriverResult& out) {
    out = tools::compileAndMerge(inputs_, options_);
    EXPECT_TRUE(out.success) << out.diagnostics;
    return out.pdb ? writeToString(out.pdb->raw()) : std::string();
  }

  [[nodiscard]] std::vector<fs::path> cacheEntries() const {
    std::vector<fs::path> found;
    for (const auto& entry : fs::directory_iterator(dir_ / "cache"))
      if (entry.path().extension() == ".pdb") found.push_back(entry.path());
    return found;
  }

  testutil::TempDir dir_{"pdt_format_cache_"};
  std::vector<std::string> inputs_;
  tools::DriverOptions options_;
};

TEST_F(FormatCacheTest, EntriesAreStoredInBinaryFormat) {
  tools::DriverResult cold;
  (void)compileBytes(cold);
  EXPECT_EQ(cold.cache_stats.stores, 1u);
  const std::vector<fs::path> entries = cacheEntries();
  ASSERT_EQ(entries.size(), 1u);
  std::ifstream is(entries[0], std::ios::binary);
  std::string head(kBinaryMagic.size(), '\0');
  is.read(head.data(), static_cast<std::streamsize>(head.size()));
  EXPECT_EQ(head, kBinaryMagic);
}

TEST_F(FormatCacheTest, CorruptBinaryEntryIsEvictedAndRecompiled) {
  tools::DriverResult cold;
  const std::string cold_bytes = compileBytes(cold);

  for (const fs::path& entry : cacheEntries()) {
    // Flip one payload byte; the checksum makes the entry unreadable.
    std::fstream f(entry, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(kBinaryMagic.size()) + 40);
    f.put('\x7e');
  }

  tools::DriverResult rerun;
  const std::string rerun_bytes = compileBytes(rerun);
  EXPECT_EQ(rerun.cache_stats.hits, 0u);
  EXPECT_EQ(rerun.cache_stats.evictions, 1u);
  EXPECT_EQ(rerun.cache_stats.stores, 1u);
  EXPECT_EQ(cold_bytes, rerun_bytes);

  tools::DriverResult warm;
  (void)compileBytes(warm);
  EXPECT_EQ(warm.cache_stats.hits, 1u);
}

}  // namespace
}  // namespace pdt::pdb
