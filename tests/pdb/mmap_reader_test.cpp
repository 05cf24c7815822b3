// Zero-copy mmap read path: snapshots returned by pdb::open own the
// buffer their string views alias (so they outlive any scope), the mmap
// and buffered paths reject a corruption corpus identically, and masked
// reads verify exactly the sections they materialize — no more (pages of
// unrequested sections are never touched) and no less (a corrupt
// requested section is caught by its per-section checksum even though
// the whole-file checksum is skipped).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/temp_dir.h"
#include "pdb/binary_layout.h"
#include "pdb/snapshot.h"
#include "pdb/writer.h"
#include "support/trace.h"

namespace pdt::pdb {
namespace {

namespace fs = std::filesystem;

/// One item of every kind (mirrors format_roundtrip_test's sample).
PdbFile samplePdb() {
  PdbFile pdb;
  SourceFileItem header;
  header.name = "StackAr.h";
  const std::uint32_t header_id = pdb.addSourceFile(std::move(header));
  SourceFileItem impl;
  impl.name = "StackAr.cpp";
  impl.includes.push_back(header_id);
  const std::uint32_t impl_id = pdb.addSourceFile(std::move(impl));

  TypeItem int_ty;
  int_ty.name = "int";
  int_ty.kind = "int";
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
  te.location = {header_id, 10, 1};
  te.text = "template <class Object>\nclass Stack {...};";
  const std::uint32_t te_id = pdb.addTemplate(std::move(te));

  ClassItem cls;
  cls.name = "Stack<int>";
  cls.kind = "class";
  cls.location = {header_id, 12, 1};
  cls.template_id = te_id;
  ClassItem::Member mem;
  mem.name = "topOfStack";
  mem.access = "priv";
  mem.kind = "var";
  mem.type = {ItemKind::Type, int_id};
  cls.members.push_back(mem);
  const std::uint32_t cls_id = pdb.addClass(std::move(cls));

  RoutineItem push;
  push.name = "push";
  push.parent = ItemRef{ItemKind::Class, cls_id};
  push.access = "pub";
  push.signature = sig_id;
  push.kind = "routine";
  push.defined = true;
  push.location = {impl_id, 42, 3};
  pdb.addRoutine(std::move(push));

  NamespaceItem ns;
  ns.name = "util";
  ns.location = {header_id, 2, 1};
  pdb.addNamespace(std::move(ns));

  MacroItem ma;
  ma.name = "STACKAR_H";
  ma.kind = "def";
  ma.text = "#define STACKAR_H";
  ma.location = {header_id, 1, 1};
  pdb.addMacro(std::move(ma));

  pdb.reindex();
  return pdb;
}

class MmapReaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ascii_ = writeToString(samplePdb());
    binary_ = writeString(samplePdb(), Format::Binary);
  }

  void TearDown() override {
    setMmapMode(MmapMode::Auto);
  }

  [[nodiscard]] std::string writeBytes(const std::string& name,
                                       const std::string& bytes) const {
    const fs::path path = dir_ / name;
    std::ofstream os(path, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path.string();
  }

  /// (ok, first error) of reading `path` under the given mmap mode.
  static std::pair<bool, std::string> readUnder(MmapMode mode,
                                                const std::string& path,
                                                Sections sections =
                                                    Sections::All) {
    setMmapMode(mode);
    const OpenResult result = open(path, sections);
    setMmapMode(MmapMode::Auto);
    if (!result.opened) return {false, "<unopenable>"};
    if (!result.ok()) return {false, result.errors.front()};
    return {true, ""};
  }

  testutil::TempDir dir_{"pdt_mmap_"};
  std::string ascii_;
  std::string binary_;
};

TEST_F(MmapReaderTest, DatabaseOwnsItsViewsBeyondEveryScope) {
  PdbFile moved;
  {
    const std::string path = writeBytes("sample.pdb", binary_);
    auto result = open(path);
    ASSERT_TRUE(result.ok());
    // The mapping's only owner is the snapshot (and then the database
    // released from it); deleting the directory entry must not invalidate it
    // (POSIX keeps unlinked mappings readable — exactly what the sharded
    // merge's spill cleanup relies on).
    fs::remove(path);
    moved = releasePdb(std::move(result.snapshot));
  }
  // A copy shares the adopted backing rather than re-owning strings.
  const PdbFile copy = moved;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(writeToString(copy), ascii_);
  EXPECT_EQ(writeToString(moved), ascii_);
}

TEST_F(MmapReaderTest, MmapModeCountsBytesMappedAndOffDoesNot) {
  const std::string path = writeBytes("sample.pdb", binary_);

  trace::resetGlobalCounters();
  auto [off_ok, off_err] = readUnder(MmapMode::Off, path);
  ASSERT_TRUE(off_ok) << off_err;
  EXPECT_EQ(trace::globalCounters().get(trace::Counter::PdbMmapBytesMapped),
            0u);

  trace::resetGlobalCounters();
  auto [auto_ok, auto_err] = readUnder(MmapMode::Auto, path);
  ASSERT_TRUE(auto_ok) << auto_err;
  EXPECT_EQ(trace::globalCounters().get(trace::Counter::PdbMmapBytesMapped),
            binary_.size());
}

TEST_F(MmapReaderTest, TruncationCorpusIsRejectedIdenticallyInBothModes) {
  for (std::size_t len = 0; len < binary_.size();
       len += (len < 64 ? 1 : 37)) {
    const std::string path =
        writeBytes("trunc.pdb", binary_.substr(0, len));
    const auto mapped = readUnder(MmapMode::Auto, path);
    const auto buffered = readUnder(MmapMode::Off, path);
    EXPECT_FALSE(mapped.first) << "truncation to " << len << " accepted";
    EXPECT_EQ(mapped, buffered) << "modes disagree at truncation " << len;
  }
}

TEST_F(MmapReaderTest, BitFlipCorpusIsRejectedIdenticallyInBothModes) {
  for (std::size_t at = 0; at < binary_.size(); at += 7) {
    for (int bit = 0; bit < 8; bit += 3) {
      std::string mutated = binary_;
      mutated[at] = static_cast<char>(mutated[at] ^ (1 << bit));
      const std::string path = writeBytes("flip.pdb", mutated);
      const auto mapped = readUnder(MmapMode::Auto, path);
      const auto buffered = readUnder(MmapMode::Off, path);
      EXPECT_EQ(mapped, buffered)
          << "modes disagree for bit " << bit << " at byte " << at;
      EXPECT_FALSE(mapped.first)
          << "bit " << bit << " at byte " << at << " was accepted";
    }
  }
}

TEST_F(MmapReaderTest, MaskedReadVerifiesExactlyTheRequestedSections) {
  // Find the routine section's payload via the on-disk section table:
  // header is magic(8) + u32 count + u64 total + u64 strtab_offset +
  // u64 strtab_size + u64 strtab_checksum, then count 32-byte entries of
  // { u32 kind, u32 item_count, u64 offset, u64 size, u64 checksum }.
  std::uint32_t section_count = 0;
  std::memcpy(&section_count, binary_.data() + 8, 4);
  std::size_t ro_payload = 0;
  for (std::uint32_t s = 0; s < section_count; ++s) {
    const char* entry =
        binary_.data() + binary::kHeaderSize + s * binary::kSectionEntrySize;
    std::uint32_t kind = 0;
    std::uint64_t offset = 0;
    std::memcpy(&kind, entry, 4);
    std::memcpy(&offset, entry + 8, 8);
    if (kind == static_cast<std::uint32_t>(ItemKind::Routine))
      ro_payload = static_cast<std::size_t>(offset);
  }
  ASSERT_NE(ro_payload, 0u);

  std::string mutated = binary_;
  mutated[ro_payload] = static_cast<char>(mutated[ro_payload] ^ 0x40);
  const std::string path = writeBytes("rot.pdb", mutated);

  for (const MmapMode mode : {MmapMode::Auto, MmapMode::Off}) {
    // Full read: the whole-file checksum catches it.
    EXPECT_FALSE(readUnder(mode, path).first);
    // Masked read of untouched sections: the corrupt section's bytes are
    // outside every verified range, so the read succeeds without ever
    // touching (or faulting in) the routine payload.
    const auto other = readUnder(
        mode, path, Sections::Templates | Sections::SourceFiles);
    EXPECT_TRUE(other.first) << other.second;
    // Masked read that *requests* the corrupt section: its per-section
    // checksum must reject it even though the whole-file pass is skipped.
    const auto hit = readUnder(mode, path,
                               Sections::Routines | Sections::SourceFiles);
    EXPECT_FALSE(hit.first);
    EXPECT_NE(hit.second.find("ro section checksum mismatch"),
              std::string::npos)
        << hit.second;
  }
}

}  // namespace
}  // namespace pdt::pdb
