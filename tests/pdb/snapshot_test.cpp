// Snapshot lifecycle tests: pdb::open publishes an immutable snapshot
// with a process-unique generation, releasePdb moves the records out of
// a snapshot nobody else holds and copies them otherwise, and failures
// keep the OpenResult contract one-shot tools rely on for their error
// strings.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

#include "common/temp_dir.h"
#include "pdb/snapshot.h"
#include "pdb/writer.h"

namespace pdt::pdb {
namespace {

namespace fs = std::filesystem;

/// A small database touching several sections (files include each
/// other so the include tree is non-trivial).
PdbFile samplePdb() {
  PdbFile pdb;
  SourceFileItem header;
  header.name = "Snap.h";
  const std::uint32_t header_id = pdb.addSourceFile(std::move(header));
  SourceFileItem impl;
  impl.name = "Snap.cpp";
  impl.includes.push_back(header_id);
  const std::uint32_t impl_id = pdb.addSourceFile(std::move(impl));

  TypeItem int_ty;
  int_ty.name = "int";
  int_ty.kind = "int";
  pdb.addType(std::move(int_ty));

  ClassItem cls;
  cls.name = "Snap";
  cls.kind = "class";
  cls.location = {header_id, 3, 1};
  const std::uint32_t cls_id = pdb.addClass(std::move(cls));

  RoutineItem ro;
  ro.name = "run";
  ro.parent = ItemRef{ItemKind::Class, cls_id};
  ro.kind = "routine";
  ro.defined = true;
  ro.location = {impl_id, 7, 1};
  pdb.addRoutine(std::move(ro));

  MacroItem ma;
  ma.name = "SNAP_H";
  ma.kind = "def";
  ma.location = {header_id, 1, 1};
  pdb.addMacro(std::move(ma));

  pdb.reindex();
  return pdb;
}

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ascii_ = writeToString(samplePdb());
    path_ = (dir_ / "sample.pdb").string();
    std::ofstream os(path_, std::ios::binary);
    os.write(ascii_.data(), static_cast<std::streamsize>(ascii_.size()));
  }

  testutil::TempDir dir_{"pdt_snap_"};
  std::string path_;
  std::string ascii_;
};

TEST_F(SnapshotTest, OpenLoadsAllSectionsWithAUniqueGeneration) {
  const OpenResult a = open(path_);
  const OpenResult b = open(path_);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.snapshot->byteSize(), ascii_.size());
  // Generations are process-unique and monotone: re-opening the same
  // file is a new generation (that is what pdbd's hot-swap observes).
  EXPECT_LT(a.snapshot->generation(), b.snapshot->generation());
  EXPECT_GT(a.snapshot->generation(), 0u);
  EXPECT_EQ(writeToString(a.snapshot->pdb()), ascii_);
}

TEST_F(SnapshotTest, OpenFailureDistinguishesMissingFromMalformed) {
  const OpenResult missing = open((dir_ / "absent.pdb").string());
  EXPECT_FALSE(missing.ok());
  EXPECT_FALSE(missing.opened);
  EXPECT_EQ(missing.snapshot, nullptr);

  const std::string bad_path = (dir_ / "bad.pdb").string();
  std::ofstream(bad_path) << "this is not a database\n";
  const OpenResult bad = open(bad_path);
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.opened);
  ASSERT_FALSE(bad.errors.empty());
}

TEST_F(SnapshotTest, MaskedOpenLoadsOnlyTheRequestedSections) {
  const OpenResult narrow = open(path_, Sections::SourceFiles);
  ASSERT_TRUE(narrow.ok());
  EXPECT_EQ(narrow.snapshot->pdb().sourceFiles().size(), 2u);
  EXPECT_TRUE(narrow.snapshot->pdb().routines().empty());
}

TEST_F(SnapshotTest, ReleaseFromTheSoleOwnerMovesTheRecords) {
  OpenResult opened = open(path_);
  ASSERT_TRUE(opened.ok());
  const RoutineItem* routines = opened.snapshot->pdb().routines().data();
  const SourceFileItem* files = opened.snapshot->pdb().sourceFiles().data();
  const PdbFile pdb = releasePdb(std::move(opened.snapshot));
  EXPECT_EQ(pdb.routines().data(), routines);
  EXPECT_EQ(pdb.sourceFiles().data(), files);
  EXPECT_EQ(writeToString(pdb), ascii_);
}

TEST_F(SnapshotTest, ReleaseFromASharedSnapshotCopiesAndLeavesItIntact) {
  const OpenResult opened = open(path_);
  ASSERT_TRUE(opened.ok());
  const RoutineItem* routines = opened.snapshot->pdb().routines().data();
  SnapshotPtr held = opened.snapshot;
  const PdbFile pdb = releasePdb(std::move(held));
  EXPECT_NE(pdb.routines().data(), routines);
  EXPECT_EQ(opened.snapshot->pdb().routines().data(), routines);
  EXPECT_EQ(writeToString(opened.snapshot->pdb()), ascii_);
  EXPECT_EQ(writeToString(pdb), ascii_);
}

}  // namespace
}  // namespace pdt::pdb
