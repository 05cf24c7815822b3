// Golden pdb::validate messages: one corrupt item of each of the nine
// kinds, validated in all three offset units — read back from ASCII (line
// numbers), read back from binary (section-relative byte offsets), and as
// built in memory (no offset). Every message names the item, its id and
// where its record lives, then the dangling reference; any change to that
// text is a change to pdbcheck's output, so it is pinned here in full.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pdb/format.h"
#include "pdb/pdb.h"
#include "pdb/validate.h"

namespace pdt::pdb {
namespace {

/// Two sound source files plus one item of every other kind, each of
/// which references ids that do not exist (so#9x, ro#9x, ...).
PdbFile corruptPdb() {
  PdbFile pdb;
  SourceFileItem header;
  header.name = "a.h";
  const std::uint32_t a = pdb.addSourceFile(std::move(header));
  SourceFileItem impl;
  impl.name = "b.cpp";
  impl.includes = {a, 99};
  const std::uint32_t b = pdb.addSourceFile(std::move(impl));

  RoutineItem ro;
  ro.name = "f";
  ro.location = {98, 1, 1};
  ro.parent = ItemRef{ItemKind::Class, 97};
  ro.signature = 96;
  ro.template_id = 95;
  ro.calls.push_back({94, false, {93, 2, 3}});
  ro.extent = {{92, 1, 1}, {b, 1, 5}, {91, 1, 6}, {90, 4, 1}};
  pdb.addRoutine(std::move(ro));

  ClassItem cl;
  cl.name = "C";
  cl.location = {89, 1, 1};
  cl.parent = ItemRef{ItemKind::Namespace, 88};
  cl.template_id = 87;
  cl.bases.push_back({86, "pub", false});
  cl.friends.push_back({false, "g", ItemRef{ItemKind::Routine, 85}});
  cl.funcs.push_back({84, {83, 2, 2}});
  ClassItem::Member member;
  member.name = "m";
  member.location = {82, 3, 3};
  member.type = {ItemKind::Type, 81};
  cl.members.push_back(member);
  cl.extent = {{a, 1, 1}, {a, 1, 2}, {80, 1, 3}, {a, 9, 1}};
  pdb.addClass(std::move(cl));

  TypeItem ty;
  ty.name = "int (*)(long)";
  ty.kind = "func";
  ty.ref = ItemRef{ItemKind::Type, 79};
  ty.return_type = ItemRef{ItemKind::Class, 78};
  ty.params.push_back({ItemKind::Type, 77});
  ty.has_exception_spec = true;
  ty.exception_specs.push_back({ItemKind::Class, 76});
  pdb.addType(std::move(ty));

  TemplateItem te;
  te.name = "T";
  te.location = {75, 1, 1};
  te.parent = ItemRef{ItemKind::Namespace, 74};
  te.extent = {{73, 1, 1}, {a, 1, 2}, {a, 1, 3}, {a, 1, 4}};
  pdb.addTemplate(std::move(te));

  NamespaceItem na;
  na.name = "N";
  na.location = {72, 1, 1};
  na.members.push_back({ItemKind::Macro, 71});
  pdb.addNamespace(std::move(na));

  MacroItem ma;
  ma.name = "M";
  ma.location = {70, 1, 1};
  pdb.addMacro(std::move(ma));

  DefUseItem du;
  du.routine = 69;
  du.events.push_back({DuOp::Def, 0, "x", {68, 5, 5}});
  du.events.push_back({DuOp::Use, 0, "x", {b, 6, 6}});
  pdb.addDefUse(std::move(du));

  DynProfItem dp;
  dp.name = "f()";
  dp.routine = 67;
  dp.calls = 1;
  dp.inclusive_ns = 1;
  dp.exclusive_ns = 2;
  pdb.addDynProf(std::move(dp));
  return pdb;
}

std::vector<std::string> validateAs(Format format) {
  const std::string bytes = writeString(corruptPdb(), format);
  const ReadResult read = readBuffer(bytes);
  EXPECT_TRUE(read.ok());
  return validate(read.pdb);
}

TEST(ValidateGolden, InMemoryMessagesCarryNoOffset) {
  const std::vector<std::string> expected = {
      "source file 'b.cpp' (so#2): includes undefined so#99",
      "routine 'f' (ro#1): location references undefined so#98",
      "routine 'f' (ro#1): parent references undefined cl#97",
      "routine 'f' (ro#1): signature references undefined ty#96",
      "routine 'f' (ro#1): rtempl references undefined te#95",
      "routine 'f' (ro#1): call references undefined ro#94",
      "routine 'f' (ro#1): call site references undefined so#93",
      "routine 'f' (ro#1): header begin references undefined so#92",
      "routine 'f' (ro#1): body begin references undefined so#91",
      "routine 'f' (ro#1): body end references undefined so#90",
      "class 'C' (cl#1): location references undefined so#89",
      "class 'C' (cl#1): parent references undefined na#88",
      "class 'C' (cl#1): ctempl references undefined te#87",
      "class 'C' (cl#1): base references undefined cl#86",
      "class 'C' (cl#1): friend references undefined ro#85",
      "class 'C' (cl#1): member function references undefined ro#84",
      "class 'C' (cl#1): member function references undefined so#83",
      "class 'C' (cl#1): member 'm' type references undefined ty#81",
      "class 'C' (cl#1): member 'm' references undefined so#82",
      "class 'C' (cl#1): body begin references undefined so#80",
      "type 'int (*)(long)' (ty#1): referenced type references undefined ty#79",
      "type 'int (*)(long)' (ty#1): return type references undefined cl#78",
      "type 'int (*)(long)' (ty#1): parameter type references undefined ty#77",
      "type 'int (*)(long)' (ty#1): exception spec references undefined cl#76",
      "template 'T' (te#1): location references undefined so#75",
      "template 'T' (te#1): parent references undefined na#74",
      "template 'T' (te#1): header begin references undefined so#73",
      "namespace 'N' (na#1): location references undefined so#72",
      "namespace 'N' (na#1): member references undefined ma#71",
      "macro 'M' (ma#1): location references undefined so#70",
      "def-use stream (du#1): belongs to undefined ro#69",
      "def-use stream (du#1): event 'x' references undefined so#68",
      "dynamic profile 'f()' (dp#1): links undefined ro#67",
      "dynamic profile 'f()' (dp#1): inclusive time 1ns below exclusive time 2ns",
  };
  EXPECT_EQ(validate(corruptPdb()), expected);
}

TEST(ValidateGolden, AsciiMessagesCarryLineNumbers) {
  const std::vector<std::string> expected = {
      "source file 'b.cpp' (so#2, line 5): includes undefined so#99",
      "routine 'f' (ro#1, line 15): location references undefined so#98",
      "routine 'f' (ro#1, line 15): parent references undefined cl#97",
      "routine 'f' (ro#1, line 15): signature references undefined ty#96",
      "routine 'f' (ro#1, line 15): rtempl references undefined te#95",
      "routine 'f' (ro#1, line 15): call references undefined ro#94",
      "routine 'f' (ro#1, line 15): call site references undefined so#93",
      "routine 'f' (ro#1, line 15): header begin references undefined so#92",
      "routine 'f' (ro#1, line 15): body begin references undefined so#91",
      "routine 'f' (ro#1, line 15): body end references undefined so#90",
      "class 'C' (cl#1, line 27): location references undefined so#89",
      "class 'C' (cl#1, line 27): parent references undefined na#88",
      "class 'C' (cl#1, line 27): ctempl references undefined te#87",
      "class 'C' (cl#1, line 27): base references undefined cl#86",
      "class 'C' (cl#1, line 27): friend references undefined ro#85",
      "class 'C' (cl#1, line 27): member function references undefined ro#84",
      "class 'C' (cl#1, line 27): member function references undefined so#83",
      "class 'C' (cl#1, line 27): member 'm' type references undefined ty#81",
      "class 'C' (cl#1, line 27): member 'm' references undefined so#82",
      "class 'C' (cl#1, line 27): body begin references undefined so#80",
      "type 'int (*)(long)' (ty#1, line 42): referenced type references undefined ty#79",
      "type 'int (*)(long)' (ty#1, line 42): return type references undefined cl#78",
      "type 'int (*)(long)' (ty#1, line 42): parameter type references undefined ty#77",
      "type 'int (*)(long)' (ty#1, line 42): exception spec references undefined cl#76",
      "template 'T' (te#1, line 9): location references undefined so#75",
      "template 'T' (te#1, line 9): parent references undefined na#74",
      "template 'T' (te#1, line 9): header begin references undefined so#73",
      "namespace 'N' (na#1, line 49): location references undefined so#72",
      "namespace 'N' (na#1, line 49): member references undefined ma#71",
      "macro 'M' (ma#1, line 53): location references undefined so#70",
      "def-use stream (du#1, line 57): belongs to undefined ro#69",
      "def-use stream (du#1, line 57): event 'x' references undefined so#68",
      "dynamic profile 'f()' (dp#1, line 61): links undefined ro#67",
      "dynamic profile 'f()' (dp#1, line 61): inclusive time 1ns below exclusive time 2ns",
  };
  EXPECT_EQ(validateAs(Format::Ascii), expected);
}

TEST(ValidateGolden, BinaryMessagesCarrySectionByteOffsets) {
  const std::vector<std::string> expected = {
      "source file 'b.cpp' (so#2, byte 345 of so section): includes undefined so#99",
      "routine 'f' (ro#1, byte 451 of ro section): location references undefined so#98",
      "routine 'f' (ro#1, byte 451 of ro section): parent references undefined cl#97",
      "routine 'f' (ro#1, byte 451 of ro section): signature references undefined ty#96",
      "routine 'f' (ro#1, byte 451 of ro section): rtempl references undefined te#95",
      "routine 'f' (ro#1, byte 451 of ro section): call references undefined ro#94",
      "routine 'f' (ro#1, byte 451 of ro section): call site references undefined so#93",
      "routine 'f' (ro#1, byte 451 of ro section): header begin references undefined so#92",
      "routine 'f' (ro#1, byte 451 of ro section): body begin references undefined so#91",
      "routine 'f' (ro#1, byte 451 of ro section): body end references undefined so#90",
      "class 'C' (cl#1, byte 575 of cl section): location references undefined so#89",
      "class 'C' (cl#1, byte 575 of cl section): parent references undefined na#88",
      "class 'C' (cl#1, byte 575 of cl section): ctempl references undefined te#87",
      "class 'C' (cl#1, byte 575 of cl section): base references undefined cl#86",
      "class 'C' (cl#1, byte 575 of cl section): friend references undefined ro#85",
      "class 'C' (cl#1, byte 575 of cl section): member function references undefined ro#84",
      "class 'C' (cl#1, byte 575 of cl section): member function references undefined so#83",
      "class 'C' (cl#1, byte 575 of cl section): member 'm' type references undefined ty#81",
      "class 'C' (cl#1, byte 575 of cl section): member 'm' references undefined so#82",
      "class 'C' (cl#1, byte 575 of cl section): body begin references undefined so#80",
      "type 'int (*)(long)' (ty#1, byte 742 of ty section): referenced type references undefined ty#79",
      "type 'int (*)(long)' (ty#1, byte 742 of ty section): return type references undefined cl#78",
      "type 'int (*)(long)' (ty#1, byte 742 of ty section): parameter type references undefined ty#77",
      "type 'int (*)(long)' (ty#1, byte 742 of ty section): exception spec references undefined cl#76",
      "template 'T' (te#1, byte 366 of te section): location references undefined so#75",
      "template 'T' (te#1, byte 366 of te section): parent references undefined na#74",
      "template 'T' (te#1, byte 366 of te section): header begin references undefined so#73",
      "namespace 'N' (na#1, byte 803 of na section): location references undefined so#72",
      "namespace 'N' (na#1, byte 803 of na section): member references undefined ma#71",
      "macro 'M' (ma#1, byte 836 of ma section): location references undefined so#70",
      "def-use stream (du#1, byte 864 of du section): belongs to undefined ro#69",
      "def-use stream (du#1, byte 864 of du section): event 'x' references undefined so#68",
      "dynamic profile 'f()' (dp#1, byte 912 of dp section): links undefined ro#67",
      "dynamic profile 'f()' (dp#1, byte 912 of dp section): inclusive time 1ns below exclusive time 2ns",
  };
  EXPECT_EQ(validateAs(Format::Binary), expected);
}

// Ids are unique per kind. Here ro#1 names two routines: a reader keeps
// the last one in its id index, so without this check tools would wire
// `first`'s call to `again` and answer wrong without a word.
constexpr const char* kRepeatedRoutineId =
    "<PDB 1.0>\n"
    "\n"
    "ro#1 first\n"
    "rcall ro#2 no NULL 0 0\n"
    "\n"
    "ro#2 callee\n"
    "\n"
    "ro#1 again\n";

TEST(ValidateGolden, RepeatedIdNamesBothRecords) {
  const ReadResult read = readBuffer(kRepeatedRoutineId);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read.pdb.routines().size(), 3u);
  const std::vector<std::string> expected = {
      "routine 'first' (ro#1, line 3): id repeated by routine 'again' (line 8)",
  };
  EXPECT_EQ(validate(read.pdb), expected);

  PdbFile built;
  for (const auto& [id, name] : {std::pair<std::uint32_t, std::string_view>{1, "first"},
                                 {2, "callee"},
                                 {1, "again"}}) {
    RoutineItem r;
    r.id = id;
    r.name = name;
    built.addRoutine(std::move(r));
  }
  EXPECT_EQ(validate(built),
            std::vector<std::string>{
                "routine 'first' (ro#1): id repeated by routine 'again'"});
}

}  // namespace
}  // namespace pdt::pdb
