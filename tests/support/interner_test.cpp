// Tests for the process-global string interner backing the PDB reader's
// string_view attribute fields.
#include "support/interner.h"

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <thread>
#include <vector>

namespace pdt {
namespace {

TEST(Interner, ReturnsStableEqualContent) {
  const std::string_view a = internString("pdt-interner-test-pub");
  EXPECT_EQ(a, "pdt-interner-test-pub");
  // A second request with equal content (different backing buffer) must
  // return the exact same storage.
  const std::string copy("pdt-interner-test-pub");
  const std::string_view b = internString(copy);
  EXPECT_EQ(a.data(), b.data());
  EXPECT_EQ(a.size(), b.size());
}

TEST(Interner, DistinctStringsGetDistinctStorage) {
  const std::string_view a = internString("pdt-interner-test-x");
  const std::string_view b = internString("pdt-interner-test-y");
  EXPECT_NE(a.data(), b.data());
  EXPECT_EQ(a, "pdt-interner-test-x");
  EXPECT_EQ(b, "pdt-interner-test-y");
}

TEST(Interner, CountGrowsOnlyForNewStrings) {
  const std::size_t before = internedStringCount();
  (void)internString("pdt-interner-test-count-probe");
  const std::size_t after_first = internedStringCount();
  EXPECT_EQ(after_first, before + 1);
  (void)internString("pdt-interner-test-count-probe");
  EXPECT_EQ(internedStringCount(), after_first);
}

TEST(Interner, ConcurrentInterningConverges) {
  // All threads intern the same small vocabulary; every thread must end up
  // with pointer-identical views for equal content.
  const std::vector<std::string> vocab = {
      "pdt-interner-mt-a", "pdt-interner-mt-b", "pdt-interner-mt-c"};
  std::vector<std::future<std::vector<const char*>>> futures;
  for (int t = 0; t < 4; ++t) {
    futures.push_back(std::async(std::launch::async, [&vocab] {
      std::vector<const char*> ptrs;
      for (int round = 0; round < 100; ++round) {
        for (const std::string& word : vocab) {
          ptrs.push_back(internString(word).data());
        }
      }
      return ptrs;
    }));
  }
  std::vector<std::vector<const char*>> results;
  for (auto& f : futures) results.push_back(f.get());
  for (const auto& ptrs : results) {
    ASSERT_EQ(ptrs.size(), results.front().size());
    for (std::size_t i = 0; i < ptrs.size(); ++i) {
      EXPECT_EQ(ptrs[i], results.front()[i]);
    }
  }
}

}  // namespace
}  // namespace pdt
