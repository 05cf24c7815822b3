// Concurrency contract of the pdbd service (run under
// -DPDT_SANITIZE=thread in CI): N client threads query while a writer
// hot-swaps database generations. Every response must be attributable
// to exactly one generation — its text is byte-identical to one of the
// two databases' expected renderings, and one generation never yields
// two different texts. The query path takes no locks; TSan verifies the
// atomic shared_ptr publication is the only synchronization needed. A
// second test releases every reader onto a freshly published generation
// at once, so the first touches of its reply memo and of its lazily
// built def-use index and analysis context all race.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/temp_dir.h"
#include "frontend/frontend.h"
#include "ilanalyzer/analyzer.h"
#include "pdb/writer.h"
#include "pdbd/proto.h"
#include "pdbd/service.h"

namespace pdt::pdbd {
namespace {

namespace fs = std::filesystem;

constexpr const char* kAlpha = R"(
class Base {
public:
    virtual void act() {}
};
void leaf() {}
void driver(Base& b) {
    b.act();
    leaf();
}
)";

constexpr const char* kBeta = R"(
int helper(int a) {
    int t = a;
    t = a + 1;
    return t;
}
int entry() { return helper(2); }
)";

std::string compileToFile(const fs::path& path, const std::string& name,
                          const std::string& source) {
  SourceManager sm;
  DiagnosticEngine diags;
  frontend::Frontend fe(sm, diags);
  auto result = fe.compileSource(name, source);
  const std::string text = pdb::writeToString(ilanalyzer::analyze(result, sm));
  std::ofstream os(path, std::ios::binary);
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
  return path.string();
}

TEST(ServiceMt, ConcurrentQueriesSurviveHotSwapsUntorn) {
  const testutil::TempDir dir("pdt_pdbd_mt_");
  const std::string alpha = compileToFile(dir / "alpha.pdb", "a.cpp", kAlpha);
  const std::string beta = compileToFile(dir / "beta.pdb", "b.cpp", kBeta);

  Service service;
  std::string error;
  ASSERT_TRUE(service.load(alpha, error)) << error;

  // Expected texts, computed single-threaded through the same service
  // before any concurrency starts.
  const auto textOf = [&service](const char* verb) {
    Message req;
    std::string perr;
    EXPECT_TRUE(parseMessage(std::string(R"({"q": ")") + verb + R"("})", req,
                             perr));
    Message resp;
    EXPECT_TRUE(parseMessage(service.handle(req), resp, perr));
    EXPECT_TRUE(resp.flag("ok"));
    return resp.str("text");
  };
  const std::string alpha_calls = textOf("calltree");
  const std::string alpha_classes = textOf("hierarchy");
  std::string swap_err;
  ASSERT_TRUE(service.load(beta, swap_err)) << swap_err;
  const std::string beta_calls = textOf("calltree");
  const std::string beta_classes = textOf("hierarchy");
  ASSERT_NE(alpha_calls, beta_calls);
  ASSERT_TRUE(service.load(alpha, swap_err)) << swap_err;

  constexpr int kReaders = 4;
  constexpr int kQueriesPerReader = 120;
  // Readers that hit their quota before observing a second generation
  // keep querying (the writer is still swapping) up to this many extra
  // iterations — generous enough for any scheduler, small enough to
  // fail rather than hang if publication were broken.
  constexpr int kMaxQueriesPerReader = kQueriesPerReader * 500;

  std::atomic<bool> start{false};
  std::atomic<int> torn{0};
  std::atomic<int> done_readers{0};
  // generation id -> (calltree text, hierarchy text), merged across
  // readers after the fact; a generation that ever shows two texts is a
  // torn read.
  std::mutex seen_mu;
  std::map<std::uint64_t, std::pair<std::string, std::string>> seen;

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      Message calls_req, classes_req;
      std::string perr;
      ASSERT_TRUE(parseMessage(R"({"q": "calltree"})", calls_req, perr));
      ASSERT_TRUE(parseMessage(R"({"q": "hierarchy"})", classes_req, perr));
      std::set<std::uint64_t> observed;
      for (int i = 0;
           i < kQueriesPerReader ||
           (observed.size() < 2 && i < kMaxQueriesPerReader);
           ++i) {
        const bool want_calls = (i % 2) == 0;
        Message resp;
        ASSERT_TRUE(parseMessage(
            service.handle(want_calls ? calls_req : classes_req), resp, perr));
        ASSERT_TRUE(resp.flag("ok"));
        const auto gen = static_cast<std::uint64_t>(resp.num("generation"));
        observed.insert(gen);
        const std::string text = resp.str("text");
        // The text must be exactly one database's rendering...
        if (want_calls) {
          if (text != alpha_calls && text != beta_calls) {
            torn.fetch_add(1);
            continue;
          }
        } else if (text != alpha_classes && text != beta_classes) {
          torn.fetch_add(1);
          continue;
        }
        // ...and one generation must never answer with two databases.
        std::lock_guard<std::mutex> lock(seen_mu);
        auto [it, inserted] = seen.try_emplace(gen);
        std::string& slot = want_calls ? it->second.first : it->second.second;
        if (slot.empty()) {
          slot = text;
        } else if (slot != text) {
          torn.fetch_add(1);
        }
      }
      done_readers.fetch_add(1, std::memory_order_release);
    });
  }

  // The writer swaps for as long as any reader is still querying; the
  // readers above don't stop until they have each seen two generations.
  // Together that pins the interleaving regardless of scheduling: on a
  // single-core machine the readers can burn through their whole quota
  // before this thread first runs, and a fixed swap count would then
  // exercise exactly one generation.
  std::thread writer([&] {
    while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
    for (int i = 0; done_readers.load(std::memory_order_acquire) < kReaders;
         ++i) {
      std::string werr;
      ASSERT_TRUE(service.load((i % 2) == 0 ? beta : alpha, werr)) << werr;
      // Pace against the readers: wait for at least one query to be
      // answered after this swap, so generations actually interleave
      // with queries instead of the writer spinning through loads.
      const std::uint64_t mark = service.queriesServed();
      while (service.queriesServed() == mark &&
             done_readers.load(std::memory_order_acquire) < kReaders)
        std::this_thread::yield();
    }
  });

  start.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  writer.join();

  EXPECT_EQ(torn.load(), 0);
  // The run actually exercised multiple generations.
  EXPECT_GT(seen.size(), 1u);
  // Consistency across verbs inside one generation: a generation whose
  // calltree is alpha's must not show beta's hierarchy.
  for (const auto& [gen, texts] : seen) {
    const auto& [calls, classes] = texts;
    if (calls.empty() || classes.empty()) continue;
    const bool is_alpha = calls == alpha_calls;
    EXPECT_EQ(classes, is_alpha ? alpha_classes : beta_classes)
        << "generation " << gen << " mixed databases";
  }
}

TEST(ServiceMt, ReadersFirstTouchAFreshGenerationTogether) {
  const testutil::TempDir dir("pdt_pdbd_mt_fresh_");
  // Both sources in one database, so the call tree has a class member
  // and beta's helper has def-use streams.
  const std::string db = compileToFile(dir / "both.pdb", "both.cpp",
                                       std::string(kAlpha) + kBeta);

  const char* const kRequests[] = {
      R"({"q": "calltree"})",
      R"({"q": "check"})",
      R"({"q": "defuse", "routine": "helper", "defs": true, "uses": true})",
  };
  constexpr int kVerbs = 3;
  // Expected texts from a separate service, so the generations under
  // test start with an empty memo and no def-use or analysis index.
  std::string expected[kVerbs];
  {
    Service reference;
    std::string error;
    ASSERT_TRUE(reference.load(db, error)) << error;
    for (int v = 0; v < kVerbs; ++v) {
      Message req, resp;
      std::string perr;
      ASSERT_TRUE(parseMessage(kRequests[v], req, perr));
      ASSERT_TRUE(parseMessage(reference.handle(req), resp, perr));
      ASSERT_TRUE(resp.flag("ok")) << kRequests[v];
      expected[v] = resp.str("text");
    }
  }

  Service service;
  constexpr int kRounds = 6;
  constexpr int kReaders = 4;
  std::atomic<int> wrong{0};
  for (int round = 0; round < kRounds; ++round) {
    std::string error;
    ASSERT_TRUE(service.load(db, error)) << error;
    const auto generation = static_cast<std::int64_t>(service.current()->id);
    std::atomic<int> waiting{kReaders};
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        Message reqs[kVerbs];
        std::string perr;
        for (int v = 0; v < kVerbs; ++v)
          if (!parseMessage(kRequests[v], reqs[v], perr)) wrong.fetch_add(1);
        // Start together: every reader's first request is a first touch.
        waiting.fetch_sub(1, std::memory_order_acq_rel);
        while (waiting.load(std::memory_order_acquire) > 0)
          std::this_thread::yield();
        for (int k = 0; k < kVerbs; ++k) {
          const int v = (r + k) % kVerbs;
          Message resp;
          if (!parseMessage(service.handle(reqs[v]), resp, perr) ||
              !resp.flag("ok") || resp.num("generation") != generation ||
              resp.str("text") != expected[v])
            wrong.fetch_add(1);
        }
      });
    }
    for (std::thread& t : readers) t.join();
  }
  EXPECT_EQ(wrong.load(), 0);
}

}  // namespace
}  // namespace pdt::pdbd
