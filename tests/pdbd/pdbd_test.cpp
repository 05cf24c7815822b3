// pdbd unit tests: the flat JSON protocol round-trips and rejects what
// it must, the service answers every verb byte-identically to the
// one-shot tools, memoized whole-database replies match a fresh render
// and follow swaps, failed swaps keep the old generation serving, the
// connection loop handles framing (multiple requests per read, requests
// split across reads, malformed lines, over-long lines) over a plain
// socketpair, and the accept loop joins finished connection threads.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "analysis/checker.h"
#include "common/temp_dir.h"
#include "frontend/frontend.h"
#include "ilanalyzer/analyzer.h"
#include "pdb/snapshot.h"
#include "pdb/writer.h"
#include "pdbd/proto.h"
#include "pdbd/server.h"
#include "pdbd/service.h"
#include "query/render.h"
#include "tools/tools.h"

namespace pdt::pdbd {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// proto
// ---------------------------------------------------------------------------

TEST(Proto, ParsesEveryValueKind) {
  Message m;
  std::string error;
  ASSERT_TRUE(parseMessage(
      R"({"q": "defuse", "line": 12, "neg": -3, "defs": true, )"
      R"("uses": false, "none": null})",
      m, error));
  EXPECT_EQ(m.str("q"), "defuse");
  EXPECT_EQ(m.num("line"), 12);
  EXPECT_EQ(m.num("neg"), -3);
  EXPECT_TRUE(m.flag("defs"));
  EXPECT_FALSE(m.flag("uses"));
  EXPECT_FALSE(m.has("none"));
  EXPECT_EQ(m.num("absent", 7), 7);
}

TEST(Proto, UnescapesStrings) {
  Message m;
  std::string error;
  ASSERT_TRUE(parseMessage(R"({"name": "a\"b\\c\ndA"})", m, error));
  EXPECT_EQ(m.str("name"), "a\"b\\c\ndA");
}

TEST(Proto, RejectsMalformedInput) {
  Message m;
  std::string error;
  EXPECT_FALSE(parseMessage("", m, error));
  EXPECT_FALSE(parseMessage("not json", m, error));
  EXPECT_FALSE(parseMessage(R"({"q": "x")", m, error));
  EXPECT_FALSE(parseMessage(R"({"q": {"nested": 1}})", m, error));
  EXPECT_FALSE(parseMessage(R"({"q": [1]})", m, error));
  EXPECT_FALSE(parseMessage(R"({"q": 1.5})", m, error));
  EXPECT_FALSE(parseMessage(R"({"q": "x"} trailing)", m, error));
  EXPECT_FALSE(error.empty());
}

TEST(Proto, WriterRoundTripsThroughTheParser) {
  MessageWriter w;
  w.field("q", std::string_view("lookup"));
  w.field("name", std::string_view("Stack<int>::push \"quoted\"\n"));
  w.field("generation", std::uint64_t{42});
  w.field("ok", true);
  const std::string line = w.finish();

  Message m;
  std::string error;
  ASSERT_TRUE(parseMessage(line, m, error)) << line;
  EXPECT_EQ(m.str("q"), "lookup");
  EXPECT_EQ(m.str("name"), "Stack<int>::push \"quoted\"\n");
  EXPECT_EQ(m.num("generation"), 42);
  EXPECT_TRUE(m.flag("ok"));
}

// ---------------------------------------------------------------------------
// service
// ---------------------------------------------------------------------------

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

Message roundTrip(const std::string& response) {
  Message m;
  std::string error;
  EXPECT_TRUE(parseMessage(response, m, error)) << response;
  return m;
}

Message ask(Service& service, const std::string& request) {
  Message req;
  std::string error;
  EXPECT_TRUE(parseMessage(request, req, error)) << request;
  return roundTrip(service.handle(req));
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    alpha_ = compileToFile(dir_ / "alpha.pdb", "alpha.cpp", kAlpha);
    beta_ = compileToFile(dir_ / "beta.pdb", "beta.cpp", kBeta);
  }

  testutil::TempDir dir_{"pdt_pdbd_"};
  std::string alpha_;
  std::string beta_;
};

TEST_F(ServiceTest, AnswersBeforeLoadWithNoDatabase) {
  Service service;
  const Message m = ask(service, R"({"q": "status"})");
  EXPECT_FALSE(m.flag("ok"));
  EXPECT_EQ(m.str("code"), "no-database");
}

TEST_F(ServiceTest, TreeVerbsMatchTheOneShotTool) {
  Service service;
  std::string error;
  ASSERT_TRUE(service.load(alpha_, error)) << error;
  const ductape::PDB pdb = ductape::PDB::read(alpha_);
  ASSERT_TRUE(pdb.valid());

  const struct {
    const char* verb;
    tools::TreeKind kind;
  } verbs[] = {
      {"includes", tools::TreeKind::Includes},
      {"hierarchy", tools::TreeKind::ClassHierarchy},
      {"calltree", tools::TreeKind::CallGraph},
      {"profile", tools::TreeKind::Profile},
  };
  for (const auto& [verb, kind] : verbs) {
    const Message m =
        ask(service, std::string(R"({"q": ")") + verb + R"("})");
    ASSERT_TRUE(m.flag("ok")) << verb;
    std::ostringstream ref;
    tools::pdbtree(pdb, kind, ref);
    EXPECT_EQ(m.str("text"), ref.str()) << verb;
    EXPECT_EQ(m.num("generation"),
              static_cast<std::int64_t>(service.current()->id));
  }
}

TEST_F(ServiceTest, LookupAndDefuseAndCheckAnswer) {
  Service service;
  std::string error;
  ASSERT_TRUE(service.load(beta_, error)) << error;

  const Message lookup = ask(service, R"({"q": "lookup", "name": "helper"})");
  ASSERT_TRUE(lookup.flag("ok"));
  EXPECT_NE(lookup.str("text").find("ro#"), std::string::npos);
  EXPECT_NE(lookup.str("text").find("helper"), std::string::npos);

  const Message du = ask(
      service, R"({"q": "defuse", "routine": "helper", "var": "t", )"
               R"("defs": true})");
  ASSERT_TRUE(du.flag("ok"));
  EXPECT_NE(du.str("text").find("use of 't'"), std::string::npos);

  const Message check = ask(service, R"({"q": "check"})");
  ASSERT_TRUE(check.flag("ok"));
  EXPECT_NE(check.str("text").find("check(s)"), std::string::npos);
}

TEST_F(ServiceTest, RejectsBadRequests) {
  Service service;
  std::string error;
  ASSERT_TRUE(service.load(alpha_, error)) << error;
  EXPECT_EQ(ask(service, R"({"name": "x"})").str("code"), "bad-request");
  EXPECT_EQ(ask(service, R"({"q": "frobnicate"})").str("code"), "bad-verb");
  EXPECT_EQ(ask(service, R"({"q": "lookup"})").str("code"), "bad-request");
  EXPECT_EQ(ask(service, R"({"q": "swap"})").str("code"), "bad-request");
  EXPECT_EQ(ask(service, R"({"q": "check", "format": "yaml"})").str("code"),
            "bad-request");
}

TEST_F(ServiceTest, SwapPublishesANewGenerationAndFailureKeepsTheOld) {
  Service service;
  std::string error;
  ASSERT_TRUE(service.load(alpha_, error)) << error;
  const std::uint64_t first = service.current()->id;

  const Message swapped =
      ask(service, std::string(R"({"q": "swap", "db": ")") + beta_ + R"("})");
  ASSERT_TRUE(swapped.flag("ok"));
  EXPECT_GT(static_cast<std::uint64_t>(swapped.num("generation")), first);
  EXPECT_EQ(service.current()->db_path, beta_);

  // The new database answers; the calltree is beta's, not alpha's.
  const Message calls = ask(service, R"({"q": "calltree"})");
  EXPECT_NE(calls.str("text").find("entry"), std::string::npos);
  EXPECT_EQ(calls.str("text").find("driver"), std::string::npos);

  // A failed swap is reported and the current generation keeps serving.
  const std::uint64_t before = service.current()->id;
  const Message failed = ask(
      service,
      std::string(R"({"q": "swap", "db": ")") + (dir_ / "gone.pdb").string() +
          R"("})");
  EXPECT_FALSE(failed.flag("ok"));
  EXPECT_EQ(failed.str("code"), "open-failed");
  EXPECT_EQ(service.current()->id, before);
  EXPECT_EQ(service.current()->db_path, beta_);
}

/// The reply `verb` would get from a fresh render of `db` (no memo),
/// stamped with `generation`: the four tree verbs, and check with
/// `options`.
std::string freshReply(const std::string& db, std::uint64_t generation,
                       const std::string& verb,
                       const analysis::CheckOptions& options = {}) {
  const pdb::OpenResult opened = pdb::open(db);
  EXPECT_TRUE(opened.ok()) << db;
  const query::Index index(opened.snapshot);
  std::ostringstream os;
  MessageWriter w;
  w.field("ok", true).field("generation", generation);
  if (verb == "check") {
    const analysis::CheckResult result =
        analysis::runChecks(index.analysis(), options);
    analysis::render(result, options, os);
    w.field("findings", result.hasFindings());
  } else {
    const query::Tree tree = verb == "includes"    ? query::Tree::Includes
                             : verb == "hierarchy" ? query::Tree::ClassHierarchy
                             : verb == "calltree"  ? query::Tree::CallGraph
                                                   : query::Tree::Profile;
    query::renderTree(index, tree, os);
  }
  return w.field("text", os.str()).finish();
}

const char* const kMemoVerbs[] = {"includes", "hierarchy", "calltree",
                                  "profile", "check"};

TEST_F(ServiceTest, MemoizedRepliesMatchAFreshRenderAndShareOneBuffer) {
  Service service;
  std::string error;
  ASSERT_TRUE(service.load(beta_, error)) << error;
  const std::uint64_t id = service.current()->id;
  for (const char* verb : kMemoVerbs) {
    const Message req = roundTrip(std::string(R"({"q": ")") + verb + R"("})");
    const Reply first = service.answer(req);
    const Reply second = service.answer(req);
    EXPECT_EQ(first.line(), freshReply(beta_, id, verb)) << verb;
    EXPECT_EQ(second.line(), first.line()) << verb;
    EXPECT_EQ(service.handle(req), first.line()) << verb;
    // The second request is sent from the first one's bytes, uncopied.
    EXPECT_EQ(second.line().data(), first.line().data()) << verb;
  }
  // "checks": "all" spelled out is the same request as the default.
  const Message all = roundTrip(R"({"q": "check", "checks": "all"})");
  EXPECT_EQ(service.handle(all), freshReply(beta_, id, "check"));
}

TEST_F(ServiceTest, CheckWithOtherOptionsIsNotAnsweredFromTheMemo) {
  Service service;
  std::string error;
  ASSERT_TRUE(service.load(beta_, error)) << error;
  const std::uint64_t id = service.current()->id;
  const std::string text = service.handle(roundTrip(R"({"q": "check"})"));
  EXPECT_EQ(text, freshReply(beta_, id, "check"));

  analysis::CheckOptions dead;
  dead.checks = "dead-code";
  const std::string dead_line =
      service.handle(roundTrip(R"({"q": "check", "checks": "dead-code"})"));
  EXPECT_EQ(dead_line, freshReply(beta_, id, "check", dead));
  EXPECT_NE(dead_line, text);

  analysis::CheckOptions json;
  json.format = analysis::CheckOptions::Format::Json;
  const Message json_req = roundTrip(R"({"q": "check", "format": "json"})");
  const std::string json_line = service.handle(json_req);
  EXPECT_EQ(json_line, freshReply(beta_, id, "check", json));
  EXPECT_NE(json_line, text);
  EXPECT_EQ(service.handle(json_req), json_line);

  // An unknown rule still fails, and the memo is left as it was.
  EXPECT_EQ(ask(service, R"({"q": "check", "checks": "no-such-rule"})")
                .str("code"),
            "check-failed");
  EXPECT_EQ(service.handle(roundTrip(R"({"q": "check"})")), text);
}

TEST_F(ServiceTest, SwapAnswersFromTheNewGenerationsMemo) {
  Service service;
  std::string error;
  ASSERT_TRUE(service.load(alpha_, error)) << error;
  for (const char* verb : kMemoVerbs)
    (void)service.handle(roundTrip(std::string(R"({"q": ")") + verb + R"("})"));

  ASSERT_TRUE(ask(service, std::string(R"({"q": "swap", "db": ")") + beta_ +
                               R"("})")
                  .flag("ok"));
  const std::uint64_t id = service.current()->id;
  for (const char* verb : kMemoVerbs) {
    const std::string line =
        service.handle(roundTrip(std::string(R"({"q": ")") + verb + R"("})"));
    EXPECT_EQ(line, freshReply(beta_, id, verb)) << verb;
    EXPECT_EQ(roundTrip(line).num("generation"), static_cast<std::int64_t>(id));
  }
}

TEST_F(ServiceTest, SwapReplyHoldsTheRetiredGenerationUntilDropped) {
  Service service;
  std::string error;
  ASSERT_TRUE(service.load(alpha_, error)) << error;
  const std::weak_ptr<const Generation> old = service.current();
  (void)service.handle(roundTrip(R"({"q": "calltree"})"));
  ASSERT_FALSE(old.expired());

  auto reply = std::make_unique<Reply>(service.answer(
      roundTrip(std::string(R"({"q": "swap", "db": ")") + beta_ + R"("})")));
  EXPECT_TRUE(roundTrip(std::string(reply->line())).flag("ok"));
  EXPECT_EQ(service.current()->db_path, beta_);
  EXPECT_FALSE(old.expired());  // the reply is its last holder
  reply.reset();
  EXPECT_TRUE(old.expired());
}

TEST_F(ServiceTest, ShutdownRaisesTheFlag) {
  Service service;
  std::string error;
  ASSERT_TRUE(service.load(alpha_, error)) << error;
  EXPECT_FALSE(service.shutdownRequested());
  const Message m = ask(service, R"({"q": "shutdown"})");
  EXPECT_TRUE(m.flag("ok"));
  EXPECT_TRUE(service.shutdownRequested());
}

// ---------------------------------------------------------------------------
// connection loop (over a socketpair; no listener needed)
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, ConnectionLoopFramesRequestsAndAnswersInOrder) {
  Service service;
  std::string error;
  ASSERT_TRUE(service.load(alpha_, error)) << error;

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::size_t served = 0;
  std::thread server([&] {
    served = serveConnection(fds[0], service);
    ::close(fds[0]);  // EOF for the client's read loop below
  });

  // Three requests: two in one write (testing multiple frames per read),
  // one malformed; then a request split across two writes.
  const std::string batch =
      R"({"q": "status"})" "\n" "this is not json\n";
  ASSERT_EQ(::send(fds[1], batch.data(), batch.size(), 0),
            static_cast<ssize_t>(batch.size()));
  const std::string split = R"({"q": "look)";
  const std::string rest = R"(up", "name": "leaf"})" "\n";
  ASSERT_EQ(::send(fds[1], split.data(), split.size(), 0),
            static_cast<ssize_t>(split.size()));
  ASSERT_EQ(::send(fds[1], rest.data(), rest.size(), 0),
            static_cast<ssize_t>(rest.size()));
  ::shutdown(fds[1], SHUT_WR);

  std::string responses;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fds[1], buf, sizeof buf, 0);
    if (n <= 0) break;
    responses.append(buf, static_cast<std::size_t>(n));
  }
  server.join();
  ::close(fds[1]);

  EXPECT_EQ(served, 3u);
  std::istringstream lines(responses);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_TRUE(roundTrip(line).flag("ok"));
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(roundTrip(line).str("code"), "parse-error");
  ASSERT_TRUE(std::getline(lines, line));
  const Message lookup = roundTrip(line);
  EXPECT_TRUE(lookup.flag("ok"));
  EXPECT_NE(lookup.str("text").find("leaf"), std::string::npos);
  EXPECT_FALSE(std::getline(lines, line));
}

TEST_F(ServiceTest, ConnectionLoopRejectsAnOverlongLineAndCloses) {
  Service service;
  std::string error;
  ASSERT_TRUE(service.load(alpha_, error)) << error;

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::size_t served = 0;
  std::thread server([&] {
    served = serveConnection(fds[0], service);
    ::close(fds[0]);
  });

  // 2 MiB with no newline. The daemon stops reading at its cap, so the
  // tail of this send fails once it closes; that is expected.
  const std::string line(std::size_t{2} << 20, 'x');
  for (std::size_t off = 0; off < line.size();) {
    const ssize_t n =
        ::send(fds[1], line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  ::shutdown(fds[1], SHUT_WR);
  std::string responses;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fds[1], buf, sizeof buf, 0);
    if (n <= 0) break;
    responses.append(buf, static_cast<std::size_t>(n));
  }
  server.join();
  ::close(fds[1]);

  EXPECT_EQ(served, 1u);
  ASSERT_FALSE(responses.empty());
  EXPECT_EQ(responses.find('\n'), responses.size() - 1);
  responses.pop_back();
  const Message m = roundTrip(responses);
  EXPECT_FALSE(m.flag("ok"));
  EXPECT_EQ(m.str("code"), "request-too-large");
}

/// The named field of /proc/self/status (e.g. "Threads"), in its own
/// unit; -1 when unreadable.
long procStatus(const std::string& field) {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(field + ":", 0) == 0)
      return std::stol(line.substr(field.size() + 1));
  }
  return -1;
}

/// A client socket connected to `socket_path`, retrying while the server
/// starts listening; -1 when it never does.
int connectTo(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  for (int tries = 0; tries < 500; ++tries) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0)
      return fd;
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

/// Sends one request line on `fd` and reads its one-line reply.
std::string exchange(int fd, const std::string& line) {
  const std::string wire = line + "\n";
  if (::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(wire.size()))
    return {};
  std::string reply;
  char buf[4096];
  while (reply.find('\n') == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    reply.append(buf, static_cast<std::size_t>(n));
  }
  return reply;
}

TEST_F(ServiceTest, AcceptLoopJoinsFinishedConnectionThreads) {
  Service service;
  std::string error;
  ASSERT_TRUE(service.load(alpha_, error)) << error;
  const std::string socket_path = (dir_ / "s.sock").string();
  ASSERT_LT(socket_path.size(), sizeof(sockaddr_un{}.sun_path));

  std::ostringstream log;
  int rc = -1;
  std::size_t peak_unjoined = 0;
  std::thread server(
      [&] { rc = runServer(service, socket_path, log, &peak_unjoined); });
  const auto request = [&socket_path](const std::string& line) {
    const int fd = connectTo(socket_path);
    const std::string reply = fd < 0 ? std::string() : exchange(fd, line);
    if (fd >= 0) ::close(fd);
    return reply;
  };

  // Connections open and close one after another, never many at once.
  // Each finished but unjoined thread would keep its stack mapped, so
  // unless the accept loop joins them as it goes, the threads it holds
  // unjoined grow by one per connection.
  ASSERT_NE(request(R"({"q": "status"})").find("\"ok\": true"),
            std::string::npos);
  const long threads_before = procStatus("Threads");
  constexpr int kConnections = 300;
  for (int i = 0; i < kConnections; ++i)
    ASSERT_NE(request(R"({"q": "status"})").find("\"ok\": true"),
              std::string::npos)
        << "connection " << i;
  const long threads_after = procStatus("Threads");

  EXPECT_NE(request(R"({"q": "shutdown"})").find("\"draining\": true"),
            std::string::npos);
  server.join();
  EXPECT_EQ(rc, 0) << log.str();

  ASSERT_GT(threads_before, 0);
  EXPECT_LE(threads_after, threads_before + 4);
  // Without the joining the loop would hold all 302 connections' threads;
  // allow a few dozen that had not yet flagged themselves finished.
  EXPECT_LE(peak_unjoined, 32u);
}

TEST_F(ServiceTest, ShutdownReturnsWithAnIdleClientConnected) {
  Service service;
  std::string error;
  ASSERT_TRUE(service.load(alpha_, error)) << error;
  const std::string socket_path = (dir_ / "s.sock").string();
  ASSERT_LT(socket_path.size(), sizeof(sockaddr_un{}.sun_path));

  std::ostringstream log;
  std::promise<int> returned;
  std::future<int> rc = returned.get_future();
  std::thread server(
      [&] { returned.set_value(runServer(service, socket_path, log)); });

  // The idle peer is accepted (it got an answer) and then sends nothing,
  // so its connection thread sits in recv.
  const int idle = connectTo(socket_path);
  ASSERT_GE(idle, 0);
  ASSERT_NE(exchange(idle, R"({"q": "status"})").find("\"ok\": true"),
            std::string::npos);
  const int other = connectTo(socket_path);
  ASSERT_GE(other, 0);
  EXPECT_NE(exchange(other, R"({"q": "shutdown"})").find("\"draining\": true"),
            std::string::npos);
  ::close(other);

  const bool in_time =
      rc.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  ::close(idle);  // lets a server stuck on the idle peer finish the join
  server.join();
  EXPECT_TRUE(in_time) << "runServer waited on the idle client";
  EXPECT_EQ(rc.get(), 0) << log.str();
}

}  // namespace
}  // namespace pdt::pdbd
