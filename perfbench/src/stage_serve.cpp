// serve: the pdbd daemon over a Unix socket, driven in a closed loop.
// Two reader connections send a fixed verb mix in a seeded order; a third
// connection swaps the daemon between two database variants at a fixed
// period. The daemon is the real pdbd binary in its own process, so
// peak_rss_mb of this workload is its VmHWM.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <thread>

#include "analysis/checker.h"
#include "pdb/format.h"
#include "pdb/snapshot.h"
#include "pdbd/proto.h"
#include "pdbd/service.h"
#include "query/render.h"
#include "stage.h"
#include "util.h"

namespace perfbench {

namespace {

const char* const kVerbs[] = {"lookup", "calltree", "hierarchy", "includes", "defuse", "check"};
constexpr int kVerbCount = 6;

/// A round's p99 needs at least ten replies beyond it.
constexpr std::size_t kMinRoundReplies = 1000;

/// Shares of the reader mix, in requests per block of kBlock consecutive
/// requests. The cheap lookup verb holds the median well inside its own
/// class; check and calltree, the two most expensive verbs, hold more than
/// twice the 1% tail between them, so p99 falls inside the slow class and
/// not on a class boundary. Every block holds the exact shares in a seeded
/// order, so every seed and every stretch of a few blocks asks for the same
/// work: a drawn mix would move the throughput with the seed.
constexpr int kBlock = 100;
constexpr int kShares[kVerbCount] = {82, 3, 3, 3, 6, 3};
constexpr int kBlocksPerList = 20;

/// One client connection speaking the line protocol.
class Conn {
 public:
  Conn() = default;
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool open(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) return true;
    ::close(fd_);
    fd_ = -1;
    return false;
  }

  /// Sends one request line, reads one response line.
  bool request(const std::string& line, std::string& response) {
    const std::string out = line + "\n";
    for (std::size_t sent = 0; sent < out.size();) {
      const ssize_t n = ::write(fd_, out.data() + sent, out.size() - sent);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        response.assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[65536];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

struct Request {
  int verb = 0;
  std::string line;
  std::string name;  // lookup: the generator-known name; "cl"/"ro" in kind
  std::string kind;
};

struct Sample {
  int request = 0;  // index into the reader's request list
  double latency_ms = 0;
  std::int64_t generation = 0;
  std::uint64_t hash = 0;
  bool ok = false;
};

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

class ServeStage final : public Stage {
 public:
  const char* name() const override { return "serve"; }

  ~ServeStage() override { teardown(); }

  void setup(const Env& env) override {
    teardown();
    const int tus = env.heavy ? 128 : 64;
    const Corpus corpus = makeCorpus(env.seed ^ 0x7365727665ULL, tus);
    const std::string src = env.work + "/src";
    std::vector<std::string> inputs = writeCorpus(corpus, src);
    auto options = corpusOptions(src);
    options.cache.dir = env.work + "/cache";
    removeTree(options.cache.dir);
    variants_[0] = env.work + "/a.pdb";
    variants_[1] = env.work + "/b.pdb";
    buildVariant(inputs, options, variants_[0]);
    // Variant b leaves out the last tenth of the TUs (its drivers become
    // unresolved declarations in main); the cache makes it a re-merge.
    const int dropped = std::max(1, tus / 10);
    inputs.erase(inputs.end() - 1 - dropped, inputs.end() - 1);
    buildVariant(inputs, options, variants_[1]);

    makeRequests(env.seed, corpus, tus - dropped);
    for (int v = 0; v < 2; ++v) expectFor(v);

    socket_ = env.work + "/pdbd.sock";
    if (socket_.size() >= sizeof(sockaddr_un{}.sun_path))
      throw std::runtime_error("serve set-up: socket path too long: " + socket_);
    ::unlink(socket_.c_str());
    daemon_ = std::make_unique<Child>(
        std::vector<std::string>{PERFBENCH_PDBD, variants_[0], "--socket", socket_},
        std::vector<std::string>{}, env.work + "/pdbd.out", env.work + "/pdbd.log");
    if (!daemon_->started()) throw std::runtime_error("serve set-up: cannot start pdbd");
    Conn probe;
    const double give_up = nowMs() + 30000.0;
    while (!probe.open(socket_)) {
      if (nowMs() > give_up) throw std::runtime_error("serve set-up: pdbd did not start");
      usleep(2000);
    }
    std::string response;
    pdt::pdbd::Message msg;
    std::string err;
    if (!probe.request("{\"q\": \"status\"}", response) ||
        !pdt::pdbd::parseMessage(response, msg, err) || !msg.flag("ok"))
      throw std::runtime_error("serve set-up: status failed");
    generations_.clear();
    generations_[msg.num("generation")] = 0;
    next_variant_ = 1;
    period_ms_ = env.heavy ? 250.0 : 100.0;
    resetSamples();
  }

  void run(const Env& env, double seconds) override {
    const double start = nowMs();
    const double deadline = start + seconds * 1000.0;
    std::vector<std::vector<Sample>> samples(2);
    std::atomic<bool> broken{false};
    std::vector<std::thread> threads;
    for (int r = 0; r < 2; ++r) {
      threads.emplace_back([&, r] {
        Conn conn;
        if (!conn.open(socket_)) {
          broken = true;
          return;
        }
        const std::vector<Request>& list = requests_[r];
        std::string response;
        pdt::pdbd::Message msg;
        std::string err;
        for (std::size_t i = cursor_[r]; nowMs() < deadline; ++i) {
          const int idx = static_cast<int>(i % list.size());
          const Request& req = list[idx];
          Sample s;
          s.request = idx;
          bool sent = false;
          {
            const SpanRecorder::Scope span(*env.spans, "pdbd.request");
            const double t0 = nowMs();
            sent = conn.request(req.line, response);
            s.latency_ms = nowMs() - t0;
          }
          if (sent && pdt::pdbd::parseMessage(response, msg, err) && msg.flag("ok")) {
            const std::string text = msg.str("text");
            s.generation = msg.num("generation");
            s.hash = fnv64(text);
            s.ok = req.verb != 0 || lookupMatches(req, text);
          }
          samples[r].push_back(s);
          cursor_[r] = i + 1;
          if (!sent) {
            broken = true;
            return;
          }
        }
      });
    }
    std::vector<std::pair<std::int64_t, int>> swapped;
    threads.emplace_back([&] {
      Conn conn;
      if (!conn.open(socket_)) {
        broken = true;
        return;
      }
      std::string response;
      pdt::pdbd::Message msg;
      std::string err;
      for (double due = start + period_ms_; due < deadline; due += period_ms_) {
        while (nowMs() < due) usleep(1000);
        const int v = next_variant_;
        const double t0 = nowMs();
        const bool sent = conn.request(
            "{\"q\": \"swap\", \"db\": " + quoted(variants_[v]) + "}", response);
        const double ms = nowMs() - t0;
        const bool ok = sent && pdt::pdbd::parseMessage(response, msg, err) &&
                        msg.flag("ok");
        swap_ok_.push_back(ok);
        if (!ok) {
          broken = !sent || broken;
          if (!sent) return;
          continue;
        }
        swap_ms_[v].push_back(ms);
        swapped.emplace_back(msg.num("generation"), v);
        next_variant_ = 1 - v;
      }
    });
    for (std::thread& t : threads) t.join();
    const double elapsed_s = (nowMs() - start) / 1000.0;
    std::vector<double> latency;
    for (const auto& [gen, v] : swapped) generations_[gen] = v;

    Report& report = *env.report;
    report.op(!broken, "serve: a connection to pdbd failed");
    for (const bool ok : swap_ok_) report.op(ok, "serve: swap failed");
    swap_ok_.clear();
    for (int r = 0; r < 2; ++r) {
      for (const Sample& s : samples[r]) {
        const Request& req = requests_[r][s.request];
        bool ok = s.ok;
        if (ok && req.verb != 0) {
          const auto gen = generations_.find(s.generation);
          ok = gen != generations_.end() &&
               expected_[gen->second].at(req.line) == s.hash;
        }
        report.op(ok, "serve: wrong " + std::string(kVerbs[req.verb]) + " reply");
        latency.push_back(s.latency_ms);
        if (req.verb == 0) lookup_ms_.push_back(s.latency_ms);
      }
    }
    // Each call is one round of the window. The reported figures are the
    // medians of the rounds' figures, because single rounds swing by up
    // to a quarter with the host.
    if (latency.size() >= kMinRoundReplies) {
      round_p50_.push_back(quantile(latency, 0.5));
      round_p99_.push_back(quantile(latency, 0.99));
      round_qps_.push_back(static_cast<double>(latency.size()) / elapsed_s);
      replies_ += latency.size();
    }
  }

  double primary() const override { return median(round_p50_); }

  void resetSamples() override {
    lookup_ms_.clear();
    swap_ms_[0].clear();
    swap_ms_[1].clear();
    round_p50_.clear();
    round_p99_.clear();
    round_qps_.clear();
    replies_ = 0;
  }

  void finish(const Env& env) override {
    Report& r = *env.report;
    r.set("serve_qps", median(round_qps_));
    r.set("serve_p50_ms", median(round_p50_));
    r.set("serve_p99_ms", median(round_p99_));
    // The two variants differ in size, so their swap times form two
    // clusters; a median over both would sit on the gap between them.
    r.set("swap_ms", (median(swap_ms_[0]) + median(swap_ms_[1])) / 2);
    std::printf("serve: %zu replies in %zu rounds, %zu swaps\n", replies_, round_qps_.size(),
                swap_ms_[0].size() + swap_ms_[1].size());
    r.set("pdbd.rss_mb", daemon_ ? peakRssMb(daemon_->pid()) : 0.0);
  }

  /// The daemon's internals are another process; the per-verb costs are
  /// measured on an in-process Service over the same database.
  void layers(const Env& env, const std::vector<Span>& spans) override {
    (void)spans;
    Report& r = *env.report;
    pdt::pdbd::Service service;
    std::vector<double> load_ms;
    for (int i = 0; i < 3; ++i) {
      const SpanRecorder::Scope root(*env.spans, "serve.load");
      const double t0 = nowMs();
      std::string err;
      r.op(service.load(variants_[i % 2], err), "in-process load: " + err);
      load_ms.push_back(nowMs() - t0);
    }
    r.set("pdbd.load_ms", median(load_ms));
    std::vector<double> proto_us;
    double lookup_handle_us = 0;
    for (int verb = 0; verb < kVerbCount; ++verb) {
      std::vector<double> handle_us;
      const double until = nowMs() + 150.0;
      for (std::size_t i = 0; handle_us.size() < 5 || nowMs() < until; ++i) {
        const Request& req = requests_[0][i % requests_[0].size()];
        if (req.verb != verb) {
          if (i > 100000 && handle_us.empty()) break;
          continue;
        }
        pdt::pdbd::Message msg;
        std::string err;
        const double p0 = nowMs();
        const bool parsed = pdt::pdbd::parseMessage(req.line, msg, err);
        proto_us.push_back((nowMs() - p0) * 1000.0);
        const SpanRecorder::Scope root(*env.spans, "serve.handle");
        const SpanRecorder::Scope span(*env.spans, "pdbd.handle");
        const double t0 = nowMs();
        const std::string response = service.handle(msg);
        handle_us.push_back((nowMs() - t0) * 1000.0);
        r.op(parsed && response.find("\"ok\": true") != std::string::npos,
             "in-process " + std::string(kVerbs[verb]));
      }
      const double p50 = quantile(handle_us, 0.5);
      r.set(std::string("pdbd.handle_us.") + kVerbs[verb], p50);
      if (verb == 0) lookup_handle_us = p50;
    }
    r.set("pdbd.proto_us", quantile(proto_us, 0.5));
    r.set("pdbd.transport_us", quantile(lookup_ms_, 0.5) * 1000.0 - lookup_handle_us);
  }

  void teardown() override {
    if (!daemon_) return;
    {
      Conn conn;
      std::string response;
      if (conn.open(socket_)) (void)conn.request("{\"q\": \"shutdown\"}", response);
    }
    // A clean drain takes milliseconds; a daemon that does not exit is
    // killed by the Child destructor.
    const double give_up = nowMs() + 10000.0;
    while (!daemon_->exited() && nowMs() < give_up) usleep(1000);
    daemon_.reset();
  }

 private:
  static void buildVariant(const std::vector<std::string>& inputs,
                           const pdt::tools::DriverOptions& options,
                           const std::string& path) {
    auto built = pdt::tools::compileAndMerge(inputs, options);
    if (!built.success || !built.pdb->write(path, pdt::pdb::Format::Binary))
      throw std::runtime_error("serve set-up: cannot build " + path);
  }

  static bool lookupMatches(const Request& req, const std::string& text) {
    // Exactly one entity: "<kind>#<id> <name>[ @ <location>]".
    if (text.empty() || text.find('\n') != text.size() - 1) return false;
    if (text.rfind(req.kind + "#", 0) != 0) return false;
    const std::size_t sp = text.find(' ');
    return sp != std::string::npos && text.compare(sp + 1, req.name.size(), req.name) == 0 &&
           (text.size() == sp + 1 + req.name.size() + 1 ||
            text.compare(sp + 1 + req.name.size(), 3, " @ ") == 0);
  }

  /// Two seeded request lists with the kShares mix. Lookups name routines
  /// and classes of TUs present in both variants; defuse requests take the
  /// routines in turn.
  void makeRequests(std::uint64_t seed, const Corpus& corpus, int common_tus) {
    Rng rng(seed ^ 0x6d6978ULL);
    std::vector<std::string> defuse_routines;
    for (const std::string& u : corpus.expect.uninit) defuse_routines.push_back(u);
    defuse_routines.push_back("main");
    std::size_t next_defuse = 0;
    std::vector<int> block;
    for (int verb = 0; verb < kVerbCount; ++verb) block.insert(block.end(), kShares[verb], verb);
    for (int r = 0; r < 2; ++r) {
      requests_[r].clear();
      cursor_[r] = 0;
      for (int b = 0; b < kBlocksPerList; ++b) {
        for (int i = kBlock - 1; i > 0; --i) std::swap(block[i], block[rng.uniform(0, i)]);
        for (const int verb : block) {
          Request req;
          req.verb = verb;
          if (verb == 0) {
            const int tu = rng.uniform(0, common_tus - 1);
            const TuShape& shape = corpus.shapes[tu];
            if (rng.uniform(0, 1) == 0) {
              req.kind = "ro";
              req.name = "t" + std::to_string(tu) + "_f" + std::to_string(rng.uniform(0, shape.chain));
            } else {
              req.kind = "cl";
              req.name = "U" + std::to_string(tu) + "_" + std::to_string(rng.uniform(0, shape.unique - 1));
            }
            req.line = "{\"q\": \"lookup\", \"name\": " + quoted(req.name) + "}";
          } else if (verb == 4) {
            const std::string& routine = defuse_routines[next_defuse++ % defuse_routines.size()];
            req.line = "{\"q\": \"defuse\", \"routine\": " + quoted(routine) +
                       ", \"defs\": true, \"uses\": true}";
          } else {
            req.line = "{\"q\": " + quoted(kVerbs[verb]) + "}";
          }
          requests_[r].push_back(std::move(req));
        }
      }
    }
  }

  /// Reference replies for every non-lookup request, rendered over an
  /// independently opened snapshot of variant `v`.
  void expectFor(int v) {
    const pdt::pdb::OpenResult opened = pdt::pdb::open(variants_[v]);
    if (!opened.ok()) throw std::runtime_error("serve set-up: cannot open " + variants_[v]);
    const pdt::query::Index index(opened.snapshot);
    expected_[v].clear();
    for (int r = 0; r < 2; ++r) {
      for (const Request& req : requests_[r]) {
        if (req.verb == 0 || expected_[v].count(req.line) != 0) continue;
        pdt::pdbd::Message msg;
        std::string err;
        (void)pdt::pdbd::parseMessage(req.line, msg, err);
        std::ostringstream os;
        const std::string verb = kVerbs[req.verb];
        if (verb == "calltree") {
          pdt::query::renderTree(index, pdt::query::Tree::CallGraph, os);
        } else if (verb == "hierarchy") {
          pdt::query::renderTree(index, pdt::query::Tree::ClassHierarchy, os);
        } else if (verb == "includes") {
          pdt::query::renderTree(index, pdt::query::Tree::Includes, os);
        } else if (verb == "defuse") {
          pdt::query::DefUseQuery q;
          q.routine = msg.str("routine");
          q.defs = msg.flag("defs");
          q.uses = msg.flag("uses");
          pdt::query::renderDefUse(index, q, os);
        } else {
          const auto result = pdt::analysis::runChecks(index.analysis(), {});
          pdt::analysis::renderText(result, os);
        }
        expected_[v][req.line] = fnv64(os.str());
      }
    }
  }

  std::string variants_[2];
  std::string socket_;
  std::unique_ptr<Child> daemon_;
  std::vector<Request> requests_[2];
  std::size_t cursor_[2] = {0, 0};
  std::map<std::string, std::uint64_t> expected_[2];
  std::map<std::int64_t, int> generations_;  // daemon generation -> variant
  int next_variant_ = 1;
  double period_ms_ = 250.0;
  std::vector<bool> swap_ok_;
  std::vector<double> lookup_ms_;
  std::vector<double> swap_ms_[2];  // per variant swapped to
  std::vector<double> round_p50_;
  std::vector<double> round_p99_;
  std::vector<double> round_qps_;
  std::size_t replies_ = 0;
};

}  // namespace

std::unique_ptr<Stage> makeServeStage() { return std::make_unique<ServeStage>(); }

}  // namespace perfbench
