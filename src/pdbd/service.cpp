#include "pdbd/service.h"

#include <iterator>
#include <sstream>
#include <thread>
#include <utility>

#include "analysis/checker.h"
#include "query/render.h"
#include "support/trace.h"

namespace pdt::pdbd {

namespace {

/// Tree verbs share one shape: render the tree, return it as `text`.
/// A verb's position here is its Generation::memo slot.
const std::pair<std::string_view, query::Tree> kTreeVerbs[] = {
    {"includes", query::Tree::Includes},
    {"hierarchy", query::Tree::ClassHierarchy},
    {"calltree", query::Tree::CallGraph},
    {"profile", query::Tree::Profile},
};

constexpr std::size_t kCheckAllSlot = std::size(kTreeVerbs);  // +1: json
static_assert(kCheckAllSlot + 2 == Generation::kMemoSlots);

std::string okText(std::uint64_t generation, std::string_view text) {
  return MessageWriter{}
      .field("ok", true)
      .field("generation", generation)
      .field("text", text)
      .finish();
}

std::string checkLine(const Generation& gen,
                      const analysis::CheckOptions& options) {
  const analysis::CheckResult result =
      analysis::runChecks(gen.index->analysis(), options);
  if (!result.ok()) return errorLine("check-failed", result.error);
  std::ostringstream os;
  analysis::render(result, options, os);
  return MessageWriter{}
      .field("ok", true)
      .field("generation", gen.id)
      .field("findings", result.hasFindings())
      .field("text", os.str())
      .finish();
}

/// The reply in `gen`'s memo `slot`, rendered by `render` on first use.
template <typename Render>
Reply memoized(std::shared_ptr<const Generation> gen, std::size_t slot,
               const Render& render) {
  Generation::Memo& memo = gen->memo[slot];
  std::call_once(memo.once, [&] { memo.line = render(*gen); });
  Reply reply{std::string()};
  reply.memo = &memo.line;
  reply.hold = std::move(gen);
  return reply;
}

}  // namespace

Service::~Service() {
  delete gen_.load(std::memory_order_acquire);
}

std::shared_ptr<const Generation> Service::current() const {
  for (;;) {
    const std::uint64_t epoch = epoch_.load(std::memory_order_seq_cst);
    std::atomic<std::uint64_t>& slot = readers_[epoch & 1];
    slot.fetch_add(1, std::memory_order_seq_cst);
    // A publish may have slipped between the epoch load and the
    // registration; re-check and re-register under the new epoch so the
    // writer's drain loop is watching the slot we are counted in.
    if (epoch_.load(std::memory_order_seq_cst) != epoch) {
      slot.fetch_sub(1, std::memory_order_seq_cst);
      continue;
    }
    const Holder* holder = gen_.load(std::memory_order_seq_cst);
    Holder out = holder ? *holder : Holder{};
    // The release edge the writer's drain loop acquires: our copy of
    // *holder happens-before the holder's deletion.
    slot.fetch_sub(1, std::memory_order_release);
    return out;
  }
}

Service::Holder Service::publish(Holder gen) {
  auto* fresh = new Holder(std::move(gen));
  std::lock_guard<std::mutex> lock(publish_mu_);
  const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  const Holder* old = gen_.exchange(fresh, std::memory_order_seq_cst);
  epoch_.store(epoch + 1, std::memory_order_seq_cst);
  // Grace period: readers registered under the old parity are the only
  // ones that can still be copying from `old` (new readers re-check the
  // epoch after registering). Wait them out, then reclaim.
  while (readers_[epoch & 1].load(std::memory_order_seq_cst) != 0)
    std::this_thread::yield();
  if (old == nullptr) return nullptr;
  Holder retired = *old;
  delete old;
  return retired;
}

Service::Holder Service::openGeneration(const std::string& db_path,
                                        std::string& error) {
  PDT_TRACE_SCOPE("pdbd.load", db_path);
  pdb::OpenResult read = pdb::open(db_path);
  if (!read.opened) {
    error = "cannot open '" + db_path + "'";
    return nullptr;
  }
  if (!read.ok()) {
    error = db_path + ": " + read.errors.front();
    return nullptr;
  }
  auto gen = std::make_shared<Generation>();
  gen->id = read.snapshot->generation();
  gen->bytes = read.snapshot->byteSize();
  // Built while `read` still holds the snapshot, so the Index copies the
  // records and the parse's own allocations are freed on return, before
  // the generation is published; it holds one copy. Moving the records
  // instead keeps the parse's allocations live for the generation's
  // lifetime, and measured worse swap time and serve p99 (CHANGES.md).
  gen->index = std::make_unique<query::Index>(read.snapshot);
  gen->db_path = db_path;
  // Force the lazy state that is not thread-safe now, single-threaded;
  // after publication the Generation is shared by concurrent readers.
  gen->index->prewarm();
  return gen;
}

bool Service::load(const std::string& db_path, std::string& error) {
  Holder gen = openGeneration(db_path, error);
  if (gen == nullptr) return false;
  (void)publish(std::move(gen));
  return true;
}

Reply Service::answer(const Message& request) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  const std::string verb = request.str("q");
  if (verb.empty())
    return errorLine("bad-request", "missing verb field 'q'");

  if (verb == "shutdown") {
    shutdown_.store(true, std::memory_order_release);
    const auto gen = current();
    return MessageWriter{}
        .field("ok", true)
        .field("generation", gen ? gen->id : std::uint64_t{0})
        .field("draining", true)
        .finish();
  }

  if (verb == "swap") {
    const std::string db = request.str("db");
    if (db.empty())
      return errorLine("bad-request", "swap needs a 'db' field");
    std::string error;
    Holder gen = openGeneration(db, error);
    if (gen == nullptr) return errorLine("open-failed", error);
    Reply reply = MessageWriter{}
                      .field("ok", true)
                      .field("generation", gen->id)
                      .field("db", gen->db_path)
                      .finish();
    reply.hold = publish(std::move(gen));
    return reply;
  }

  // Every remaining verb answers from one consistent generation: the
  // pointer is loaded once and used throughout, so a concurrent swap
  // cannot mix two databases inside one response.
  const std::shared_ptr<const Generation> gen = current();
  if (gen == nullptr)
    return errorLine("no-database", "no database loaded");

  if (verb == "status") {
    return MessageWriter{}
        .field("ok", true)
        .field("generation", gen->id)
        .field("db", gen->db_path)
        .field("bytes", gen->bytes)
        .field("queries", queriesServed())
        .finish();
  }

  if (verb == "lookup") {
    const std::string name = request.str("name");
    if (name.empty())
      return errorLine("bad-request", "lookup needs a 'name' field");
    std::ostringstream os;
    query::renderLookup(*gen->index, name, os);
    return okText(gen->id, os.str());
  }

  for (std::size_t slot = 0; slot < std::size(kTreeVerbs); ++slot) {
    if (verb != kTreeVerbs[slot].first) continue;
    const query::Tree tree = kTreeVerbs[slot].second;
    return memoized(gen, slot, [tree](const Generation& g) {
      std::ostringstream os;
      query::renderTree(*g.index, tree, os);
      return okText(g.id, os.str());
    });
  }

  if (verb == "defuse") {
    query::DefUseQuery du;
    du.routine = request.str("routine");
    du.var = request.str("var");
    du.line = static_cast<int>(request.num("line", -1));
    du.col = static_cast<int>(request.num("col", -1));
    du.defs = request.flag("defs");
    du.uses = request.flag("uses");
    std::ostringstream os;
    query::renderDefUse(*gen->index, du, os);
    return okText(gen->id, os.str());
  }

  if (verb == "check") {
    analysis::CheckOptions options;
    options.checks = request.str("checks", "all");
    const std::string format = request.str("format", "text");
    if (format == "json") {
      options.format = analysis::CheckOptions::Format::Json;
    } else if (format != "text") {
      return errorLine("bad-request", "unknown format '" + format + "'");
    }
    if (options.checks != "all") return checkLine(*gen, options);
    const std::size_t slot = kCheckAllSlot + (format == "json" ? 1 : 0);
    return memoized(gen, slot, [&options](const Generation& g) {
      return checkLine(g, options);
    });
  }

  return errorLine("bad-verb", "unknown verb '" + verb + "'");
}

}  // namespace pdt::pdbd
