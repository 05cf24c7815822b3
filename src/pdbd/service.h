// The pdbd query service: an atomically published database generation
// plus the verb dispatcher that answers protocol requests against it.
//
// One Generation bundles the query::Index built over one opened
// pdb::Snapshot (prewarmed, so every query path is safe to share), the
// snapshot's process-unique generation number and byte size, and the
// reply memo of the whole-database verbs. The snapshot itself is not
// kept, so each published generation holds one copy of the records.
//
//   * readers acquire the current Generation once per request and answer
//     entirely from it — wait-free, and every response names exactly the
//     generation it was computed from;
//   * the replies of calltree, hierarchy, includes, profile, and check
//     over all rules (text and json) are pure functions of the snapshot:
//     the first request for one renders it under std::call_once, and
//     every later request sends the same bytes from the Generation with
//     no copy. The def-use index and the analysis context are likewise
//     built on first demand, not at load;
//   * a swap opens + prewarms the replacement off to the side, then
//     publishes it with one atomic pointer exchange. In-flight requests
//     keep the old Generation alive through their shared_ptr until they
//     finish; the swap reply carries the retired Generation, so when it
//     is the last holder the teardown runs after the reply is sent.
//
// The publication is hand-rolled rather than
// std::atomic<std::shared_ptr>: libstdc++'s _Sp_atomic reads its
// pointer under an internal spinlock that it releases with a relaxed
// RMW — formally a data race (ThreadSanitizer reports it), and a
// spinlock on the hot read path besides. Here readers touch two atomic
// counters and two atomic loads (no waiting ever); the writer swaps an
// atomic pointer to an immutable heap-allocated shared_ptr holder,
// bumps an epoch, and releases the old holder only after the readers
// that could have seen it drain (an RCU-style grace period).
//
// The protocol and failure codes are documented in docs/PDBD.md.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

#include "pdb/snapshot.h"
#include "pdbd/proto.h"
#include "query/index.h"

namespace pdt::pdbd {

/// One immutable, prewarmed database generation.
struct Generation {
  std::unique_ptr<const query::Index> index;
  std::uint64_t id = 0;     // the snapshot's generation number
  std::uint64_t bytes = 0;  // the snapshot's on-disk size
  std::string db_path;

  /// One memoized reply line, rendered by the first request that needs
  /// it and read-only afterwards.
  struct Memo {
    std::once_flag once;
    std::string line;
  };
  /// The four tree verbs, then check over all rules as text and as json
  /// (slots assigned in service.cpp).
  static constexpr std::size_t kMemoSlots = 6;
  mutable std::array<Memo, kMemoSlots> memo;
};

/// One response line, without the trailing newline. A memoized reply
/// points into the Generation that holds it; any other owns its bytes.
struct Reply {
  /// Implicit, so the dispatcher returns protocol lines as they are.
  Reply(std::string text) : owned(std::move(text)) {}

  [[nodiscard]] std::string_view line() const {
    return memo != nullptr ? std::string_view(*memo) : owned;
  }

  std::string owned;
  const std::string* memo = nullptr;
  /// Dropped with the reply, after its bytes are sent: the Generation
  /// `memo` points into, or the one a swap retired, so that its teardown
  /// does not delay the swap's answer.
  std::shared_ptr<const Generation> hold;
};

class Service {
 public:
  Service() = default;
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Opens `db_path`, builds and prewarms its index, and publishes it as
  /// the current generation. On failure returns false with `error` set
  /// and keeps the previous generation (if any) serving.
  bool load(const std::string& db_path, std::string& error);

  /// The generation requests are currently answered from (null before
  /// the first successful load). Wait-free.
  [[nodiscard]] std::shared_ptr<const Generation> current() const;

  /// Answers one parsed request. Thread-safe: concurrent calls share
  /// the published Generation, whose lazy state is call_once-guarded.
  [[nodiscard]] Reply answer(const Message& request);

  /// answer() with the line copied out (without the trailing newline).
  [[nodiscard]] std::string handle(const Message& request) {
    return std::string(answer(request).line());
  }

  /// Set by the "shutdown" verb; the accept loop polls it.
  [[nodiscard]] bool shutdownRequested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Requests handled so far (all verbs, including failures).
  [[nodiscard]] std::uint64_t queriesServed() const {
    return queries_.load(std::memory_order_relaxed);
  }

 private:
  using Holder = std::shared_ptr<const Generation>;

  /// Opens `db_path` and builds and prewarms its index; null with
  /// `error` set on failure.
  static Holder openGeneration(const std::string& db_path, std::string& error);

  /// Swaps in `gen` (heap holder), reclaims the previous holder after
  /// its readers drain, and returns the generation it held (null on the
  /// first publish). Serializes with other writers only.
  Holder publish(Holder gen);

  std::atomic<const Holder*> gen_{nullptr};
  /// Bumped on every publish; its parity indexes readers_, so the
  /// writer can wait out exactly the readers registered against the
  /// epoch that could still observe the retiring holder.
  std::atomic<std::uint64_t> epoch_{0};
  mutable std::atomic<std::uint64_t> readers_[2]{};
  std::mutex publish_mu_;  // writers only; never touched by queries

  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> queries_{0};
};

}  // namespace pdt::pdbd
