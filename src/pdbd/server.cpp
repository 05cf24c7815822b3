#include "pdbd/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <list>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>

namespace pdt::pdbd {

namespace {

/// The longest request line buffered while waiting for its newline. A
/// client that sends more is answered `request-too-large` and dropped,
/// so one connection cannot grow the daemon without bound.
constexpr std::size_t kMaxRequestLine = std::size_t{1} << 20;

/// Writes `line` and its newline in place, with no copy; MSG_NOSIGNAL
/// turns a vanished client into an EPIPE error instead of killing the
/// daemon with SIGPIPE.
bool writeLine(int fd, std::string_view line) {
  char newline = '\n';
  iovec iov[2] = {{const_cast<char*>(line.data()), line.size()},
                  {&newline, 1}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  while (msg.msg_iovlen > 0) {
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    // Skip what was sent: whole iovecs first, then into a partial one.
    auto left = static_cast<std::size_t>(n);
    while (msg.msg_iovlen > 0 && left >= msg.msg_iov->iov_len) {
      left -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0) {
      msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + left;
      msg.msg_iov->iov_len -= left;
    }
  }
  return true;
}

/// One connection thread; `done` is raised as it finishes so the accept
/// loop can join it without blocking. The accept loop owns `fd` and closes
/// it after the join, so the descriptor cannot be reused while the loop
/// may still shut it down.
struct Client {
  int fd = -1;
  std::atomic<bool> done{false};
  std::thread thread;
};

}  // namespace

std::size_t serveConnection(int fd, Service& service) {
  std::size_t served = 0;
  std::string pending;  // bytes read but not yet terminated by '\n'
  std::size_t scanned = 0;  // prefix of `pending` known to hold no '\n'
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return served;
    }
    if (n == 0) return served;  // client closed
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = pending.find('\n', scanned); nl != std::string::npos;
         nl = pending.find('\n', start)) {
      std::string_view line(pending.data() + start, nl - start);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      start = nl + 1;

      if (line.empty()) continue;  // blank keep-alive line
      Message request;
      std::string parse_error;
      const Reply reply = parseMessage(line, request, parse_error)
                              ? service.answer(request)
                              : Reply(errorLine("parse-error", parse_error));
      ++served;
      if (!writeLine(fd, reply.line())) return served;
    }
    pending.erase(0, start);
    scanned = pending.size();
    if (pending.size() > kMaxRequestLine) {
      ++served;
      (void)writeLine(fd, errorLine("request-too-large",
                                    "request line exceeds " +
                                        std::to_string(kMaxRequestLine) +
                                        " bytes without a newline"));
      return served;
    }
  }
}

int runServer(Service& service, const std::string& socket_path,
              std::ostream& log, std::size_t* peak_unjoined) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    log << "pdbd: socket: " << std::strerror(errno) << '\n';
    return 1;
  }

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof addr.sun_path) {
    log << "pdbd: socket path too long: '" << socket_path << "'\n";
    ::close(listener);
    return 1;
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  ::unlink(socket_path.c_str());  // a stale socket from a prior run
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listener, 64) != 0) {
    log << "pdbd: cannot listen on '" << socket_path
        << "': " << std::strerror(errno) << '\n';
    ::close(listener);
    return 1;
  }
  log << "pdbd: listening on '" << socket_path << "'\n";

  std::list<Client> clients;  // stable addresses: each thread flags its own
  std::size_t peak = 0;
  const auto reap = [&clients] {
    for (auto it = clients.begin(); it != clients.end();) {
      if (!it->done.load(std::memory_order_acquire)) {
        ++it;
        continue;
      }
      it->thread.join();
      ::close(it->fd);
      it = clients.erase(it);
    }
  };
  while (!service.shutdownRequested()) {
    reap();
    // Poll with a timeout so the shutdown flag (set inside a client
    // thread by the "shutdown" verb) is noticed without a final connect.
    pollfd pfd{listener, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int client = ::accept(listener, nullptr, nullptr);
    if (client < 0) continue;
    Client& entry = clients.emplace_back();
    peak = std::max(peak, clients.size());
    entry.fd = client;
    entry.thread = std::thread([client, &service, &done = entry.done] {
      serveConnection(client, service);
      done.store(true, std::memory_order_release);
    });
  }

  // Drain: every accepted client gets its responses before we exit. A
  // client that stays connected without sending would block its thread's
  // recv forever; half-closing the read side makes that recv return end
  // of stream once the bytes already received are consumed, while the
  // write side stays open for the replies still owed.
  for (Client& c : clients) {
    ::shutdown(c.fd, SHUT_RD);
    c.thread.join();
    ::close(c.fd);
  }
  ::close(listener);
  ::unlink(socket_path.c_str());
  if (peak_unjoined != nullptr) *peak_unjoined = peak;
  return 0;
}

}  // namespace pdt::pdbd
