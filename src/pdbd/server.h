// The pdbd transport: a Unix-domain stream socket speaking the
// line-delimited protocol from proto.h.
//
// serveConnection() is the whole per-client loop and takes a plain file
// descriptor, so tests drive it over a socketpair without a listener.
// runServer() owns the listening socket: it accepts until the service's
// shutdown flag is raised, hands each client to its own thread, joins
// finished client threads as it goes, and joins the rest before
// returning (drain semantics — every accepted request gets its response
// before the process exits). At shutdown the remaining connections are
// half-closed for reading, so an idle client cannot hold the daemon open.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "pdbd/service.h"

namespace pdt::pdbd {

/// Serves one client on `fd` until EOF, a read/write error, or a request
/// line that outgrows the 1 MiB cap without its newline (answered
/// `request-too-large`). Returns the number of requests answered. Does
/// not close `fd`.
std::size_t serveConnection(int fd, Service& service);

/// Binds `socket_path`, announces readiness on `log`, and serves until
/// the service's shutdown flag is raised. Returns 0 on a clean drain,
/// 1 if the socket could not be set up (with the reason on `log`). When
/// `peak_unjoined` is non-null it receives, on return, the most
/// connection threads the accept loop held unjoined at once — what the
/// joining of finished threads keeps small.
int runServer(Service& service, const std::string& socket_path,
              std::ostream& log, std::size_t* peak_unjoined = nullptr);

}  // namespace pdt::pdbd
