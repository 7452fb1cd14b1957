#ifndef RAFIKI_TESTS_SUPPORT_HTTP_CLIENT_H_
#define RAFIKI_TESTS_SUPPORT_HTTP_CLIENT_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "net/http.h"
#include "net/socket.h"

namespace rafiki::net {

/// Small blocking HTTP/1.1 client for tests. One instance owns one
/// keep-alive connection, reconnecting transparently when the server closed
/// it between requests. Not thread-safe; use one per thread.
class HttpClient {
 public:
  HttpClient(std::string host, uint16_t port, double timeout_seconds = 20.0);

  /// Allocation-free round trip for hot loops: serializes into a wire
  /// buffer owned by the client and parses into an owned response parser,
  /// so a steady-state keep-alive request/response cycle reuses every
  /// buffer. Returns the HTTP status code; the response body is readable
  /// via body() until the next call. Reconnects and retries once if the
  /// kept-alive connection turned out dead.
  Result<int> RequestView(const std::string& method, const std::string& target,
                          const std::string& body = "");

  /// Body of the last successful RequestView (borrowed; overwritten by the
  /// next request on this client).
  const std::string& body() const { return parser_.body(); }

  /// Sends one request and blocks for the full response. Copying wrapper
  /// over RequestView for callers that want an owned HttpResponse.
  Result<HttpResponse> Request(const std::string& method,
                               const std::string& target,
                               const std::string& body = "");

  Result<HttpResponse> Get(const std::string& target) {
    return Request("GET", target);
  }
  Result<HttpResponse> Post(const std::string& target,
                            const std::string& body = "") {
    return Request("POST", target, body);
  }

  void Close() { sock_.Close(); }
  bool connected() const { return sock_.valid(); }

 private:
  Status EnsureConnected();
  Result<int> RoundTrip();

  std::string host_;
  uint16_t port_;
  double timeout_;
  Socket sock_;
  std::string wire_;          // serialized request, capacity reused
  HttpResponseParser parser_;  // response state, body capacity reused
};

}  // namespace rafiki::net

#endif  // RAFIKI_TESTS_SUPPORT_HTTP_CLIENT_H_
