#include "support/http_client.h"

#include <utility>

#include "common/string_util.h"
#include "support/blocking_socket.h"

namespace rafiki::net {

HttpClient::HttpClient(std::string host, uint16_t port,
                       double timeout_seconds)
    : host_(std::move(host)), port_(port), timeout_(timeout_seconds) {}

Status HttpClient::EnsureConnected() {
  if (sock_.valid()) return Status::OK();
  RAFIKI_ASSIGN_OR_RETURN(sock_, ConnectTcp(host_, port_, timeout_));
  return Status::OK();
}

Result<int> HttpClient::RoundTrip() {
  // One deadline spans the whole response: SO_RCVTIMEO only bounds each
  // recv(), so a server dribbling one byte per timeout window could stall
  // the caller indefinitely without this.
  Deadline deadline = Deadline::After(timeout_);
  RAFIKI_RETURN_IF_ERROR(WriteFull(sock_.fd(), wire_.data(), wire_.size()));
  parser_.Reset();
  char buf[16 * 1024];
  while (!parser_.done() && !parser_.failed()) {
    Status readable = WaitReadable(sock_.fd(), deadline);
    if (!readable.ok()) {
      sock_.Close();  // a half-read response cannot be kept alive
      return readable;
    }
    RAFIKI_ASSIGN_OR_RETURN(size_t n, RecvSome(sock_.fd(), buf, sizeof(buf)));
    if (n == 0) {
      parser_.FinishEof();
      break;
    }
    parser_.Feed(buf, n);
  }
  if (parser_.failed()) {
    sock_.Close();
    return Status::Internal(
        StrFormat("bad response: %s", parser_.error().c_str()));
  }
  if (!parser_.keep_alive()) sock_.Close();
  return parser_.status();
}

Result<int> HttpClient::RequestView(const std::string& method,
                                    const std::string& target,
                                    const std::string& body) {
  bool was_connected = sock_.valid();
  RAFIKI_RETURN_IF_ERROR(EnsureConnected());
  SerializeRequestTo(method, target, host_, body, /*keep_alive=*/true,
                     &wire_);
  Result<int> status = RoundTrip();
  if (status.ok()) return status;
  // A reused connection may have been closed server-side (idle timeout)
  // between requests; retry exactly once on a fresh connection. A deadline
  // expiry is not that case — retrying would just double the wait.
  if (!was_connected ||
      status.status().code() == StatusCode::kDeadlineExceeded) {
    return status;
  }
  sock_.Close();
  RAFIKI_RETURN_IF_ERROR(EnsureConnected());
  return RoundTrip();
}

Result<HttpResponse> HttpClient::Request(const std::string& method,
                                         const std::string& target,
                                         const std::string& body) {
  RAFIKI_ASSIGN_OR_RETURN(int status, RequestView(method, target, body));
  HttpResponse response;
  response.status = status;
  response.body = parser_.body();
  return response;
}

}  // namespace rafiki::net
