#ifndef RAFIKI_NET_HTTP_H_
#define RAFIKI_NET_HTTP_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace rafiki::net {

/// Decodes %XX escapes; when `plus_as_space`, '+' becomes ' ' (the
/// application/x-www-form-urlencoded convention used in query strings).
/// Malformed escapes ("%G1", truncated "%2") are kept literally.
std::string PercentDecode(const std::string& s, bool plus_as_space = false);

/// Standard reason phrase for a status code ("OK", "Not Found", ...).
const char* ReasonPhrase(int status);

/// One parsed HTTP/1.1 request. Header names are lowercased; `path` and
/// `query` are the raw (still percent-encoded) halves of the request
/// target, split at the first '?'.
struct HttpRequest {
  std::string method;
  std::string target;  // as received, e.g. /query?job=infer0
  std::string path;    // /query
  std::string query;   // job=infer0 ("" when absent)
  int version_minor = 1;  // HTTP/1.<minor>; only 0 and 1 are accepted
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  /// Connection semantics after this request: HTTP/1.1 defaults to true,
  /// HTTP/1.0 to false; a Connection: close / keep-alive header overrides.
  bool keep_alive = true;

  /// First header with the given lowercase name, or nullptr. The
  /// const char* overload avoids materializing a std::string per lookup
  /// (names longer than the SSO buffer would allocate on every request).
  const std::string* FindHeader(const std::string& lowercase_name) const;
  const std::string* FindHeader(const char* lowercase_name) const;

  /// Swaps all fields; used to move a parsed request into a pooled slot
  /// while handing the slot's previous string capacities back to the
  /// parser for reuse.
  void swap(HttpRequest& other) noexcept;
};

/// One HTTP response to serialize. Content-Length and Connection are
/// emitted by SerializeResponse; `headers` carries any extras.
struct HttpResponse {
  int status = 200;
  std::string body;
  std::string content_type = "text/plain";
  std::vector<std::pair<std::string, std::string>> headers;
};

/// Wire form of `response`, with Content-Length and Connection:
/// keep-alive|close headers.
std::string SerializeResponse(const HttpResponse& response, bool keep_alive);

/// In-place variant: serializes the status line and headers (everything up
/// to and including the blank line, but NOT the body) into `*out`,
/// replacing its contents. The body is sent separately via scatter-gather,
/// so steady-state serialization reuses `out`'s capacity and never
/// concatenates the body.
void SerializeResponseHeadersTo(const HttpResponse& response, bool keep_alive,
                                std::string* out);

/// Wire form of a client request (Host, Content-Length, Connection).
std::string SerializeRequest(const std::string& method,
                             const std::string& target,
                             const std::string& host, const std::string& body,
                             bool keep_alive);

/// In-place variant of SerializeRequest (headers AND body) into `*out`,
/// replacing its contents; the client reuses one wire buffer per
/// connection.
void SerializeRequestTo(const std::string& method, const std::string& target,
                        const std::string& host, const std::string& body,
                        bool keep_alive, std::string* out);

/// Input-size limits enforced during parsing. Exceeding one turns the
/// parser into the error state with the corresponding 4xx status.
struct HttpParserLimits {
  size_t max_request_line = 8 * 1024;   // 414 URI Too Long
  size_t max_header_bytes = 32 * 1024;  // 431 headers too large
  size_t max_body_bytes = 1 << 20;      // 413 Payload Too Large
};

/// Incremental HTTP/1.1 request parser: feed it bytes as they arrive off a
/// socket; it consumes exactly one request (so pipelined bytes after the
/// body stay with the caller) and then parks in kComplete until Reset().
/// Chunked transfer-encoding is not supported (501); bodies require
/// Content-Length.
class HttpParser {
 public:
  enum class State { kRequestLine, kHeaders, kBody, kComplete, kError };

  explicit HttpParser(HttpParserLimits limits = {}) : limits_(limits) {}

  /// Consumes up to `size` bytes; returns how many were consumed. Stops
  /// consuming once the state is kComplete or kError.
  size_t Feed(const char* data, size_t size);

  State state() const { return state_; }
  bool done() const { return state_ == State::kComplete; }
  bool failed() const { return state_ == State::kError; }
  /// HTTP status to answer with when failed() (400/413/414/431/501/505).
  int error_status() const { return error_status_; }
  const std::string& error() const { return error_; }

  /// The parsed request; valid once done().
  HttpRequest& request() { return request_; }

  /// Prepares for the next request on the same connection. Retains the
  /// capacity of every internal buffer (and of the strings inside
  /// request(), which may have been swapped with a recycled slot), so a
  /// steady-state keep-alive parse loop performs no heap allocations.
  void Reset();

 private:
  void Fail(int status, std::string message);
  bool FinishRequestLine(const std::string& line);
  bool FinishHeaderLine(const std::string& line);
  /// Called after the blank line: validates framing headers and routes to
  /// kBody or kComplete.
  void FinishHeaders();

  HttpParserLimits limits_;
  State state_ = State::kRequestLine;
  std::string line_;  // accumulates the current request/header line
  size_t header_bytes_ = 0;
  size_t content_length_ = 0;
  // Headers parsed into the current request. request_.headers keeps its
  // pairs alive across Reset() so their string capacities are reused; the
  // vector is trimmed to header_count_ when the header block completes.
  size_t header_count_ = 0;
  int error_status_ = 400;
  std::string error_;
  HttpRequest request_;
};

/// Input-size limits for the response parser's chunked decoder; a buggy or
/// hostile server cannot balloon the client's body buffer or feed it an
/// unbounded chunk-size line.
struct HttpResponseParserLimits {
  size_t max_body_bytes = 64u << 20;  // total decoded chunked body
  size_t max_chunk_line = 1024;       // hex size line, extensions included
};

/// Incremental HTTP/1.x response parser for the blocking client: status
/// line, headers, then a Content-Length body, a chunked Transfer-Encoding
/// body (decoded incrementally, limits above), or read-until-close when
/// the server answered Connection: close without any framing.
class HttpResponseParser {
 public:
  enum class State { kStatusLine, kHeaders, kBody, kBodyUntilClose,
                     kChunkSize, kChunkData, kChunkDataEnd, kTrailers,
                     kComplete, kError };

  HttpResponseParser() = default;
  explicit HttpResponseParser(HttpResponseParserLimits limits)
      : limits_(limits) {}

  size_t Feed(const char* data, size_t size);
  /// Signals EOF from the peer; completes a read-until-close body.
  void FinishEof();

  /// Prepares for the next response on the same connection, retaining the
  /// body buffer's capacity.
  void Reset();

  State state() const { return state_; }
  bool done() const { return state_ == State::kComplete; }
  bool failed() const { return state_ == State::kError; }
  const std::string& error() const { return error_; }

  int status() const { return status_; }
  const std::string& body() const { return body_; }
  bool keep_alive() const { return keep_alive_; }

 private:
  HttpResponseParserLimits limits_;
  State state_ = State::kStatusLine;
  std::string line_;
  size_t content_length_ = 0;
  bool have_length_ = false;
  bool chunked_ = false;
  size_t chunk_remaining_ = 0;  // payload bytes left in the current chunk
  int status_ = 0;
  bool keep_alive_ = true;
  std::string body_;
  std::string error_;
};

}  // namespace rafiki::net

#endif  // RAFIKI_NET_HTTP_H_
