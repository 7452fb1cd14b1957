#include "net/http.h"

#include <cctype>
#include <cstring>

#include "common/string_util.h"

namespace rafiki::net {
namespace {

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

void LowerInPlace(std::string* s) {
  for (char& c : *s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
}

/// Case-insensitive equality of [p, p+n) against lowercase `want`.
bool NameIs(const char* p, size_t n, const char* want) {
  if (n != std::strlen(want)) return false;
  for (size_t i = 0; i < n; ++i) {
    if (std::tolower(static_cast<unsigned char>(p[i])) != want[i]) {
      return false;
    }
  }
  return true;
}

/// True when a comma-separated Connection header value contains `token`
/// (case-insensitive, `token` already lowercase). Scans in place — this
/// runs per request on the keep-alive fast path and must not allocate.
bool HasConnectionToken(const char* value, size_t size, const char* token) {
  size_t i = 0;
  while (i < size) {
    while (i < size &&
           (value[i] == ' ' || value[i] == '\t' || value[i] == ',')) {
      ++i;
    }
    size_t start = i;
    while (i < size && value[i] != ',') ++i;
    size_t end = i;
    while (end > start && (value[end - 1] == ' ' || value[end - 1] == '\t')) {
      --end;
    }
    if (NameIs(value + start, end - start, token)) return true;
  }
  return false;
}

bool HasConnectionToken(const std::string& value, const char* token) {
  return HasConnectionToken(value.data(), value.size(), token);
}

/// Appends the decimal form of `v` without going through printf.
void AppendUint(uint64_t v, std::string* out) {
  char buf[20];
  size_t n = 0;
  do {
    buf[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0) out->push_back(buf[--n]);
}

/// Strict non-negative integer parse for Content-Length.
bool ParseContentLength(const char* s, size_t n, size_t* out) {
  if (n == 0 || n > 18) return false;
  size_t v = 0;
  for (size_t i = 0; i < n; ++i) {
    char c = s[i];
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<size_t>(c - '0');
  }
  *out = v;
  return true;
}

}  // namespace

std::string PercentDecode(std::string_view s, bool plus_as_space) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c == '+' && plus_as_space) {
      out.push_back(' ');
    } else if (c == '%' && i + 2 < s.size()) {
      int hi = HexDigit(s[i + 1]);
      int lo = HexDigit(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
      } else {
        out.push_back(c);  // malformed escape kept literally
      }
    } else {
      out.push_back(c);
    }
  }
  return out;
}

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 414: return "URI Too Long";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    case 505: return "HTTP Version Not Supported";
    default: return status < 400 ? "OK" : "Error";
  }
}

const std::string* HttpRequest::FindHeader(
    const std::string& lowercase_name) const {
  for (const auto& [name, value] : headers) {
    if (name == lowercase_name) return &value;
  }
  return nullptr;
}

const std::string* HttpRequest::FindHeader(const char* lowercase_name) const {
  for (const auto& [name, value] : headers) {
    if (name == lowercase_name) return &value;
  }
  return nullptr;
}

void HttpRequest::swap(HttpRequest& other) noexcept {
  method.swap(other.method);
  target.swap(other.target);
  path.swap(other.path);
  query.swap(other.query);
  std::swap(version_minor, other.version_minor);
  headers.swap(other.headers);
  body.swap(other.body);
  std::swap(keep_alive, other.keep_alive);
}

void SerializeResponseHeadersTo(const HttpResponse& response, bool keep_alive,
                                std::string* out) {
  out->clear();
  out->append("HTTP/1.1 ");
  AppendUint(static_cast<uint64_t>(response.status), out);
  out->push_back(' ');
  out->append(ReasonPhrase(response.status));
  out->append("\r\nContent-Type: ");
  out->append(response.content_type);
  out->append("\r\nContent-Length: ");
  AppendUint(response.body.size(), out);
  out->append("\r\nConnection: ");
  out->append(keep_alive ? "keep-alive" : "close");
  out->append("\r\n");
  for (const auto& [name, value] : response.headers) {
    out->append(name);
    out->append(": ");
    out->append(value);
    out->append("\r\n");
  }
  out->append("\r\n");
}

std::string SerializeResponse(const HttpResponse& response, bool keep_alive) {
  std::string out;
  SerializeResponseHeadersTo(response, keep_alive, &out);
  out += response.body;
  return out;
}

void SerializeRequestTo(const std::string& method, const std::string& target,
                        const std::string& host, const std::string& body,
                        bool keep_alive, std::string* out) {
  out->clear();
  out->append(method);
  out->push_back(' ');
  out->append(target);
  out->append(" HTTP/1.1\r\nHost: ");
  out->append(host);
  out->append("\r\nContent-Length: ");
  AppendUint(body.size(), out);
  out->append("\r\nConnection: ");
  out->append(keep_alive ? "keep-alive" : "close");
  out->append("\r\n\r\n");
  out->append(body);
}

std::string SerializeRequest(const std::string& method,
                             const std::string& target,
                             const std::string& host, const std::string& body,
                             bool keep_alive) {
  std::string out;
  SerializeRequestTo(method, target, host, body, keep_alive, &out);
  return out;
}

void HttpParser::Fail(int status, std::string message) {
  state_ = State::kError;
  error_status_ = status;
  error_ = std::move(message);
}

void HttpParser::Reset() {
  state_ = State::kRequestLine;
  line_.clear();
  header_bytes_ = 0;
  content_length_ = 0;
  header_count_ = 0;
  error_status_ = 400;
  error_.clear();
  // Clear the request in place: the strings (and the header pairs beyond
  // header_count_, trimmed later in FinishHeaders) keep their capacity for
  // the next request on this connection.
  request_.method.clear();
  request_.target.clear();
  request_.path.clear();
  request_.query.clear();
  request_.version_minor = 1;
  request_.body.clear();
  request_.keep_alive = true;
}

size_t HttpParser::Feed(const char* data, size_t size) {
  size_t consumed = 0;
  while (consumed < size && state_ != State::kComplete &&
         state_ != State::kError) {
    if (state_ == State::kBody) {
      size_t need = content_length_ - request_.body.size();
      size_t take = std::min(need, size - consumed);
      request_.body.append(data + consumed, take);
      consumed += take;
      if (request_.body.size() == content_length_) {
        state_ = State::kComplete;
      }
      continue;
    }
    // Line-oriented states: take bytes up to (and including) the next LF.
    const char* nl = static_cast<const char*>(
        std::memchr(data + consumed, '\n', size - consumed));
    size_t take =
        nl != nullptr ? static_cast<size_t>(nl - (data + consumed)) + 1
                      : size - consumed;
    line_.append(data + consumed, take);
    consumed += take;
    if (state_ == State::kRequestLine &&
        line_.size() > limits_.max_request_line) {
      Fail(414, "request line too long");
      break;
    }
    if (state_ == State::kHeaders &&
        header_bytes_ + line_.size() > limits_.max_header_bytes) {
      Fail(431, "headers too large");
      break;
    }
    if (nl == nullptr) break;  // partial line; wait for more bytes

    line_.pop_back();  // '\n'
    if (!line_.empty() && line_.back() == '\r') line_.pop_back();
    // Process line_ in place (no swap: the buffer keeps its capacity for
    // the next line), then clear it for the next iteration.
    if (state_ == State::kRequestLine) {
      // Tolerate blank line(s) before the request line (RFC 7230 §3.5).
      if (!line_.empty()) {
        if (!FinishRequestLine(line_)) break;
        state_ = State::kHeaders;
      }
    } else {  // kHeaders
      header_bytes_ += line_.size() + 2;
      if (line_.empty()) {
        FinishHeaders();
      } else if (!FinishHeaderLine(line_)) {
        break;
      }
    }
    line_.clear();
  }
  return consumed;
}

bool HttpParser::FinishRequestLine(const std::string& line) {
  size_t sp1 = line.find(' ');
  size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                        : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos ||
      sp2 == sp1 + 1 || line.find(' ', sp2 + 1) != std::string::npos) {
    Fail(400, "malformed request line");
    return false;
  }
  request_.method.assign(line, 0, sp1);
  request_.target.assign(line, sp1 + 1, sp2 - sp1 - 1);
  const char* version = line.c_str() + sp2 + 1;
  if (request_.method.empty() || request_.target.empty()) {
    Fail(400, "malformed request line");
    return false;
  }
  for (char c : request_.method) {
    if (!std::isalpha(static_cast<unsigned char>(c))) {
      Fail(400, "bad method");
      return false;
    }
  }
  if (request_.target[0] != '/') {
    Fail(400, "request target must be origin-form (/path)");
    return false;
  }
  if (line.compare(sp2 + 1, std::string::npos, "HTTP/1.1") == 0) {
    request_.version_minor = 1;
    request_.keep_alive = true;
  } else if (line.compare(sp2 + 1, std::string::npos, "HTTP/1.0") == 0) {
    request_.version_minor = 0;
    request_.keep_alive = false;
  } else if (std::strncmp(version, "HTTP/", 5) == 0) {
    Fail(505, StrFormat("unsupported version '%s'", version));
    return false;
  } else {
    Fail(400, StrFormat("malformed version '%s'", version));
    return false;
  }
  size_t qmark = request_.target.find('?');
  if (qmark == std::string::npos) {
    request_.path = request_.target;
    request_.query.clear();
  } else {
    request_.path.assign(request_.target, 0, qmark);
    request_.query.assign(request_.target, qmark + 1, std::string::npos);
  }
  return true;
}

bool HttpParser::FinishHeaderLine(const std::string& line) {
  size_t colon = line.find(':');
  if (colon == std::string::npos || colon == 0) {
    Fail(400, "malformed header line");
    return false;
  }
  for (size_t i = 0; i < colon; ++i) {
    char c = line[i];
    // RFC 7230 forbids whitespace inside or after the field name.
    if (c == ' ' || c == '\t' ||
        std::iscntrl(static_cast<unsigned char>(c))) {
      Fail(400, "malformed header name");
      return false;
    }
  }
  size_t vb = colon + 1;
  size_t ve = line.size();
  while (vb < ve && (line[vb] == ' ' || line[vb] == '\t')) ++vb;
  while (ve > vb && (line[ve - 1] == ' ' || line[ve - 1] == '\t')) --ve;
  // Reuse a retired header pair (and its string capacities) when one is
  // available from a previous request on this connection.
  if (header_count_ == request_.headers.size()) {
    request_.headers.emplace_back();
  }
  auto& header = request_.headers[header_count_++];
  header.first.assign(line, 0, colon);
  LowerInPlace(&header.first);
  header.second.assign(line, vb, ve - vb);
  return true;
}

void HttpParser::FinishHeaders() {
  // Trim pairs retired by Reset() before FindHeader can see them.
  request_.headers.resize(header_count_);
  if (request_.FindHeader("transfer-encoding") != nullptr) {
    Fail(501, "transfer-encoding not supported; use Content-Length");
    return;
  }
  const std::string* connection = request_.FindHeader("connection");
  if (connection != nullptr) {
    if (HasConnectionToken(*connection, "close")) {
      request_.keep_alive = false;
    } else if (HasConnectionToken(*connection, "keep-alive")) {
      request_.keep_alive = true;
    }
  }
  const std::string* length = request_.FindHeader("content-length");
  if (length == nullptr) {
    state_ = State::kComplete;
    return;
  }
  if (!ParseContentLength(length->data(), length->size(),
                          &content_length_)) {
    Fail(400, StrFormat("bad Content-Length '%s'", length->c_str()));
    return;
  }
  if (content_length_ > limits_.max_body_bytes) {
    Fail(413, StrFormat("body of %zu bytes exceeds limit %zu",
                        content_length_, limits_.max_body_bytes));
    return;
  }
  if (content_length_ == 0) {
    state_ = State::kComplete;
    return;
  }
  request_.body.reserve(content_length_);
  state_ = State::kBody;
}

size_t HttpResponseParser::Feed(const char* data, size_t size) {
  size_t consumed = 0;
  while (consumed < size && state_ != State::kComplete &&
         state_ != State::kError) {
    if (state_ == State::kBody) {
      size_t need = content_length_ - body_.size();
      size_t take = std::min(need, size - consumed);
      body_.append(data + consumed, take);
      consumed += take;
      if (body_.size() == content_length_) state_ = State::kComplete;
      continue;
    }
    if (state_ == State::kBodyUntilClose) {
      body_.append(data + consumed, size - consumed);
      consumed = size;
      continue;
    }
    if (state_ == State::kChunkData) {
      size_t take = std::min(chunk_remaining_, size - consumed);
      body_.append(data + consumed, take);
      consumed += take;
      chunk_remaining_ -= take;
      if (chunk_remaining_ == 0) state_ = State::kChunkDataEnd;
      continue;
    }
    const char* nl = static_cast<const char*>(
        std::memchr(data + consumed, '\n', size - consumed));
    size_t take =
        nl != nullptr ? static_cast<size_t>(nl - (data + consumed)) + 1
                      : size - consumed;
    line_.append(data + consumed, take);
    consumed += take;
    if ((state_ == State::kChunkSize || state_ == State::kTrailers) &&
        line_.size() > limits_.max_chunk_line) {
      state_ = State::kError;
      error_ = "chunk framing line too long";
      break;
    }
    if (nl == nullptr) break;
    line_.pop_back();
    if (!line_.empty() && line_.back() == '\r') line_.pop_back();
    if (state_ == State::kStatusLine) {
      if (line_.empty()) continue;
      // "HTTP/1.x NNN Reason"
      size_t sp = line_.find(' ');
      if (sp == std::string::npos || line_.compare(0, 5, "HTTP/") != 0 ||
          sp + 4 > line_.size()) {
        state_ = State::kError;
        error_ = "malformed status line";
        break;
      }
      status_ = 0;
      for (size_t i = sp + 1; i < sp + 4 && i < line_.size(); ++i) {
        if (line_[i] < '0' || line_[i] > '9') {
          status_ = -1;
          break;
        }
        status_ = status_ * 10 + (line_[i] - '0');
      }
      if (status_ < 100) {
        state_ = State::kError;
        error_ = "malformed status code";
        break;
      }
      keep_alive_ = line_.compare(0, 9, "HTTP/1.0 ") != 0;
      state_ = State::kHeaders;
    } else if (state_ == State::kHeaders) {
      if (line_.empty()) {
        if (chunked_) {
          // Transfer-Encoding wins over Content-Length (RFC 7230 §3.3.3).
          state_ = State::kChunkSize;
        } else if (have_length_) {
          state_ = content_length_ == 0 ? State::kComplete : State::kBody;
        } else if (!keep_alive_) {
          state_ = State::kBodyUntilClose;
        } else {
          state_ = State::kComplete;  // no body
        }
        continue;
      }
      size_t colon = line_.find(':');
      if (colon == std::string::npos) {  // tolerate junk headers
        line_.clear();
        continue;
      }
      size_t vb = colon + 1;
      size_t ve = line_.size();
      while (vb < ve && (line_[vb] == ' ' || line_[vb] == '\t')) ++vb;
      while (ve > vb && (line_[ve - 1] == ' ' || line_[ve - 1] == '\t')) --ve;
      if (NameIs(line_.data(), colon, "content-length")) {
        have_length_ =
            ParseContentLength(line_.data() + vb, ve - vb, &content_length_);
      } else if (NameIs(line_.data(), colon, "transfer-encoding")) {
        // The token list may end with compression codings we don't
        // implement; only the final "chunked" framing matters here.
        if (HasConnectionToken(line_.data() + vb, ve - vb, "chunked")) {
          chunked_ = true;
        }
      } else if (NameIs(line_.data(), colon, "connection")) {
        if (HasConnectionToken(line_.data() + vb, ve - vb, "close")) {
          keep_alive_ = false;
        }
        if (HasConnectionToken(line_.data() + vb, ve - vb, "keep-alive")) {
          keep_alive_ = true;
        }
      }
    } else if (state_ == State::kChunkSize) {
      // "<hex-size>[ \t]*[;extensions]"
      size_t i = 0;
      uint64_t v = 0;
      while (i < line_.size() && HexDigit(line_[i]) >= 0) {
        if (i >= 16) break;  // > 16 hex digits cannot pass the size check
        v = (v << 4) | static_cast<uint64_t>(HexDigit(line_[i]));
        ++i;
      }
      size_t digits = i;
      while (i < line_.size() && (line_[i] == ' ' || line_[i] == '\t')) ++i;
      if (digits == 0 || digits > 16 ||
          (i < line_.size() && line_[i] != ';')) {
        state_ = State::kError;
        error_ = "malformed chunk size";
        break;
      }
      if (v > limits_.max_body_bytes ||
          body_.size() + v > limits_.max_body_bytes) {
        state_ = State::kError;
        error_ = "chunked body too large";
        break;
      }
      if (v == 0) {
        state_ = State::kTrailers;
      } else {
        chunk_remaining_ = static_cast<size_t>(v);
        state_ = State::kChunkData;
      }
    } else if (state_ == State::kChunkDataEnd) {
      if (!line_.empty()) {
        state_ = State::kError;
        error_ = "missing CRLF after chunk data";
        break;
      }
      state_ = State::kChunkSize;
    } else {  // kTrailers: skip trailer headers until the blank line
      if (line_.empty()) state_ = State::kComplete;
    }
    line_.clear();
  }
  return consumed;
}

void HttpResponseParser::Reset() {
  state_ = State::kStatusLine;
  line_.clear();
  content_length_ = 0;
  have_length_ = false;
  chunked_ = false;
  chunk_remaining_ = 0;
  status_ = 0;
  keep_alive_ = true;
  body_.clear();  // capacity retained for the next response
  error_.clear();
}

void HttpResponseParser::FinishEof() {
  if (state_ == State::kBodyUntilClose) {
    state_ = State::kComplete;
  } else if (state_ != State::kComplete) {
    state_ = State::kError;
    error_ = "connection closed mid-response";
  }
}

}  // namespace rafiki::net
