#include "net/http.h"

#include <string>

#include "gtest/gtest.h"

namespace rafiki::net {
namespace {

/// Feeds the whole string at once; returns consumed bytes.
size_t FeedAll(HttpParser& p, const std::string& s) {
  return p.Feed(s.data(), s.size());
}

TEST(PercentDecodeTest, Basics) {
  EXPECT_EQ(PercentDecode("abc"), "abc");
  EXPECT_EQ(PercentDecode("a%20b"), "a b");
  EXPECT_EQ(PercentDecode("%2Fpath%2f"), "/path/");
  EXPECT_EQ(PercentDecode("a+b"), "a+b");
  EXPECT_EQ(PercentDecode("a+b", /*plus_as_space=*/true), "a b");
  // Malformed escapes survive literally instead of corrupting the string.
  EXPECT_EQ(PercentDecode("%"), "%");
  EXPECT_EQ(PercentDecode("%2"), "%2");
  EXPECT_EQ(PercentDecode("%zz"), "%zz");
  EXPECT_EQ(PercentDecode("100%"), "100%");
}

TEST(HttpParserTest, SimpleGet) {
  HttpParser p;
  std::string wire = "GET /jobs/j0?x=1 HTTP/1.1\r\nHost: a\r\n\r\n";
  EXPECT_EQ(FeedAll(p, wire), wire.size());
  ASSERT_TRUE(p.done());
  EXPECT_EQ(p.request().method, "GET");
  EXPECT_EQ(p.request().target, "/jobs/j0?x=1");
  EXPECT_EQ(p.request().path, "/jobs/j0");
  EXPECT_EQ(p.request().query, "x=1");
  EXPECT_TRUE(p.request().keep_alive);
  ASSERT_NE(p.request().FindHeader("host"), nullptr);
  EXPECT_EQ(*p.request().FindHeader("host"), "a");
}

TEST(HttpParserTest, ByteAtATime) {
  // Torn packets: every byte arrives alone; the result must be identical.
  HttpParser p;
  std::string wire =
      "POST /query?job=i0 HTTP/1.1\r\nContent-Length: 5\r\n"
      "X-Extra:  padded value \r\n\r\n1,2,3";
  for (char c : wire) {
    ASSERT_FALSE(p.failed()) << p.error();
    EXPECT_EQ(p.Feed(&c, 1), 1u);
  }
  ASSERT_TRUE(p.done()) << p.error();
  EXPECT_EQ(p.request().method, "POST");
  EXPECT_EQ(p.request().body, "1,2,3");
  ASSERT_NE(p.request().FindHeader("x-extra"), nullptr);
  EXPECT_EQ(*p.request().FindHeader("x-extra"), "padded value");
}

TEST(HttpParserTest, StopsAtOneRequestForPipelining) {
  HttpParser p;
  std::string two =
      "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
  size_t consumed = FeedAll(p, two);
  ASSERT_TRUE(p.done());
  EXPECT_EQ(p.request().path, "/a");
  EXPECT_EQ(consumed, two.size() / 2);  // second request untouched
  p.Reset();
  EXPECT_EQ(p.Feed(two.data() + consumed, two.size() - consumed),
            two.size() - consumed);
  ASSERT_TRUE(p.done());
  EXPECT_EQ(p.request().path, "/b");
}

TEST(HttpParserTest, BareLfAndLeadingBlankLinesTolerated) {
  HttpParser p;
  std::string wire = "\r\n\nGET /a HTTP/1.1\nHost: b\n\n";
  EXPECT_EQ(FeedAll(p, wire), wire.size());
  ASSERT_TRUE(p.done()) << p.error();
  EXPECT_EQ(p.request().path, "/a");
}

TEST(HttpParserTest, KeepAliveDefaults) {
  {
    HttpParser p;
    std::string s = "GET / HTTP/1.1\r\n\r\n";
    FeedAll(p, s);
    ASSERT_TRUE(p.done());
    EXPECT_TRUE(p.request().keep_alive);
  }
  {
    HttpParser p;
    std::string s = "GET / HTTP/1.0\r\n\r\n";
    FeedAll(p, s);
    ASSERT_TRUE(p.done());
    EXPECT_FALSE(p.request().keep_alive);
  }
  {
    HttpParser p;
    std::string s = "GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
    FeedAll(p, s);
    ASSERT_TRUE(p.done());
    EXPECT_FALSE(p.request().keep_alive);
  }
  {
    HttpParser p;
    std::string s = "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
    FeedAll(p, s);
    ASSERT_TRUE(p.done());
    EXPECT_TRUE(p.request().keep_alive);
  }
}

TEST(HttpParserTest, ContentLengthBody) {
  HttpParser p;
  std::string s = "POST /q HTTP/1.1\r\nContent-Length: 0\r\n\r\n";
  EXPECT_EQ(FeedAll(p, s), s.size());
  ASSERT_TRUE(p.done());
  EXPECT_TRUE(p.request().body.empty());

  p.Reset();
  std::string body(1000, 'x');
  std::string s2 = "POST /q HTTP/1.1\r\nContent-Length: 1000\r\n\r\n" + body;
  EXPECT_EQ(FeedAll(p, s2), s2.size());
  ASSERT_TRUE(p.done());
  EXPECT_EQ(p.request().body, body);
}

TEST(HttpParserTest, ErrorStatuses) {
  struct Case {
    const char* wire;
    int status;
  } cases[] = {
      {"BAD\r\n\r\n", 400},                                   // no target
      {"GET nopath HTTP/1.1\r\n\r\n", 400},                   // no leading /
      {"GET / HTTP/2.0\r\n\r\n", 505},                        // bad version
      {"GET / FTP/1.1\r\n\r\n", 400},                         // not HTTP
      {"GET / HTTP/1.1\r\nNo colon\r\n\r\n", 400},            // bad header
      {"GET / HTTP/1.1\r\n: novalue\r\n\r\n", 400},           // empty name
      {"POST / HTTP/1.1\r\nContent-Length: -3\r\n\r\n", 400},
      {"POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400},
      {"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501},
  };
  for (const Case& c : cases) {
    HttpParser p;
    std::string wire = c.wire;
    FeedAll(p, wire);
    EXPECT_TRUE(p.failed()) << wire;
    EXPECT_EQ(p.error_status(), c.status) << wire << " -> " << p.error();
  }
}

TEST(HttpParserTest, LimitsMapToStatuses) {
  HttpParserLimits limits;
  limits.max_request_line = 64;
  limits.max_header_bytes = 128;
  limits.max_body_bytes = 16;
  {
    HttpParser p(limits);
    std::string s = "GET /" + std::string(100, 'a') + " HTTP/1.1\r\n\r\n";
    FeedAll(p, s);
    ASSERT_TRUE(p.failed());
    EXPECT_EQ(p.error_status(), 414);
  }
  {
    HttpParser p(limits);
    std::string s =
        "GET / HTTP/1.1\r\nX-Big: " + std::string(200, 'b') + "\r\n\r\n";
    FeedAll(p, s);
    ASSERT_TRUE(p.failed());
    EXPECT_EQ(p.error_status(), 431);
  }
  {
    HttpParser p(limits);
    std::string s = "POST / HTTP/1.1\r\nContent-Length: 64\r\n\r\n";
    FeedAll(p, s);
    ASSERT_TRUE(p.failed());
    EXPECT_EQ(p.error_status(), 413);
  }
}

TEST(HttpParserTest, FuzzedGarbageNeverCrashes) {
  // Deterministic pseudo-random garbage; the parser must end in done() or
  // failed(), never crash or over-consume.
  uint64_t state = 88172645463325252ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int round = 0; round < 200; ++round) {
    std::string garbage;
    size_t len = next() % 512;
    for (size_t i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(next() % 256));
    }
    HttpParser p;
    size_t consumed = p.Feed(garbage.data(), garbage.size());
    EXPECT_LE(consumed, garbage.size());
    if (p.failed()) {
      EXPECT_GE(p.error_status(), 400);
      EXPECT_LT(p.error_status(), 600);
      // An errored parser consumes nothing further.
      EXPECT_EQ(p.Feed(garbage.data(), garbage.size()), 0u);
    }
  }
}

TEST(HttpResponseParserTest, ContentLengthAndUntilClose) {
  {
    HttpResponseParser p;
    std::string wire =
        "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
    EXPECT_EQ(p.Feed(wire.data(), wire.size()), wire.size());
    ASSERT_TRUE(p.done());
    EXPECT_EQ(p.status(), 200);
    EXPECT_EQ(p.body(), "ok");
  }
  {
    HttpResponseParser p;
    std::string wire =
        "HTTP/1.0 404 Not Found\r\nConnection: close\r\n\r\npartial";
    p.Feed(wire.data(), wire.size());
    EXPECT_FALSE(p.done());  // no length: body runs to EOF
    p.FinishEof();
    ASSERT_TRUE(p.done());
    EXPECT_EQ(p.status(), 404);
    EXPECT_EQ(p.body(), "partial");
    EXPECT_FALSE(p.keep_alive());
  }
}

TEST(HttpResponseParserTest, ChunkedBody) {
  HttpResponseParser p;
  std::string wire =
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "5\r\nhello\r\n7\r\n, world\r\n0\r\n\r\n";
  EXPECT_EQ(p.Feed(wire.data(), wire.size()), wire.size());
  ASSERT_TRUE(p.done()) << p.error();
  EXPECT_EQ(p.status(), 200);
  EXPECT_EQ(p.body(), "hello, world");
  EXPECT_TRUE(p.keep_alive());
}

TEST(HttpResponseParserTest, ChunkedByteAtATime) {
  HttpResponseParser p;
  std::string wire =
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "a\r\n0123456789\r\n1\r\n!\r\n0\r\n\r\n";
  for (char c : wire) {
    ASSERT_FALSE(p.failed()) << p.error();
    EXPECT_EQ(p.Feed(&c, 1), 1u);
  }
  ASSERT_TRUE(p.done()) << p.error();
  EXPECT_EQ(p.body(), "0123456789!");
}

TEST(HttpResponseParserTest, ChunkedExtensionsAndTrailersIgnored) {
  HttpResponseParser p;
  std::string wire =
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "4;name=value\r\ndata\r\n0\r\nX-Trailer: ignored\r\n\r\n";
  EXPECT_EQ(p.Feed(wire.data(), wire.size()), wire.size());
  ASSERT_TRUE(p.done()) << p.error();
  EXPECT_EQ(p.body(), "data");
}

TEST(HttpResponseParserTest, ChunkedOverridesContentLength) {
  // RFC 7230 §3.3.3: Transfer-Encoding wins when both are present.
  HttpResponseParser p;
  std::string wire =
      "HTTP/1.1 200 OK\r\nContent-Length: 999\r\n"
      "Transfer-Encoding: chunked\r\n\r\n"
      "2\r\nok\r\n0\r\n\r\n";
  EXPECT_EQ(p.Feed(wire.data(), wire.size()), wire.size());
  ASSERT_TRUE(p.done()) << p.error();
  EXPECT_EQ(p.body(), "ok");
}

TEST(HttpResponseParserTest, ChunkedMalformedSizeFails) {
  for (const char* frame : {"zz\r\n", "\r\n", "5 junk\r\n"}) {
    HttpResponseParser p;
    std::string wire = std::string(
        "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n") + frame;
    p.Feed(wire.data(), wire.size());
    EXPECT_TRUE(p.failed()) << "frame: " << frame;
  }
}

TEST(HttpResponseParserTest, ChunkedMissingCrlfAfterDataFails) {
  HttpResponseParser p;
  std::string wire =
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "4\r\ndataJUNK\r\n";
  p.Feed(wire.data(), wire.size());
  EXPECT_TRUE(p.failed());
}

TEST(HttpResponseParserTest, ChunkedBodyLimitEnforced) {
  HttpResponseParserLimits limits;
  limits.max_body_bytes = 8;
  HttpResponseParser p(limits);
  std::string wire =
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "6\r\nabcdef\r\n6\r\nghijkl\r\n0\r\n\r\n";
  p.Feed(wire.data(), wire.size());
  EXPECT_TRUE(p.failed());
  EXPECT_NE(p.error().find("too large"), std::string::npos);
}

TEST(HttpResponseParserTest, ChunkedHugeSizeLineFails) {
  HttpResponseParserLimits limits;
  limits.max_chunk_line = 16;
  HttpResponseParser p(limits);
  std::string wire =
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "4;" + std::string(64, 'x');  // size line never ends
  p.Feed(wire.data(), wire.size());
  EXPECT_TRUE(p.failed());
}

TEST(HttpResponseParserTest, ChunkedEofMidBodyIsError) {
  HttpResponseParser p;
  std::string wire =
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "5\r\nhel";
  p.Feed(wire.data(), wire.size());
  p.FinishEof();
  EXPECT_TRUE(p.failed());
}

TEST(HttpResponseParserTest, ChunkedResetReusesParser) {
  HttpResponseParser p;
  std::string chunked =
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "3\r\nabc\r\n0\r\n\r\n";
  EXPECT_EQ(p.Feed(chunked.data(), chunked.size()), chunked.size());
  ASSERT_TRUE(p.done());
  p.Reset();
  // The next response on the connection is plain Content-Length framing;
  // no chunked state may leak across Reset().
  std::string plain = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
  EXPECT_EQ(p.Feed(plain.data(), plain.size()), plain.size());
  ASSERT_TRUE(p.done()) << p.error();
  EXPECT_EQ(p.body(), "ok");
}

TEST(HttpParserTest, RequestChunkedStillRejectedWith501) {
  // The server-side parser intentionally keeps rejecting chunked request
  // bodies; only responses stream.
  HttpParser p;
  std::string wire =
      "POST /q HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
  FeedAll(p, wire);
  ASSERT_TRUE(p.failed());
  EXPECT_EQ(p.error_status(), 501);
}

TEST(SerializeTest, ResponseAndRequestRoundTrip) {
  HttpResponse resp;
  resp.status = 200;
  resp.body = "hello";
  std::string wire = SerializeResponse(resp, /*keep_alive=*/true);
  EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 9), "\r\n\r\nhello");

  std::string req = SerializeRequest("POST", "/q?x=1", "h", "body",
                                     /*keep_alive=*/false);
  HttpParser p;
  EXPECT_EQ(p.Feed(req.data(), req.size()), req.size());
  ASSERT_TRUE(p.done()) << p.error();
  EXPECT_EQ(p.request().method, "POST");
  EXPECT_EQ(p.request().path, "/q");
  EXPECT_EQ(p.request().body, "body");
  EXPECT_FALSE(p.request().keep_alive);
}

}  // namespace
}  // namespace rafiki::net
