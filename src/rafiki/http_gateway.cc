#include "rafiki/http_gateway.h"

#include "common/string_util.h"

namespace rafiki::api {

Result<GatewayRequest> FromHttp(const net::HttpRequest& http) {
  GatewayRequest out;
  out.method = http.method;
  out.path = http.path;
  if (out.path.find('%') != std::string_view::npos) {
    out.path = out.Keep(net::PercentDecode(out.path));
  }
  if (out.path.empty() || out.path[0] != '/') {
    return Status::InvalidArgument("path must start with '/'");
  }
  RAFIKI_RETURN_IF_ERROR(ParseParams(http.query, &out));
  out.body = http.body;
  return out;
}

net::HttpResponse ToHttp(const GatewayResponse& response) {
  net::HttpResponse http;
  http.status = response.status;
  http.body = response.body + "\n";
  return http;
}

namespace {

using net::HttpServer;

/// Extends a successful metrics-route body with the front door's own
/// gauges (admitted vs parked responses).
void AppendServerGauges(const ServerStatsFn& server_stats,
                        GatewayResponse* response) {
  if (response->status != 200) return;
  net::HttpServerStats stats = server_stats();
  response->body += StrFormat(
      "&inflight=%llu&inflight_peak=%llu&async_pending=%llu",
      static_cast<unsigned long long>(stats.inflight),
      static_cast<unsigned long long>(stats.inflight_peak),
      static_cast<unsigned long long>(stats.async_pending));
}

/// Builds the reply in the request's pooled slot: completing with the
/// writer's own response() skips the copy into the slot.
void CompleteWith(HttpServer::ResponseWriter writer,
                  const GatewayResponse& response) {
  net::HttpResponse& out = writer.response();
  out.status = response.status;
  out.body.assign(response.body);
  out.body.push_back('\n');
  writer.Complete(out);
}

}  // namespace

HttpServer::AsyncHandler MakeGatewayAsyncHttpHandler(
    Gateway* gateway, ServerStatsFn server_stats) {
  return [gateway, server_stats](const net::HttpRequest& http,
                                 HttpServer::ResponseWriter writer) {
    Result<GatewayRequest> request = FromHttp(http);
    if (!request.ok()) {
      writer.Complete(ToHttp(
          GatewayResponse{400, "error=" + request.status().ToString()}));
      return;
    }
    if (server_stats && request->path.ends_with("/metrics")) {
      // Only the metrics route carries the gauge source.
      gateway->DispatchAsync(
          *request,
          [writer, server_stats](GatewayResponse response) mutable {
            AppendServerGauges(server_stats, &response);
            CompleteWith(std::move(writer), response);
          });
      return;
    }
    // The writer rides the continuation as one raw handle, so either
    // continuation is a single pointer inside std::function's inline
    // buffer: GET routes complete it before DispatchAsync returns, query
    // routes on the inference dispatcher thread, control POSTs on the
    // control thread. The gateway runs exactly one of the two.
    HttpServer::ResponseSlot* handle = std::move(writer).Release();
    gateway->DispatchAsync(
        *request,
        [handle](GatewayResponse response) {
          CompleteWith(HttpServer::ResponseWriter::Adopt(handle), response);
        },
        [handle](const Result<Prediction>& answer) {
          // Format the answer straight into the slot's response body.
          HttpServer::ResponseWriter writer =
              HttpServer::ResponseWriter::Adopt(handle);
          net::HttpResponse& out = writer.response();
          Gateway::FormatAnswer(answer, &out.status, &out.body);
          out.body.push_back('\n');
          writer.Complete(out);
        });
  };
}

}  // namespace rafiki::api
