#include "rafiki/http_gateway.h"

#include "common/string_util.h"

namespace rafiki::api {

Result<GatewayRequest> FromHttp(const net::HttpRequest& http) {
  GatewayRequest out;
  out.method = http.method;
  out.path = net::PercentDecode(http.path);
  if (out.path.empty() || out.path[0] != '/') {
    return Status::InvalidArgument("path must start with '/'");
  }
  if (!http.query.empty()) {
    for (const std::string& pair : Split(http.query, '&')) {
      if (pair.empty()) continue;
      size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument(
            StrFormat("malformed parameter '%s'", pair.c_str()));
      }
      out.params[net::PercentDecode(pair.substr(0, eq))] =
          net::PercentDecode(pair.substr(eq + 1), /*plus_as_space=*/true);
    }
  }
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

/// Extends a successful metrics-route body with the front door's own
/// gauges (admitted vs parked responses), keyed off the decoded request
/// path so only `GET /jobs/<id>/metrics` pays it.
void MaybeAppendServerGauges(const std::string& path,
                             const ServerStatsFn& server_stats,
                             GatewayResponse* response) {
  if (!server_stats || response->status != 200 ||
      !EndsWith(path, "/metrics")) {
    return;
  }
  net::HttpServerStats stats = server_stats();
  response->body += StrFormat(
      "&inflight=%llu&inflight_peak=%llu&async_pending=%llu",
      static_cast<unsigned long long>(stats.inflight),
      static_cast<unsigned long long>(stats.inflight_peak),
      static_cast<unsigned long long>(stats.async_pending));
}

}  // namespace

net::HttpServer::AsyncHandler MakeGatewayAsyncHttpHandler(
    Gateway* gateway, ServerStatsFn server_stats) {
  return [gateway, server_stats](const net::HttpRequest& http,
                                 net::HttpServer::ResponseWriter writer) {
    Result<GatewayRequest> request = FromHttp(http);
    if (!request.ok()) {
      writer.Complete(ToHttp(
          GatewayResponse{400, "error=" + request.status().ToString()}));
      return;
    }
    // The writer rides the continuation: GET routes complete it before
    // DispatchAsync returns, query routes from the inference dispatcher
    // thread at batch completion, control POSTs from the control thread.
    std::string path = request->path;
    gateway->DispatchAsync(
        *request, [writer, server_stats, path](GatewayResponse response) {
          MaybeAppendServerGauges(path, server_stats, &response);
          net::HttpServer::ResponseWriter w = writer;
          // Build the reply in the request's pooled slot: completing with
          // the writer's own response() skips the copy into the slot.
          net::HttpResponse& out = w.response();
          out.status = response.status;
          out.body.assign(response.body);
          out.body.push_back('\n');
          w.Complete(out);
        });
  };
}

}  // namespace rafiki::api
