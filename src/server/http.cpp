#include "server/http.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <utility>

#include "common/json.hpp"

namespace mbcosim::server {

namespace {

/// recv() slice used while assembling a request. Only slices that
/// return no data are charged against the timeout, so the budget bounds
/// *idle* time: a client streaming a large body is never timed out
/// mid-transfer no matter how many 4KB recv() calls it takes, while a
/// stalled request fails after ~timeout_ms of silence. Loopback
/// transports return instantly regardless; empty loopback reads still
/// charge a slice, so a truncated loopback request fails fast instead
/// of looping forever.
constexpr int kRecvSliceMs = 50;

std::string lower(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return text;
}

std::string trim(const std::string& text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin])) != 0) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) {
    --end;
  }
  return text.substr(begin, end - begin);
}

/// Parse the header section (everything before the blank line) into the
/// request; empty string on success.
std::string parse_head(const std::string& head, HttpRequest& out) {
  std::size_t pos = 0;
  const std::size_t line_end = head.find("\r\n");
  const std::string request_line =
      head.substr(0, line_end == std::string::npos ? head.size() : line_end);
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    return "[srv-bad-request] malformed request line";
  }
  out.method = request_line.substr(0, sp1);
  out.target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t query = out.target.find('?');
  out.path = query == std::string::npos ? out.target
                                        : out.target.substr(0, query);
  if (out.method.empty() || out.path.empty() || out.path.front() != '/') {
    return "[srv-bad-request] malformed request line";
  }
  pos = line_end == std::string::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    std::size_t next = head.find("\r\n", pos);
    if (next == std::string::npos) next = head.size();
    const std::string line = head.substr(pos, next - pos);
    pos = next + 2;
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) {
      return "[srv-bad-request] malformed header line";
    }
    out.headers[lower(trim(line.substr(0, colon)))] =
        trim(line.substr(colon + 1));
  }
  return {};
}

}  // namespace

Expected<HttpRequest> read_request(rsp::Transport& transport, int timeout_ms) {
  std::string carry;
  return read_request(transport, timeout_ms, carry);
}

Expected<HttpRequest> read_request(rsp::Transport& transport, int timeout_ms,
                                   std::string& carry) {
  using Failure = Expected<HttpRequest>;
  std::string buffer = std::move(carry);
  carry.clear();
  std::size_t head_end = std::string::npos;
  int elapsed = 0;
  // Phase 1: accumulate until the blank line ending the header section.
  while (true) {
    head_end = buffer.find("\r\n\r\n");
    if (head_end != std::string::npos) break;
    if (buffer.size() > kMaxHeaderBytes) {
      return Failure::failure("[srv-bad-request] header section too large");
    }
    if (transport.closed()) {
      if (buffer.empty()) return Failure::failure("[closed]");
      return Failure::failure("[srv-bad-request] truncated request");
    }
    if (elapsed >= timeout_ms) {
      if (buffer.empty()) return Failure::failure("[closed]");
      return Failure::failure("[srv-bad-request] timed out reading request");
    }
    const std::string chunk = transport.recv(kRecvSliceMs);
    if (chunk.empty()) elapsed += kRecvSliceMs;
    buffer += chunk;
  }

  HttpRequest request;
  if (std::string err = parse_head(buffer.substr(0, head_end + 2), request);
      !err.empty()) {
    return Failure::failure(err);
  }

  std::size_t content_length = 0;
  if (const auto it = request.headers.find("content-length");
      it != request.headers.end()) {
    try {
      content_length = std::stoull(it->second);
    } catch (const std::exception&) {
      return Failure::failure("[srv-bad-request] bad Content-Length");
    }
  }
  if (content_length > kMaxBodyBytes) {
    return Failure::failure("[srv-bad-request] body too large");
  }

  // Phase 2: the body. Bytes beyond the header section already read
  // count toward it.
  request.body = buffer.substr(head_end + 4);
  while (request.body.size() < content_length) {
    if (transport.closed()) {
      return Failure::failure("[srv-bad-request] truncated request body");
    }
    if (elapsed >= timeout_ms) {
      return Failure::failure("[srv-bad-request] timed out reading body");
    }
    const std::string chunk = transport.recv(kRecvSliceMs);
    if (chunk.empty()) elapsed += kRecvSliceMs;
    request.body += chunk;
  }
  // Bytes past the body belong to the next pipelined request on a
  // keep-alive connection; hand them back instead of dropping them.
  carry = request.body.substr(content_length);
  request.body.resize(content_length);
  return request;
}

const char* HttpResponseWriter::status_text(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 409: return "Conflict";
    case 503: return "Service Unavailable";
    case 500:
    default: return "Internal Server Error";
  }
}

bool HttpResponseWriter::respond(int status, std::string_view content_type,
                                 std::string_view body) {
  responded_ = true;
  std::string head = "HTTP/1.1 " + std::to_string(status) + " " +
                     status_text(status) + "\r\nContent-Type: " +
                     std::string(content_type) + "\r\nContent-Length: " +
                     std::to_string(body.size()) + "\r\nConnection: " +
                     (keep_alive_ ? "keep-alive" : "close") + "\r\n\r\n";
  head += body;
  return transport_.send(head);
}

bool HttpResponseWriter::begin_chunked(int status,
                                       std::string_view content_type) {
  responded_ = true;
  chunked_ = true;
  keep_alive_ = false;  // a stream occupies its connection until EOF
  const std::string head = "HTTP/1.1 " + std::to_string(status) + " " +
                           status_text(status) + "\r\nContent-Type: " +
                           std::string(content_type) +
                           "\r\nTransfer-Encoding: chunked\r\nConnection: "
                           "close\r\n\r\n";
  return transport_.send(head);
}

bool HttpResponseWriter::chunk(std::string_view data) {
  if (data.empty()) return true;  // a zero-size chunk would end the stream
  char size[32];
  std::snprintf(size, sizeof size, "%zx\r\n", data.size());
  std::string frame = size;
  frame += data;
  frame += "\r\n";
  return transport_.send(frame);
}

bool HttpResponseWriter::finish_chunked() {
  return transport_.send("0\r\n\r\n");
}

bool HttpResponseWriter::client_alive() {
  // Only chunked streams probe, and a chunked response pins its
  // connection (keep-alive is forced off): nothing legitimate arrives
  // after the request, so draining is safe and lets closed() observe
  // EOF.
  (void)transport_.recv(0);
  return !transport_.closed();
}

void serve_connection(
    rsp::Transport& transport,
    const std::function<void(const HttpRequest&, HttpResponseWriter&)>&
        handler,
    const std::atomic<bool>* stopping) {
  std::string carry;  // pipelined bytes past one request's body
  for (int served = 1; served <= kMaxRequestsPerConnection; ++served) {
    Expected<HttpRequest> request =
        read_request(transport, kRequestTimeoutMs, carry);
    HttpResponseWriter writer(transport);
    if (!request) {
      // "[closed]" covers both a connection that never spoke and a
      // keep-alive client that hung up (or idled out) between requests.
      if (request.error() != "[closed]") {
        writer.respond(
            400, "application/json",
            "{\"error\":\"" + common::json::escape(request.error()) + "\"}");
      }
      return;
    }
    bool keep = false;
    if (const auto it = request.value().headers.find("connection");
        it != request.value().headers.end()) {
      std::string value = it->second;
      std::transform(value.begin(), value.end(), value.begin(),
                     [](unsigned char c) {
                       return static_cast<char>(std::tolower(c));
                     });
      keep = value == "keep-alive";
    }
    if (served == kMaxRequestsPerConnection ||
        (stopping != nullptr &&
         stopping->load(std::memory_order_relaxed))) {
      keep = false;
    }
    writer.set_keep_alive(keep);
    handler(request.value(), writer);
    if (writer.chunked() || !writer.keep_alive()) return;
  }
}

Expected<std::unique_ptr<HttpServer>> HttpServer::start(u16 port,
                                                        Handler handler) {
  using Failure = Expected<std::unique_ptr<HttpServer>>;
  Expected<rsp::TcpListener> bound = rsp::TcpListener::listen(port, 16);
  if (!bound) {
    return Failure::failure("HttpServer: " + bound.error());
  }
  // Constructor is private; no make_unique.
  std::unique_ptr<HttpServer> server(
      new HttpServer(std::move(bound).value(), std::move(handler)));
  return server;
}

HttpServer::HttpServer(rsp::TcpListener listener, Handler handler)
    : listener_(std::move(listener)),
      handler_(std::move(handler)),
      port_(listener_.port()) {
  acceptor_ = std::thread([this] { accept_loop(); });
}

void HttpServer::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    std::unique_ptr<rsp::Transport> client = listener_.accept(100);
    std::lock_guard<std::mutex> lock(mutex_);
    reap_finished();
    if (client == nullptr) continue;
    std::shared_ptr<rsp::Transport> shared = std::move(client);
    Connection& connection = connections_.emplace_back();
    connection.thread = std::thread([this, shared, &connection] {
      serve_connection(*shared, handler_, &stopping_);
      connection.done.store(true, std::memory_order_release);
    });
  }
}

void HttpServer::reap_finished() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->done.load(std::memory_order_acquire)) {
      it->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void HttpServer::stop() {
  if (stopping_.exchange(true)) {
    return;  // a second caller must not re-join the threads
  }
  if (acceptor_.joinable()) acceptor_.join();
  std::list<Connection> connections;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    connections.swap(connections_);
  }
  for (Connection& connection : connections) {
    if (connection.thread.joinable()) connection.thread.join();
  }
}

}  // namespace mbcosim::server
