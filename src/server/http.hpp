// Minimal HTTP/1.1 layer for the simulation server — just enough of the
// protocol for curl and scripted clients: Content-Length bodies in,
// fixed or chunked bodies out, opt-in keep-alive (a client that sends
// "Connection: keep-alive" may issue up to kMaxRequestsPerConnection
// requests on one connection; everyone else gets one request and
// "Connection: close"). It rides on rsp::Transport, so the same parsing
// code is unit-tested over deterministic loopback pairs and serves live
// TCP clients unchanged. No third-party dependency, same as the rest of
// the tree.
#pragma once

#include <atomic>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "rsp/transport.hpp"

namespace mbcosim::server {

/// Hard ceilings on request size; anything beyond is a
/// "[srv-bad-request]" rejection, not an allocation.
inline constexpr std::size_t kMaxHeaderBytes = 64 * 1024;
inline constexpr std::size_t kMaxBodyBytes = 64 * 1024 * 1024;

/// Bound on requests served over one keep-alive connection; the last
/// response carries "Connection: close" so well-behaved clients
/// reconnect instead of stalling.
inline constexpr int kMaxRequestsPerConnection = 64;

/// How long a connection may sit idle between requests (and how long a
/// single request may stall mid-transfer) before it is dropped.
inline constexpr int kRequestTimeoutMs = 10'000;

struct HttpRequest {
  std::string method;  ///< "GET", "POST", "DELETE", ...
  std::string target;  ///< raw request target ("/sessions/3/run")
  std::string path;    ///< target with any "?query" stripped
  /// Header fields, keys lower-cased ("content-length").
  std::map<std::string, std::string> headers;
  std::string body;
};

/// Read one complete request from the transport, waiting at most
/// `timeout_ms` overall. Failure messages start with
/// "[srv-bad-request]", except the internal "[closed]" marker for a
/// connection that went away before sending anything (callers drop
/// those silently).
[[nodiscard]] Expected<HttpRequest> read_request(rsp::Transport& transport,
                                                 int timeout_ms);

/// Keep-alive variant: `carry` holds bytes received past the previous
/// request's body (a pipelined next request); they are consumed before
/// the transport is read, and any surplus past this request's body is
/// stored back. The "went away before sending anything" [closed] case
/// includes an empty carry.
[[nodiscard]] Expected<HttpRequest> read_request(rsp::Transport& transport,
                                                 int timeout_ms,
                                                 std::string& carry);

/// Writes one response — either respond() for a fixed body or
/// begin_chunked()/chunk()/finish_chunked() for a stream. Every method
/// returns false once the client is gone; callers just stop writing.
class HttpResponseWriter {
 public:
  explicit HttpResponseWriter(rsp::Transport& transport)
      : transport_(transport) {}

  bool respond(int status, std::string_view content_type,
               std::string_view body);
  bool begin_chunked(int status, std::string_view content_type);
  bool chunk(std::string_view data);
  bool finish_chunked();

  /// Whether respond() advertises "Connection: keep-alive". Chunked
  /// streams always close — their length is only delimited by EOF from
  /// the client's point of view once the stream is abandoned.
  void set_keep_alive(bool keep_alive) noexcept { keep_alive_ = keep_alive; }
  [[nodiscard]] bool keep_alive() const noexcept { return keep_alive_; }
  [[nodiscard]] bool chunked() const noexcept { return chunked_; }

  /// Poll the connection: false once the peer has disconnected. Lets a
  /// long-lived stream with nothing to say notice an abandoned client.
  [[nodiscard]] bool client_alive();

  [[nodiscard]] bool responded() const noexcept { return responded_; }

  [[nodiscard]] static const char* status_text(int status) noexcept;

 private:
  rsp::Transport& transport_;
  bool responded_ = false;
  bool keep_alive_ = false;
  bool chunked_ = false;
};

/// One connection's request loop: read requests, run the handler,
/// honour opt-in keep-alive ("Connection: keep-alive" request header)
/// up to kMaxRequestsPerConnection requests, close on anything else —
/// "Connection: close", malformed requests, chunked responses, idle
/// timeout, server shutdown. Factored out of HttpServer so loopback
/// tests drive it without sockets.
void serve_connection(
    rsp::Transport& transport,
    const std::function<void(const HttpRequest&, HttpResponseWriter&)>&
        handler,
    const std::atomic<bool>* stopping = nullptr);

/// Accepts connections on 127.0.0.1:port and runs the handler on one
/// thread per connection (a telemetry stream may occupy its connection
/// for the whole life of a session, so connections must not serialize).
/// Each connection runs serve_connection(): one request unless the
/// client opts into keep-alive. The accept loop joins finished
/// connection threads, so a long-lived daemon holds threads only for the
/// connections still open.
class HttpServer {
 public:
  using Handler = std::function<void(const HttpRequest&, HttpResponseWriter&)>;

  /// Bind, listen and start accepting. Port 0 picks an ephemeral port;
  /// port() reports the bound one.
  [[nodiscard]] static Expected<std::unique_ptr<HttpServer>> start(
      u16 port, Handler handler);

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;
  ~HttpServer() { stop(); }

  [[nodiscard]] u16 port() const noexcept { return port_; }

  /// Stop accepting and join every connection thread (idempotent).
  /// In-flight handlers run to completion — shut sessions down first so
  /// their streams end.
  void stop();

 private:
  struct Connection {
    std::atomic<bool> done{false};  ///< set as the thread's last act
    std::thread thread;
  };

  HttpServer(rsp::TcpListener listener, Handler handler);
  void accept_loop();
  /// Join and drop the connections whose threads have finished; called
  /// with mutex_ held.
  void reap_finished();

  rsp::TcpListener listener_;
  Handler handler_;
  u16 port_ = 0;
  std::atomic<bool> stopping_{false};
  std::mutex mutex_;  ///< guards connections_
  std::list<Connection> connections_;  // list: `done` must not move
  std::thread acceptor_;
};

}  // namespace mbcosim::server
