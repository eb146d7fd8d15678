// RspServer: the GDB Remote Serial Protocol state machine — the piece
// that makes the co-simulated system debuggable by any stock RSP client
// (gdb's `target remote`, IDEs, scripted test clients), reproducing the
// run-control role mb-gdb plays in the paper's Figure 2 pipe.
//
// The server owns no sockets and no machine: it speaks through a
// Transport (loopback pair in tests, TCP for live clients) and drives a
// CoSimTarget (the machine's debugger). Two operating modes:
//   - serve(): blocking session loop for a live client;
//   - pump():  process exactly the bytes already queued — the
//     deterministic entry the loopback protocol tests use.
//
// Supported packets: qSupported, ?, g/G, p/P, m/M/X, c, s, vCont,
// Z0/z0 (and Z1/z1, same mechanism), k, D, H/T thread stubs, qRcmd
// (monitor commands, forwarded to the target's verbs) and
// the common handshake queries. Unknown packets get the standard empty
// reply so clients can probe features.
#pragma once

#include <atomic>
#include <deque>
#include <optional>
#include <string>
#include <string_view>

#include "common/types.hpp"
#include "rsp/cosim_target.hpp"
#include "rsp/packet.hpp"
#include "rsp/transport.hpp"

namespace mbcosim::rsp {

/// How a debug session ended.
enum class SessionEnd : u8 {
  kDetached,      ///< client sent `D`
  kKilled,        ///< client sent `k`
  kDisconnected,  ///< transport closed under us
};

[[nodiscard]] constexpr const char* to_string(SessionEnd end) noexcept {
  switch (end) {
    case SessionEnd::kDetached: return "detached";
    case SessionEnd::kKilled: return "killed";
    case SessionEnd::kDisconnected: return "disconnected";
  }
  return "?";
}

class RspServer {
 public:
  struct Options {
    /// Simulated cycles per resume quantum; between quanta the server
    /// polls the transport for gdb's `\x03` interrupt.
    Cycle resume_quantum = 100'000;
    /// Hard ceiling on one continue (safety net for runaway guests in
    /// tests; a live session leaves it effectively unbounded).
    Cycle max_resume_cycles = ~Cycle{0};
    /// Transport poll granularity of the blocking serve() loop.
    int poll_ms = 20;
  };

  RspServer(Transport& transport, CoSimTarget& target, Options options)
      : transport_(transport), target_(target), options_(options) {}
  RspServer(Transport& transport, CoSimTarget& target)
      : RspServer(transport, target, Options{}) {}

  /// While a session is live, poll-accept further clients on this
  /// listener and turn each away with a framed "E.srv-busy: ..." error
  /// before closing — one debugger per target, but the loser learns why.
  /// The listener must outlive the server. Null (default) disables.
  void set_busy_listener(TcpListener* listener) { busy_listener_ = listener; }

  /// External cancellation: when `*cancel` becomes true the session ends
  /// (kDisconnected) at the next pump, and a running continue stops at
  /// the next resume-quantum boundary. The flag must outlive the server.
  /// The simulation server uses this to kill a debug-attached session.
  void set_cancel(const std::atomic<bool>* cancel) { cancel_ = cancel; }

  /// Blocking session loop: handle packets until detach, kill or
  /// disconnect.
  SessionEnd serve();

  /// Drain the bytes currently available from the transport and handle
  /// every complete packet among them — no waiting, fully deterministic
  /// on a loopback transport. Returns true while the session is alive.
  bool pump();

  [[nodiscard]] bool ended() const noexcept { return end_.has_value(); }
  [[nodiscard]] SessionEnd end() const { return *end_; }

 private:
  void drain_transport(int timeout_ms);
  void reject_pending_clients();
  [[nodiscard]] bool cancelled() const {
    return cancel_ != nullptr && cancel_->load(std::memory_order_relaxed);
  }
  /// Remove and report a queued interrupt event (polled mid-resume).
  bool take_interrupt();
  void handle_event(const DecoderEvent& event);
  /// Reply payload for one packet; nullopt = no reply at all (`k`).
  std::optional<std::string> handle_packet(std::string_view payload);
  std::string handle_query(std::string_view payload);
  std::string run_target(bool step, std::optional<Addr> addr);
  [[nodiscard]] static std::string stop_reply(const StopInfo& stop);
  void transmit(std::string_view payload);

  Transport& transport_;
  CoSimTarget& target_;
  Options options_;
  TcpListener* busy_listener_ = nullptr;
  const std::atomic<bool>* cancel_ = nullptr;
  PacketDecoder decoder_;
  std::deque<DecoderEvent> queue_;
  std::string last_reply_frame_;       ///< retransmitted on NAK
  std::string last_stop_reply_ = "S05";  ///< what `?` reports
  std::optional<SessionEnd> end_;
};

}  // namespace mbcosim::rsp
