// The hosted workload, farm_hosted: one client drives a child mbcserve
// over loopback, one request per connection, in a closed loop.
//
//   session  POST /sessions with the scaled 3-core, 16-PE CORDIC farm
//            (feeder -> worker+cordic -> collector), engine workers 2,
//            metrics on; the daemon runs with --state-dir, so every
//            session is journaled and seals a checkpoint at every run exit.
//   op       POST run to the next multiple of kSegment cycles, poll
//            GET /sessions/N every kPollMs until idle, GET metrics; every
//            kCheckpointEvery-th op also GET checkpoint.
//   end      after kOpsPerSession ops: GET stats, DELETE.
//
// Every page is checked byte for byte against an in-process batch run of
// the same machine to the same cycle target, chunked the way a session
// chunks its runs; the final pages also against a one-shot run. Segment
// and control quantum are multiples of the machine quantum (64): other
// chunkings do not match batch today.
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "apps/cordic/cordic_app.hpp"
#include "apps/machine_peripherals.hpp"
#include "asm/assembler.hpp"
#include "bench.hpp"
#include "common/json.hpp"
#include "machine/machine_desc.hpp"
#include "server/session.hpp"
#include "sim/sim_system.hpp"

namespace perfbench {

namespace {

using namespace mbcosim;
namespace fs = std::filesystem;

constexpr Cycle kQuantum = 64;                 // machine quantum
constexpr Cycle kSegment = kQuantum * 200;     // cycles per op
constexpr Cycle kControlQuantum = kQuantum * 100;
constexpr unsigned kOpsPerSession = 4;
constexpr unsigned kCheckpointEvery = 2;
constexpr unsigned kEngineWorkers = 2;
constexpr unsigned kFarmItems = 8;
constexpr unsigned kFarmIterations = 16;       // one pass through 16 PEs
constexpr unsigned kRounds = 1'000'000;        // never halts in a session
constexpr int kPollMs = 2;
constexpr double kOpTimeoutS = 60.0;

std::string hex_words(std::span<const i32> values) {
  std::string out;
  char line[32];
  for (const i32 value : values) {
    std::snprintf(line, sizeof line, "  .word 0x%08x\n",
                  static_cast<unsigned>(value));
    out += line;
  }
  return out;
}

/// The bench_server farm topology with the feeder's 8 pairs from the
/// seed: feeder streams the pairs every round, the worker pushes sets of
/// 4 through its 16-PE pipeline (s0 = 0, 16 iterations), the collector
/// overwrites the same 8-word result buffer each round.
machine::MachineDesc farm_desc(std::span<const i32> x, std::span<const i32> y) {
  const std::string rounds = std::to_string(kRounds);
  machine::MachineDesc desc;
  desc.quantum = kQuantum;
  desc.fifo_depth = 16;

  machine::CoreDesc feeder;
  feeder.name = "feeder";
  feeder.program = "start:\n  li r25, " + rounds + R"(
round_loop:
  la r21, data_x
  la r22, data_y
  li r29, 32
  addk r10, r0, r0
item_loop:
  lw r3, r21, r10
  put r3, rfsl1
  lw r4, r22, r10
  put r4, rfsl1
  addik r10, r10, 4
  rsub r3, r10, r29
  bnei r3, item_loop
  addik r25, r25, -1
  bnei r25, round_loop
  halt
data_x:
)" + hex_words(x) + "data_y:\n" + hex_words(y);

  machine::CoreDesc worker;
  worker.name = "worker";
  worker.program = "start:\n  li r25, " + rounds + R"(
round_loop:
  li r20, 2
set_loop:
  cput r0, rfsl0
  li r5, 4
send_loop:
  get r3, rfsl1
  put r3, rfsl0
  get r3, rfsl1
  put r3, rfsl0
  put r0, rfsl0
  addik r5, r5, -1
  bnei r5, send_loop
  li r5, 4
recv_loop:
  get r3, rfsl0
  get r3, rfsl0
  get r3, rfsl0
  put r3, rfsl2
  addik r5, r5, -1
  bnei r5, recv_loop
  addik r20, r20, -1
  bnei r20, set_loop
  addik r25, r25, -1
  bnei r25, round_loop
  halt
)";

  machine::CoreDesc collector;
  collector.name = "collector";
  collector.program = "start:\n  li r25, " + rounds + R"(
round_loop:
  la r28, results
  li r29, 32
  addk r10, r0, r0
store_loop:
  get r3, rfsl1
  sw r3, r28, r10
  addik r10, r10, 4
  rsub r3, r10, r29
  bnei r3, store_loop
  addik r25, r25, -1
  bnei r25, round_loop
  halt
results: .space 32
)";

  desc.cores = {feeder, worker, collector};
  desc.links = {{"feeder", 1, "worker", 1}, {"worker", 2, "collector", 1}};
  machine::PeripheralDesc cordic;
  cordic.core = "worker";
  cordic.type = "cordic";
  cordic.channel = 0;
  cordic.params["num_pes"] = 16;
  desc.peripherals = {cordic};
  return desc;
}

Expected<sim::SimSystem> build_farm(const machine::MachineDesc& desc,
                                    bool metrics) {
  sim::SimSystem::Builder builder;
  builder.machine(desc).workers(kEngineWorkers);
  if (metrics) builder.metrics();
  return builder.build();
}

/// Advance to `target` the way Session::worker_run does: control-quantum
/// chunks, each ending at min(current + quantum, target).
core::StopReason run_like_session(sim::SimSystem& system, Cycle target) {
  core::StopReason reason = core::StopReason::kCycleLimit;
  while (system.stats().cycles < target) {
    reason = system.run(std::min(system.stats().cycles + kControlQuantum, target));
    if (reason != core::StopReason::kCycleLimit) break;
  }
  return reason;
}

/// A metrics page without its cpu.stall_run histograms. Every run() call
/// flushes the metrics sink, which closes the stall run in flight, so a
/// run chunked at control-quantum boundaries records split stall runs
/// that a one-shot run does not. This is a known difference between
/// hosted and batch runs; the chunked batch run still matches the
/// hosted pages byte for byte.
std::string without_stall_runs(const std::string& page) {
  std::string out;
  std::size_t begin = 0;
  while (begin < page.size()) {
    std::size_t end = page.find('\n', begin);
    end = end == std::string::npos ? page.size() : end + 1;
    const std::string_view line(page.data() + begin, end - begin);
    if (line.find(".cpu.stall_run ") == std::string_view::npos) out += line;
    begin = end;
  }
  return out;
}

/// The in-process batch run every hosted page is checked against.
struct Reference {
  std::vector<Cycle> cycles;  ///< at op boundary k (index k - 1)
  std::vector<std::string> metrics_pages;
  std::vector<std::string> stats_pages;
  std::vector<std::vector<unsigned char>> images;  ///< empty: no checkpoint op
  std::vector<double> segment_ms;  ///< run time of each segment
  std::vector<std::string> errors;
  // Layer figures (per op unless noted).
  core::CoSimStats stats;  ///< machine totals at the last boundary
  core::CoSimStats worker;  ///< the core with the peripheral, same point
  iss::DbtStats dbt;
  u64 link_words = 0;
  double oneshot_metrics_s = 0.0;
  double oneshot_plain_s = 0.0;
  std::vector<double> image_kb;
  double step_ns = 0.0;
  std::size_t blocks = 0;
};

Reference make_reference(const machine::MachineDesc& desc,
                         std::span<const i32> x, std::span<const i32> y,
                         Tracer& tracer) {
  Reference ref;
  const Cycle target = kSegment * kOpsPerSession;
  {
    Scope span(tracer, "asm.assemble", 0);
    for (const machine::CoreDesc& core : desc.cores) {
      if (Expected<assembler::Program> program =
              assembler::assemble(core.program);
          !program) {
        ref.errors.push_back("assemble " + core.name + ": " + program.error());
        return ref;
      }
    }
  }
  Expected<sim::SimSystem> built = [&] {
    Scope span(tracer, "sim.build", 0);
    return build_farm(desc, true);
  }();
  if (!built) {
    ref.errors.push_back("reference build: " + built.error());
    return ref;
  }
  sim::SimSystem system = std::move(built).value();
  for (unsigned k = 1; k <= kOpsPerSession; ++k) {
    const i64 start = now_ns();
    core::StopReason reason = core::StopReason::kCycleLimit;
    {
      Scope span(tracer, "sim.run", k);
      reason = run_like_session(system, kSegment * k);
    }
    ref.segment_ms.push_back(static_cast<double>(now_ns() - start) / 1e6);
    if (reason != core::StopReason::kCycleLimit) {
      ref.errors.push_back(std::string("reference stopped with ") +
                           core::stop_reason_name(reason));
    }
    ref.cycles.push_back(system.stats().cycles);
    {
      Scope span(tracer, "obs.snapshot", k);
      ref.metrics_pages.push_back(system.metrics_snapshot().to_string());
    }
    ref.stats_pages.push_back(server::stats_text(system));
    if (k % kCheckpointEvery != 0) {
      ref.images.emplace_back();
      continue;
    }
    {
      Scope span(tracer, "ckpt.snapshot", k);
      ref.images.push_back(system.snapshot());
    }
    ref.image_kb.push_back(static_cast<double>(ref.images.back().size()) /
                           1024.0);
    if (tracer.enabled()) {
      Scope span(tracer, "ckpt.restore", k);
      if (Status restored = system.restore_image(ref.images.back());
          !restored.ok) {
        ref.errors.push_back("restore_image: " + restored.message);
      }
    }
  }
  ref.stats = system.stats();
  ref.worker = system.core_stats(desc.core_index("worker"));
  ref.dbt = system.dbt_stats();
  if (const core::ManyCoreEngine* engine = system.machine_engine()) {
    ref.link_words = engine->link_words();
  }

  // One-shot runs to the same target: with metrics (the final pages must
  // match) and, traced, without (the metrics overhead on this machine).
  for (const bool metrics : {true, false}) {
    if (!metrics && !tracer.enabled()) break;
    Expected<sim::SimSystem> again = build_farm(desc, metrics);
    if (!again) {
      ref.errors.push_back("one-shot build: " + again.error());
      return ref;
    }
    sim::SimSystem oneshot = std::move(again).value();
    const i64 start = now_ns();
    const core::StopReason reason = oneshot.run(target);
    (metrics ? ref.oneshot_metrics_s : ref.oneshot_plain_s) =
        static_cast<double>(now_ns() - start) / 1e9;
    if (!metrics) break;
    if (reason != core::StopReason::kCycleLimit) {
      ref.errors.push_back(std::string("one-shot run stopped with ") +
                           core::stop_reason_name(reason));
    }
    if (server::stats_text(oneshot) != ref.stats_pages.back()) {
      ref.errors.push_back("one-shot stats page differs from the chunked run");
    }
    if (without_stall_runs(oneshot.metrics_snapshot().to_string()) !=
        without_stall_runs(ref.metrics_pages.back())) {
      ref.errors.push_back(
          "one-shot metrics page differs from the chunked run");
    }
    // Every round carries the same 8 pairs, so the collector's buffer
    // holds their quotients whichever round it is in.
    const std::size_t collector = oneshot.machine_desc().core_index("collector");
    for (unsigned i = 0; i < kFarmItems; ++i) {
      const auto got = static_cast<i32>(oneshot.word_on(collector, "results", i));
      const i32 want = apps::cordic::cordic_divide_raw(x[i], y[i],
                                                       kFarmIterations);
      if (got != want) {
        ref.errors.push_back("collector result " + std::to_string(i) + " is " +
                             std::to_string(got) + ", reference " +
                             std::to_string(want));
      }
    }
  }

  if (tracer.enabled()) {
    // The farm's peripheral alone, on a single-core system.
    machine::MachineDesc single = machine::MachineDesc::single_core("  halt\n");
    machine::PeripheralDesc cordic = desc.peripherals.front();
    cordic.core = single.cores.front().name;
    single.peripherals = {cordic};
    sim::SimSystem::Builder builder;
    Expected<sim::SimSystem> probe = builder.machine(single).build();
    if (!probe) {
      ref.errors.push_back("step probe build: " + probe.error());
      return ref;
    }
    sim::SimSystem probe_system = std::move(probe).value();
    sysgen::Model& model = *probe_system.hardware();
    model.step();  // the first step elaborates the graph
    const i64 start = now_ns();
    {
      Scope span(tracer, "sysgen.step", 0);
      for (int i = 0; i < kStepProbe; ++i) model.step();
    }
    ref.step_ns = static_cast<double>(now_ns() - start) / kStepProbe;
    ref.blocks = model.block_count();
  }
  return ref;
}

// -- the daemon ------------------------------------------------------------

/// A child mbcserve on an ephemeral loopback port. The destructor kills
/// and reaps a daemon that was not stopped, so no run leaves one behind.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }

  /// Spawn and wait for the "listening on 127.0.0.1:PORT" line; "" on
  /// success.
  std::string start(const std::string& binary, const std::string& state_dir) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) return "pipe: " + errno_text();
    std::vector<std::string> args = {binary, "--port", "0", "--state-dir",
                                     state_dir};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) return "fork: " + errno_text();
    if (pid == 0) {
      // The daemon dies with the benchmark, even when it is killed.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(fds[1], STDOUT_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    pid_ = pid;
    ::close(fds[1]);
    out_fd_ = fds[0];

    std::string seen;
    const i64 deadline = now_ns() + 30'000'000'000;
    while (now_ns() < deadline) {
      pollfd waiting{out_fd_, POLLIN, 0};
      if (::poll(&waiting, 1, 100) <= 0) continue;
      char buffer[256];
      const ssize_t got = ::read(out_fd_, buffer, sizeof buffer);
      if (got <= 0) return "mbcserve exited before listening: " + seen;
      seen.append(buffer, static_cast<std::size_t>(got));
      const std::string marker = "listening on 127.0.0.1:";
      const std::size_t at = seen.find(marker);
      if (at != std::string::npos &&
          seen.find('\n', at) != std::string::npos) {
        port_ = static_cast<u16>(
            std::strtoul(seen.c_str() + at + marker.size(), nullptr, 10));
        return port_ != 0 ? "" : "bad listening line: " + seen;
      }
    }
    return "mbcserve did not report its port within 30 s";
  }

  [[nodiscard]] u16 port() const noexcept { return port_; }
  [[nodiscard]] long long pid() const noexcept { return pid_; }

  /// SIGTERM, then wait (bounded) for exit code 0; "" on success.
  std::string stop() {
    if (pid_ <= 0) return "daemon not running";
    ::kill(pid_, SIGTERM);
    const i64 deadline = now_ns() + 30'000'000'000;
    int status = 0;
    while (true) {
      drain_output();
      const pid_t done = ::waitpid(pid_, &status, WNOHANG);
      if (done == pid_) break;
      if (now_ns() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return "mbcserve did not exit within 30 s of SIGTERM";
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    pid_ = -1;
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return {};
    return "mbcserve exited with status " + std::to_string(status);
  }

 private:
  static std::string errno_text() { return std::strerror(errno); }

  /// Keep the stdout pipe from filling while the daemon shuts down.
  void drain_output() {
    pollfd waiting{out_fd_, POLLIN, 0};
    while (::poll(&waiting, 1, 0) > 0) {
      char buffer[256];
      if (::read(out_fd_, buffer, sizeof buffer) <= 0) break;
    }
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  u16 port_ = 0;
};

// -- the client ------------------------------------------------------------

struct Reply {
  int status = 0;  ///< 0: transport failure, see error
  std::string body;
  double ms = 0.0;
  std::string error;
  [[nodiscard]] bool ok() const { return status >= 200 && status < 300; }
};

/// One request on a fresh connection (the daemon closes it after the
/// reply); 30 s socket timeouts turn a hung daemon into a failure.
Reply http(u16 port, const std::string& method, const std::string& path,
           const std::string& body = {}) {
  Reply reply;
  const i64 start = now_ns();
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    reply.error = std::string("socket: ") + std::strerror(errno);
    return reply;
  }
  timeval timeout{30, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string raw;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    reply.error = std::string("connect: ") + std::strerror(errno);
  } else {
    const std::string request =
        method + " " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
    std::size_t sent = 0;
    while (sent < request.size()) {
      const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        reply.error = std::string("send: ") + std::strerror(errno);
        break;
      }
      sent += static_cast<std::size_t>(n);
    }
    char buffer[65536];
    while (reply.error.empty()) {
      const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) reply.error = std::string("recv: ") + std::strerror(errno);
      if (n <= 0) break;
      raw.append(buffer, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  reply.ms = static_cast<double>(now_ns() - start) / 1e6;
  if (!reply.error.empty()) return reply;
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (raw.compare(0, 9, "HTTP/1.1 ") != 0 || head_end == std::string::npos) {
    reply.error = "malformed reply: " + raw.substr(0, 80);
    return reply;
  }
  reply.status = std::atoi(raw.c_str() + 9);
  reply.body = raw.substr(head_end + 4);
  return reply;
}

/// Integer / string field of a JSON object reply.
long long json_int(const std::string& text, const char* key) {
  const Expected<common::json::Value> parsed = common::json::parse(text);
  if (!parsed || !parsed.value().is_object()) return -1;
  const auto& object = parsed.value().object();
  const auto it = object.find(key);
  return it != object.end() && it->second.is_int() ? it->second.integer() : -1;
}

std::string json_string(const std::string& text, const char* key) {
  const Expected<common::json::Value> parsed = common::json::parse(text);
  if (!parsed || !parsed.value().is_object()) return {};
  const auto& object = parsed.value().object();
  const auto it = object.find(key);
  return it != object.end() && it->second.is_string() ? it->second.string()
                                                      : std::string();
}

double dir_kb(const std::string& dir) {
  std::error_code ec;
  double bytes = 0.0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      bytes += static_cast<double>(it->file_size(ec));
    }
  }
  return bytes / 1024.0;
}

/// End-to-end figures and per-route latencies of one phase.
struct HostedPhase {
  u64 ops = 0;
  std::vector<unsigned> op_k;  ///< the op's index k in its session
  std::vector<double> op_cycles;
  std::vector<double> op_sim_s;  ///< POST run until the session is seen idle
  std::vector<double> op_ms;
  std::vector<double> create_ms;
  std::vector<double> http_ms;
  std::vector<double> journal_kb;
  u64 requests = 0;
  bool aborted = false;  ///< the daemon stopped answering
};

class Client {
 public:
  Client(u16 port, const Reference& ref, const std::string& create_body,
         const std::string& state_dir, Tracer& tracer, Failures& failures,
         u64 op_base)
      : port_(port),
        ref_(ref),
        create_body_(create_body),
        state_dir_(state_dir),
        tracer_(tracer),
        failures_(failures),
        op_(op_base) {}

  /// One unmeasured warm-up session, then whole sessions until `seconds`
  /// have passed and `min_ops` ops ran.
  HostedPhase run_phase(double seconds, u64 min_ops) {
    HostedPhase warmup;
    run_session(warmup);
    HostedPhase phase;
    phase.aborted = warmup.aborted;
    const i64 start = now_ns();
    while (!phase.aborted) {
      const double elapsed = static_cast<double>(now_ns() - start) / 1e9;
      if (phase.ops > 0 && elapsed >= seconds && phase.ops >= min_ops) break;
      run_session(phase);
    }
    return phase;
  }

 private:
  Reply call(HostedPhase& phase, const char* span, const std::string& method,
             const std::string& path, const std::string& body = {}) {
    Reply reply;
    {
      Scope scope(tracer_, span, op_);
      reply = http(port_, method, path, body);
    }
    ++phase.requests;
    phase.http_ms.push_back(reply.ms);
    if (reply.status == 0) phase.aborted = true;
    return reply;
  }

  bool expect_ok(const Reply& reply, const std::string& what) {
    if (reply.ok()) return true;
    failures_.fail(op_, what + ": " +
                            (reply.status == 0
                                 ? reply.error
                                 : "HTTP " + std::to_string(reply.status) +
                                       " " + reply.body));
    return false;
  }

  void run_session(HostedPhase& phase) {
    ++op_;
    failures_.attempt();  // the create counts as part of the first op
    const Reply created =
        call(phase, "http.create", "POST", "/sessions", create_body_);
    if (!expect_ok(created, "POST /sessions")) return;
    phase.create_ms.push_back(created.ms);
    const std::string base =
        "/sessions/" + std::to_string(json_int(created.body, "id"));
    bool alive = true;
    for (unsigned k = 1; k <= kOpsPerSession && alive; ++k) {
      if (k > 1) {
        ++op_;
        failures_.attempt();
      }
      alive = run_op(phase, base, k);
    }
    if (!alive) {
      (void)call(phase, "http.delete", "DELETE", base);
      return;
    }
    const Reply stats = call(phase, "http.stats", "GET", base + "/stats");
    if (expect_ok(stats, "GET stats") && stats.body != ref_.stats_pages.back()) {
      failures_.fail(op_, "final stats page differs from the batch run:\n" +
                              stats.body);
    }
    phase.journal_kb.push_back(dir_kb(state_dir_));
    expect_ok(call(phase, "http.delete", "DELETE", base), "DELETE");
  }

  /// One op; false when the session cannot go on.
  bool run_op(HostedPhase& phase, const std::string& base, unsigned k) {
    const i64 op_start = now_ns();
    Scope op_span(tracer_, "op", op_);
    const Reply ran =
        call(phase, "http.run", "POST", base + "/run",
             "{\"max_cycles\":" + std::to_string(kSegment * k) + "}");
    if (!expect_ok(ran, "POST run")) return false;
    Reply info;
    while (true) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
      info = call(phase, "http.poll", "GET", base);
      if (!expect_ok(info, "GET session")) return false;
      const std::string state = json_string(info.body, "state");
      if (state == "idle") break;
      if (state != "running") {
        failures_.fail(op_, "session state " + state);
        return false;
      }
      if (static_cast<double>(now_ns() - op_start) / 1e9 > kOpTimeoutS) {
        failures_.fail(op_, "run did not finish within 60 s");
        return false;
      }
    }
    const i64 sim_end = now_ns();
    const Reply metrics = call(phase, "http.metrics", "GET", base + "/metrics");
    Reply image;
    if (k % kCheckpointEvery == 0) {
      image = call(phase, "http.checkpoint", "GET", base + "/checkpoint");
    }
    const i64 op_end = now_ns();

    Scope verify(tracer_, "sim.verify", op_);
    const auto cycles = static_cast<Cycle>(json_int(info.body, "cycles"));
    if (cycles != ref_.cycles[k - 1]) {
      failures_.fail(op_, "session at " + std::to_string(cycles) +
                              " cycles, batch at " +
                              std::to_string(ref_.cycles[k - 1]));
    }
    if (const std::string stop = json_string(info.body, "stop");
        stop != "cycle_limit") {
      failures_.fail(op_, "session stopped with '" + stop + "'");
    }
    if (expect_ok(metrics, "GET metrics") &&
        metrics.body != ref_.metrics_pages[k - 1]) {
      failures_.fail(op_, "metrics page differs from the batch run:\n" +
                              metrics.body);
    }
    if (k % kCheckpointEvery == 0 && expect_ok(image, "GET checkpoint") &&
        (image.body.size() != ref_.images[k - 1].size() ||
         std::memcmp(image.body.data(), ref_.images[k - 1].data(),
                     image.body.size()) != 0)) {
      failures_.fail(op_, "checkpoint image differs from the batch run's");
    }
    ++phase.ops;
    phase.op_k.push_back(k);
    const Cycle before = k == 1 ? 0 : ref_.cycles[k - 2];
    phase.op_cycles.push_back(static_cast<double>(ref_.cycles[k - 1] - before));
    phase.op_sim_s.push_back(static_cast<double>(sim_end - op_start) / 1e9);
    phase.op_ms.push_back(static_cast<double>(op_end - op_start) / 1e6);
    return true;
  }

  u16 port_;
  const Reference& ref_;
  const std::string& create_body_;
  const std::string& state_dir_;
  Tracer& tracer_;
  Failures& failures_;
  u64 op_ = 0;
};

/// The fastest of `values` (one per op) for each op index k, summed over
/// k. Ops with the same k do the same work, so, as with the batch
/// workloads' design points, the fastest is the uncontended time.
double fastest_per_k_sum(const HostedPhase& phase,
                         const std::vector<double>& values) {
  double sum = 0.0;
  for (unsigned k = 1; k <= kOpsPerSession; ++k) {
    std::vector<double> of_k;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (phase.op_k[i] == k) of_k.push_back(values[i]);
    }
    sum += fastest(of_k);
  }
  return sum;
}

/// Simulated MHz of a session at the fastest op of every k.
double mhz(const HostedPhase& phase) {
  const double seconds = fastest_per_k_sum(phase, phase.op_sim_s);
  return seconds > 0.0
             ? fastest_per_k_sum(phase, phase.op_cycles) / seconds / 1e6
             : 0.0;
}

}  // namespace

RunResult run_hosted(const Options& options, Tracer& tracer) {
  apps::register_machine_peripherals();
  RunResult result;
  Failures failures;
  const auto [x, y] = apps::cordic::make_cordic_dataset(
      kFarmItems, derive_seed(options.seed, 0));
  const machine::MachineDesc desc = farm_desc(x, y);

  Tracer untraced(false);
  const Reference ref =
      make_reference(desc, x, y, options.trace ? tracer : untraced);
  if (!ref.errors.empty()) {
    failures.attempt();
    for (const std::string& error : ref.errors) failures.fail(0, error);
    result.attempted = failures.attempted();
    result.failed = failures.failed();
    return result;
  }

  const std::string state_dir =
      (fs::absolute(options.workdir) /
       ("state-" + std::to_string(::getpid()) + "-" +
        std::to_string(options.seed)))
          .string();
  std::error_code ec;
  fs::remove_all(state_dir, ec);
  fs::create_directories(state_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 state_dir.c_str(), ec.message().c_str());
    return result;  // attempted 0: main reports the run as broken
  }

  Daemon daemon;
  if (const std::string err = daemon.start(PERFBENCH_MBCSERVE, state_dir);
      !err.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    fs::remove_all(state_dir, ec);
    return result;
  }

  const std::string create_body =
      "{\"machine\":" + desc.to_json() + ",\"workers\":" +
      std::to_string(kEngineWorkers) +
      ",\"metrics\":true,\"control_quantum\":" +
      std::to_string(kControlQuantum) + "}";
  Client plain_client(daemon.port(), ref, create_body, state_dir, untraced,
                      failures, 0);
  HostedPhase plain = plain_client.run_phase(
      options.trace ? options.seconds / 2 : options.seconds,
      options.trace ? 0 : 100);
  HostedPhase traced;
  if (options.trace && !plain.aborted) {
    Client traced_client(daemon.port(), ref, create_body, state_dir, tracer,
                         failures, 1'000'000);
    traced = traced_client.run_phase(options.seconds / 2, 0);
  }

  const long long threads = proc_status(daemon.pid(), "Threads");
  const long long vmsize_kb = proc_status(daemon.pid(), "VmSize");
  const long long hwm_kb = proc_status(daemon.pid(), "VmHWM");
  if (const std::string err = daemon.stop(); !err.empty()) {
    failures.attempt();
    failures.fail(~u64{0} - 1, err);
  }
  fs::remove_all(state_dir, ec);

  if (!options.trace) {
    result.metrics = {
        {"sim_mhz", mhz(plain), "MHz"},
        {"op_ms.best", fastest_per_k_sum(plain, plain.op_ms) / kOpsPerSession,
         "ms"},
        {"setup_s", fastest(plain.create_ms) / 1e3, "s"},
        {"peak_rss_mb", static_cast<double>(hwm_kb) / 1024.0, "MB"},
    };
    result.lines.push_back(
        "ops " + std::to_string(plain.ops) + " in " +
        std::to_string(plain.create_ms.size()) + " sessions, " +
        std::to_string(plain.requests) + " requests; op_ms p50 " +
        std::to_string(quantile(plain.op_ms, 0.5)) + " p90 " +
        std::to_string(quantile(plain.op_ms, 0.9)) + "; http_ms p50 " +
        std::to_string(quantile(plain.http_ms, 0.5)) + " p99 " +
        std::to_string(quantile(plain.http_ms, 0.99)));
  } else {
    const double per_op = static_cast<double>(kOpsPerSession);
    // Machine totals sum the cores, except cycles (the shared clock); the
    // sysgen figures are the worker's, the only core with a peripheral.
    const core::CoSimStats& s = ref.stats;
    const double core_cycles =
        static_cast<double>(s.cycles) * static_cast<double>(desc.cores.size());
    const double stepped = static_cast<double>(ref.worker.hw_cycles_stepped);
    const double skipped = static_cast<double>(ref.worker.hw_cycles_skipped);
    const double segment_ms = median(ref.segment_ms);
    const double run_ns = segment_ms * 1e6 * per_op;
    const double rounds = static_cast<double>(kSegment / kQuantum);
    const double overhead = mhz(traced) > 0.0 ? mhz(plain) / mhz(traced) : 0.0;
    const auto route = [&](const char* name) {
      return median(tracer.durations_ms(name));
    };
    result.metrics = {
        {"asm.assemble_ms", route("asm.assemble"), "ms"},
        {"sim.build_ms", route("sim.build"), "ms"},
        {"sim.run_ms", segment_ms, "ms"},
        {"sim.verify_ms", route("sim.verify"), "ms"},
        {"sysgen.step_ns", ref.step_ns, "ns"},
        {"sysgen.blocks", static_cast<double>(ref.blocks), "count"},
        {"sysgen.cycles_stepped", stepped / per_op, "cycles"},
        {"sysgen.cycles_skipped", skipped / per_op, "cycles"},
        {"sysgen.skip_ratio",
         stepped + skipped > 0 ? skipped / (stepped + skipped) : 0.0, "ratio"},
        {"sysgen.share", run_ns > 0 ? stepped * ref.step_ns / run_ns : 0.0,
         "ratio"},
        {"core.residual_ms", segment_ms - stepped / per_op * ref.step_ns / 1e6,
         "ms"},
        {"fsl.words",
         static_cast<double>(s.bridge.words_to_hw + s.bridge.words_from_hw) /
             per_op,
         "count"},
        {"fsl.stall_cycles", static_cast<double>(s.fsl_stall_cycles) / per_op,
         "cycles"},
        {"fsl.stall_ratio",
         core_cycles > 0 ? static_cast<double>(s.fsl_stall_cycles) / core_cycles
                         : 0.0,
         "ratio"},
        {"iss.instructions", static_cast<double>(s.instructions) / per_op,
         "count"},
        {"iss.ns_per_cycle",
         s.cycles > 0 ? run_ns / static_cast<double>(s.cycles) : 0.0, "ns"},
        {"iss.dbt_coverage",
         s.instructions > 0 ? static_cast<double>(ref.dbt.dbt_instructions) /
                                  static_cast<double>(s.instructions)
                            : 0.0,
         "ratio"},
        {"iss.blocks_translated",
         static_cast<double>(ref.dbt.blocks_translated) / per_op, "count"},
        {"iss.block_dispatches",
         static_cast<double>(ref.dbt.block_dispatches) / per_op, "count"},
        {"obs.overhead_ratio",
         ref.oneshot_plain_s > 0 ? ref.oneshot_metrics_s / ref.oneshot_plain_s
                                 : 0.0,
         "ratio"},
        {"obs.snapshot_ms", route("obs.snapshot"), "ms"},
        {"manycore.rounds", rounds, "count"},
        {"manycore.round_us", segment_ms * 1e3 / rounds, "us"},
        {"manycore.link_words", static_cast<double>(ref.link_words) / per_op,
         "count"},
        {"ckpt.snapshot_ms", route("ckpt.snapshot"), "ms"},
        {"ckpt.restore_ms", route("ckpt.restore"), "ms"},
        {"ckpt.image_kb", median(ref.image_kb), "KiB"},
        {"server.create_ms", route("http.create"), "ms"},
        {"server.run_ack_ms", route("http.run"), "ms"},
        {"server.poll_ms", route("http.poll"), "ms"},
        {"server.metrics_ms", route("http.metrics"), "ms"},
        {"server.stats_ms", route("http.stats"), "ms"},
        {"server.checkpoint_ms", route("http.checkpoint"), "ms"},
        {"server.http_ms.p50", quantile(traced.http_ms, 0.5), "ms"},
        {"server.http_ms.p99", quantile(traced.http_ms, 0.99), "ms"},
        {"server.overhead_ratio",
         segment_ms > 0 ? median(traced.op_ms) / segment_ms : 0.0, "ratio"},
        {"server.journal_kb", median(traced.journal_kb), "KiB"},
        {"server.daemon_threads", static_cast<double>(threads), "count"},
        {"server.daemon_vmsize_mb", static_cast<double>(vmsize_kb) / 1024.0,
         "MB"},
        {"server.requests", static_cast<double>(traced.requests), "count"},
        {"trace.overhead_ratio", overhead, "ratio"},
    };
    char line[256];
    std::snprintf(line, sizeof line,
                  "tracing overhead: farm_hosted traced sim_mhz %.4f vs "
                  "untraced %.4f (ratio %.4f)",
                  mhz(traced), mhz(plain), overhead);
    result.lines.push_back(line);
  }
  result.attempted = failures.attempted();
  result.failed = failures.failed();
  return result;
}

}  // namespace perfbench
