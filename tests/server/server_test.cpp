// Socket-free tests of the simulation-server subsystem: session
// lifecycle error paths (every failure a stable "[srv-*]" code),
// admission control, batch-equivalence of the hosted run, the streaming
// hub's bounded-queue backpressure accounting, HTTP request parsing
// over deterministic loopback transports, the tier-invariant dbt
// counter schema in metrics snapshots, and the durability layer:
// journal crash-recovery (byte-identical resume, corrupt-tail
// fallback), run deadlines, deadlock mapping, keep-alive
// connections and graceful drain.
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "isa/isa.hpp"
#include "machine/machine_desc.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/metrics.hpp"
#include "rsp/transport.hpp"
#include "server/http.hpp"
#include "server/journal.hpp"
#include "server/service.hpp"
#include "server/session.hpp"
#include "server/session_manager.hpp"
#include "server/stream_hub.hpp"
#include "sim/sim_system.hpp"

namespace mbcosim::server {
namespace {

constexpr const char* kHaltProgram = R"(
start:
  addik r3, r0, 7
  halt
)";

SessionConfig halting_config() {
  SessionConfig config;
  config.desc = machine::MachineDesc::single_core(kHaltProgram);
  config.control_quantum = 16;
  return config;
}

[[nodiscard]] bool wait_until_idle(Session& session) {
  for (int i = 0; i < 5000; ++i) {
    if (session.state() == SessionState::kIdle) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

// ------------------------------------------------ session lifecycle

TEST(ServerSession, LifecycleErrorPathsUseStableCodes) {
  SessionManager::Limits limits;
  limits.max_sessions = 4;
  limits.worker_budget = 8;
  SessionManager manager(limits);

  // Unknown id: never created.
  auto missing = manager.find(42);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().rfind("[srv-unknown-session]", 0), 0u)
      << missing.error();

  auto created = manager.create(halting_config());
  ASSERT_TRUE(created.ok()) << created.error();
  std::shared_ptr<Session> session = created.value();
  const u64 id = session->id();

  // Checkpoint before the session ever ran.
  auto early = session->checkpoint();
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.error().rfind("[srv-never-ran]", 0), 0u) << early.error();

  // Pause with no run in progress.
  EXPECT_EQ(session->pause().rfind("[srv-not-running]", 0), 0u);

  // A real run; afterwards checkpoint succeeds.
  EXPECT_EQ(session->run_async(Cycle{1} << 30), "");
  ASSERT_TRUE(wait_until_idle(*session));
  auto image = session->checkpoint();
  ASSERT_TRUE(image.ok()) << image.error();
  EXPECT_FALSE(image.value().empty());

  // Kill through the manager; a second kill of the same id is unknown.
  EXPECT_EQ(manager.kill(id), "");
  EXPECT_EQ(manager.kill(id).rfind("[srv-unknown-session]", 0), 0u);
  EXPECT_EQ(manager.find(id).error().rfind("[srv-unknown-session]", 0), 0u);

  // Run-after-kill on a handle a client still holds.
  const std::string after_kill = session->run_async(Cycle{1} << 30);
  EXPECT_EQ(after_kill.rfind("[srv-running]", 0), 0u) << after_kill;
  EXPECT_NE(after_kill.find("killed"), std::string::npos) << after_kill;
  // Session::kill itself is idempotent (the structured error above is
  // the *manager's* double-DELETE answer).
  EXPECT_EQ(session->kill(), "");
}

TEST(ServerSession, KillWhileRunningIsTerminalAndRejectsNewRuns) {
  // Kill races a worker mid-run: it must take the worker handle under
  // the session mutex, join it, and leave the session terminally killed
  // — a run_async slipping in during the teardown window must not spawn
  // a fresh worker that would flip the state back to idle.
  SessionConfig config;
  config.desc = machine::MachineDesc::single_core(
      "loop: bri loop2\nloop2: bri loop\n");
  config.control_quantum = 16;
  SessionManager manager({});
  auto created = manager.create(std::move(config));
  ASSERT_TRUE(created.ok()) << created.error();
  std::shared_ptr<Session> session = created.value();
  ASSERT_EQ(session->run_async(Cycle{1} << 40), "");
  EXPECT_EQ(session->kill(), "");
  EXPECT_EQ(session->state(), SessionState::kKilled);
  const std::string rerun = session->run_async(Cycle{1} << 40);
  EXPECT_EQ(rerun.rfind("[srv-running]", 0), 0u) << rerun;
  EXPECT_NE(rerun.find("killed"), std::string::npos) << rerun;
  EXPECT_EQ(session->kill(), "");  // idempotent
}

TEST(ServerSession, AdmissionControlRejectsWithSrvBusy) {
  {
    SessionManager::Limits limits;
    limits.max_sessions = 1;
    limits.worker_budget = 8;
    SessionManager manager(limits);
    auto first = manager.create(halting_config());
    ASSERT_TRUE(first.ok()) << first.error();
    auto second = manager.create(halting_config());
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.error().rfind("[srv-busy]", 0), 0u) << second.error();
    EXPECT_NE(second.error().find("session limit"), std::string::npos);
    // Killing the only session frees its slot.
    EXPECT_EQ(manager.kill(first.value()->id()), "");
    EXPECT_TRUE(manager.create(halting_config()).ok());
  }
  {
    SessionManager::Limits limits;
    limits.max_sessions = 8;
    limits.worker_budget = 1;  // one single-core session fills it
    SessionManager manager(limits);
    ASSERT_TRUE(manager.create(halting_config()).ok());
    auto rejected = manager.create(halting_config());
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.error().rfind("[srv-busy]", 0), 0u)
        << rejected.error();
    EXPECT_NE(rejected.error().find("worker budget"), std::string::npos);
  }
}

TEST(ServerSession, BadMachineIsAStructuredError) {
  SessionConfig config;
  config.desc = machine::MachineDesc::single_core("not an opcode at all\n");
  SessionManager manager({});
  auto built = manager.create(std::move(config));
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.error().rfind("[srv-bad-machine]", 0), 0u) << built.error();
}

// ------------------------------------------- batch equivalence (stats)

TEST(ServerSession, HostedRunMatchesBatchStatsAndMetrics) {
  SessionConfig config = halting_config();
  config.metrics = true;
  SessionManager manager({});
  auto created = manager.create(config);
  ASSERT_TRUE(created.ok()) << created.error();
  std::shared_ptr<Session> session = created.value();
  ASSERT_EQ(session->run_async(Cycle{1} << 30), "");
  ASSERT_TRUE(wait_until_idle(*session));

  auto batch_built = sim::SimSystem::Builder()
                         .machine(config.desc)
                         .metrics()
                         .build();
  ASSERT_TRUE(batch_built.ok()) << batch_built.error();
  sim::SimSystem batch = std::move(batch_built).value();
  ASSERT_EQ(batch.run(), core::StopReason::kHalted);

  auto stats = session->stats_page();
  ASSERT_TRUE(stats.ok()) << stats.error();
  EXPECT_EQ(stats.value(), stats_text(batch));
  auto metrics = session->metrics_page();
  ASSERT_TRUE(metrics.ok()) << metrics.error();
  EXPECT_EQ(metrics.value(), batch.metrics_snapshot().to_string());
}

// --------------------------------------------------- dbt counter schema

TEST(ServerSession, DbtCountersAppearAsZerosBelowDbtTier) {
  // A precise-tier core never translates a block, but its metrics
  // snapshot still carries the dbt.* keys (as zeros) so snapshots diff
  // cleanly tier-against-tier.
  machine::MachineDesc desc = machine::MachineDesc::single_core(kHaltProgram);
  desc.cores[0].exec_tier = iss::ExecTier::kPrecise;
  auto built = sim::SimSystem::Builder().machine(desc).metrics().build();
  ASSERT_TRUE(built.ok()) << built.error();
  sim::SimSystem system = std::move(built).value();
  EXPECT_TRUE(system.metrics_snapshot().empty());  // pre-run: still empty
  ASSERT_EQ(system.run(), core::StopReason::kHalted);

  const obs::MetricsSnapshot snapshot = system.metrics_snapshot();
  for (const char* key :
       {"dbt.blocks_translated", "dbt.block_dispatches",
        "dbt.smc_retirements", "dbt.fast_path_instructions"}) {
    const auto it = snapshot.counters.find(key);
    ASSERT_NE(it, snapshot.counters.end()) << key;
    EXPECT_EQ(it->second, 0u) << key;
  }

  // Same machine at the dbt tier: identical counter-key schema.
  machine::MachineDesc dbt_desc =
      machine::MachineDesc::single_core(kHaltProgram);
  dbt_desc.cores[0].exec_tier = iss::ExecTier::kDbt;
  auto dbt_built =
      sim::SimSystem::Builder().machine(dbt_desc).metrics().build();
  ASSERT_TRUE(dbt_built.ok()) << dbt_built.error();
  sim::SimSystem dbt_system = std::move(dbt_built).value();
  ASSERT_EQ(dbt_system.run(), core::StopReason::kHalted);
  const obs::MetricsSnapshot dbt_snapshot = dbt_system.metrics_snapshot();
  ASSERT_EQ(snapshot.counters.size(), dbt_snapshot.counters.size());
  auto lhs = snapshot.counters.begin();
  auto rhs = dbt_snapshot.counters.begin();
  for (; lhs != snapshot.counters.end(); ++lhs, ++rhs) {
    EXPECT_EQ(lhs->first, rhs->first);
  }
}

// ----------------------------------------------------- streaming hub

TEST(ServerStreamHub, DropOldestIsBoundedAndAccounted) {
  StreamHub hub(4);
  auto subscription = hub.subscribe();
  for (int i = 0; i < 10; ++i) hub.publish("line" + std::to_string(i));

  // The gap is reported first, then the surviving (newest) lines.
  auto first = subscription->next(0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, "{\"stream\":\"dropped\",\"count\":6,\"total\":6}");
  for (int i = 6; i < 10; ++i) {
    auto line = subscription->next(0);
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(*line, "line" + std::to_string(i));
  }
  EXPECT_FALSE(subscription->next(0).has_value());  // drained
  EXPECT_EQ(subscription->dropped_total(), 6u);
  EXPECT_FALSE(subscription->finished());  // stream still open

  hub.publish("tail");
  hub.close();
  auto tail = subscription->next(0);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(*tail, "tail");
  EXPECT_TRUE(subscription->finished());

  // Subscribing after close yields a born-finished stream.
  EXPECT_TRUE(hub.subscribe()->finished());
}

TEST(ServerStreamHub, SubscribersSeeOnlyLinesAfterSubscription) {
  StreamHub hub(16);
  hub.publish("before");
  auto late = hub.subscribe();
  hub.publish("after");
  auto line = late->next(0);
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "after");
  EXPECT_FALSE(late->next(0).has_value());
  EXPECT_EQ(late->dropped_total(), 0u);
}

TEST(ServerSession, RunStreamsStateAndMetricsRecords) {
  SessionManager manager({});
  auto created = manager.create(halting_config());
  ASSERT_TRUE(created.ok()) << created.error();
  std::shared_ptr<Session> session = created.value();
  auto subscription = session->subscribe();
  ASSERT_EQ(session->run_async(Cycle{1} << 30), "");
  ASSERT_TRUE(wait_until_idle(*session));
  EXPECT_EQ(manager.kill(session->id()), "");

  std::vector<std::string> lines;
  while (auto line = subscription->next(0)) lines.push_back(*line);
  EXPECT_TRUE(subscription->finished());
  ASSERT_GE(lines.size(), 4u);
  EXPECT_NE(lines.front().find("\"state\":\"running\""), std::string::npos)
      << lines.front();
  bool saw_metrics = false;
  bool saw_halted = false;
  for (const std::string& line : lines) {
    if (line.find("\"stream\":\"metrics\"") != std::string::npos) {
      saw_metrics = true;
    }
    if (line.find("\"stop\":\"halted\"") != std::string::npos) {
      saw_halted = true;
    }
  }
  EXPECT_TRUE(saw_metrics);
  EXPECT_TRUE(saw_halted);
  EXPECT_NE(lines.back().find("\"state\":\"killed\""), std::string::npos)
      << lines.back();
}

// -------------------------------------------------------- HTTP layer

/// Serves a pre-baked byte stream at most `limit` bytes per recv() call
/// and then stays open and silent — the shape of a real TCP socket
/// delivering a large body: many small reads, each returning promptly
/// with data, with no EOF afterwards.
class TrickleTransport final : public rsp::Transport {
 public:
  TrickleTransport(std::string bytes, std::size_t limit)
      : bytes_(std::move(bytes)), limit_(limit) {}

  bool send(std::string_view) override { return true; }

  std::string recv(int /*timeout_ms*/) override {
    const std::string out = bytes_.substr(pos_, limit_);
    pos_ = std::min(bytes_.size(), pos_ + limit_);
    return out;
  }

  [[nodiscard]] bool closed() const override { return false; }

 private:
  std::string bytes_;
  std::size_t limit_;
  std::size_t pos_ = 0;
};

TEST(ServerHttp, ReadRequestSurvivesLargeBodyInSmallRecvSlices) {
  // Regression: the read deadline must bound *idle* time, not the
  // number of recv() calls — a 64KB body arriving 100 bytes at a time
  // takes ~650 reads, far more than timeout_ms/slice if every read
  // were charged against the budget.
  const std::string body(64 * 1024, 'x');
  const std::string request_text =
      "POST /sessions/1/restore HTTP/1.1\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body;
  TrickleTransport transport(request_text, 100);
  auto request = read_request(transport, 1000);
  ASSERT_TRUE(request.ok()) << request.error();
  EXPECT_EQ(request.value().body, body);
}

TEST(ServerHttp, ReadRequestTimesOutOnSilentOpenPeer) {
  // The header promises a body that never arrives while the peer stays
  // connected: the idle budget runs out with a structured timeout.
  TrickleTransport transport("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\n",
                             4096);
  auto request = read_request(transport, 200);
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.error().rfind("[srv-bad-request]", 0), 0u)
      << request.error();
  EXPECT_NE(request.error().find("timed out reading body"), std::string::npos)
      << request.error();
}

TEST(ServerHttp, ReadRequestParsesMethodTargetHeadersBody) {
  auto [server_side, client_side] = rsp::make_loopback();
  ASSERT_TRUE(client_side->send("POST /sessions/7/run?x=1 HTTP/1.1\r\n"
                                "Host: localhost\r\n"
                                "Content-Length: 17\r\n"
                                "\r\n"
                                "{\"max_cycles\":64}"));
  auto request = read_request(*server_side, 1000);
  ASSERT_TRUE(request.ok()) << request.error();
  EXPECT_EQ(request.value().method, "POST");
  EXPECT_EQ(request.value().target, "/sessions/7/run?x=1");
  EXPECT_EQ(request.value().path, "/sessions/7/run");
  EXPECT_EQ(request.value().headers.at("host"), "localhost");
  EXPECT_EQ(request.value().body, "{\"max_cycles\":64}");
}

TEST(ServerHttp, ReadRequestRejectsGarbageAndTruncation) {
  {
    auto [server_side, client_side] = rsp::make_loopback();
    ASSERT_TRUE(client_side->send("this is not http\r\n\r\n"));
    auto request = read_request(*server_side, 200);
    ASSERT_FALSE(request.ok());
    EXPECT_EQ(request.error().rfind("[srv-bad-request]", 0), 0u)
        << request.error();
  }
  {
    // Declared body never arrives: the read times out structurally.
    auto [server_side, client_side] = rsp::make_loopback();
    ASSERT_TRUE(client_side->send("POST /x HTTP/1.1\r\n"
                                  "Content-Length: 100\r\n\r\nshort"));
    client_side.reset();  // peer goes away mid-body
    auto request = read_request(*server_side, 200);
    ASSERT_FALSE(request.ok());
    EXPECT_EQ(request.error().rfind("[srv-bad-request]", 0), 0u)
        << request.error();
  }
  {
    // A connection that closes without a byte is dropped silently.
    auto [server_side, client_side] = rsp::make_loopback();
    client_side.reset();
    auto request = read_request(*server_side, 200);
    ASSERT_FALSE(request.ok());
    EXPECT_EQ(request.error(), "[closed]");
  }
}

TEST(ServerService, ErrorCodesMapToHttpStatuses) {
  EXPECT_EQ(status_for_error("[srv-unknown-session] no session 9"), 404);
  EXPECT_EQ(status_for_error("[srv-busy] worker budget exhausted"), 503);
  EXPECT_EQ(status_for_error("[srv-running] session is running"), 409);
  EXPECT_EQ(status_for_error("[srv-not-running] no run in progress"), 409);
  EXPECT_EQ(status_for_error("[srv-never-ran] checkpoint requires"), 409);
  EXPECT_EQ(status_for_error("[srv-bad-request] truncated"), 400);
  EXPECT_EQ(status_for_error("[srv-bad-machine] [no-cores] empty"), 400);
  EXPECT_EQ(status_for_error("[srv-debug] listen failed"), 500);
  EXPECT_EQ(status_for_error("[srv-draining] no new sessions"), 503);
  EXPECT_EQ(status_for_error("[srv-journal-io] cannot write"), 500);
  EXPECT_EQ(status_for_error("unprefixed"), 500);
}

// --------------------------------------------- keep-alive connections

[[nodiscard]] std::string recv_until(rsp::Transport& wire,
                                     const std::string& marker,
                                     std::string& accumulated) {
  const auto start = std::chrono::steady_clock::now();
  while (accumulated.find(marker) == std::string::npos) {
    accumulated += wire.recv(50);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    if (wire.closed() ||
        std::chrono::duration_cast<std::chrono::seconds>(elapsed).count() >
            30) {
      break;
    }
  }
  return accumulated;
}

TEST(ServerHttp, KeepAliveServesMultipleRequestsPerConnection) {
  // Three pipelined requests in one byte stream — the loopback
  // transport never waits, so the later requests must already be
  // buffered (and must survive the carry across read_request calls).
  // The first two opt into keep-alive, the third does not and closes
  // the connection.
  auto [server_side, client_side] = rsp::make_loopback();
  ASSERT_TRUE(client_side->send(
      "GET /a HTTP/1.1\r\nConnection: keep-alive\r\n\r\n"
      "POST /b HTTP/1.1\r\nConnection: Keep-Alive\r\n"
      "Content-Length: 4\r\n\r\nbody"
      "GET /c HTTP/1.1\r\n\r\n"));
  std::thread connection([transport = std::move(server_side)] {
    serve_connection(*transport,
                     [](const HttpRequest& request,
                        HttpResponseWriter& writer) {
                       writer.respond(200, "text/plain",
                                      "echo:" + request.path + ":" +
                                          request.body + "\n");
                     });
  });
  connection.join();  // the loop exited on the non-keep-alive request

  std::string received;
  recv_until(*client_side, "echo:/c", received);
  EXPECT_NE(received.find("echo:/a:\n"), std::string::npos) << received;
  EXPECT_NE(received.find("echo:/b:body\n"), std::string::npos) << received;
  EXPECT_NE(received.find("echo:/c:\n"), std::string::npos) << received;
  // The first two responses advertise keep-alive, the last one close.
  EXPECT_NE(received.find("Connection: keep-alive"), std::string::npos)
      << received;
  const std::size_t last =
      received.rfind("Connection:");
  ASSERT_NE(last, std::string::npos);
  EXPECT_EQ(received.substr(last, 17), "Connection: close") << received;
}

TEST(ServerHttp, MalformedRequestEndsAKeepAliveConnection) {
  auto [server_side, client_side] = rsp::make_loopback();
  ASSERT_TRUE(client_side->send(
      "GET /a HTTP/1.1\r\nConnection: keep-alive\r\n\r\n"
      "this is not http\r\n\r\n"));
  std::thread connection([transport = std::move(server_side)] {
    serve_connection(*transport,
                     [](const HttpRequest&, HttpResponseWriter& writer) {
                       writer.respond(200, "text/plain", "ok\n");
                     });
  });
  connection.join();  // the 400 terminated the loop
  std::string received;
  recv_until(*client_side, "[srv-bad-request]", received);
  EXPECT_NE(received.find("ok\n"), std::string::npos) << received;
  EXPECT_NE(received.find("400 Bad Request"), std::string::npos) << received;
}

// ------------------------------------------- durability & supervision

namespace fs = std::filesystem;

/// ~1.2k-cycle countdown with an architectural result; long enough for
/// several journal checkpoints at ckpt_every=200 and control_quantum=100.
constexpr const char* kSumProgram = R"(
start:
  li r3, 200
  addk r4, r0, r0
loop:
  addk r4, r4, r3
  addik r3, r3, -1
  bnei r3, loop
  halt
)";

constexpr const char* kSpinProgram = "loop: bri loop2\nloop2: bri loop\n";

[[nodiscard]] std::string fresh_state_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  fs::remove_all(dir);
  return dir;
}

[[nodiscard]] SessionConfig durable_config() {
  SessionConfig config;
  config.desc = machine::MachineDesc::single_core(kSumProgram);
  config.control_quantum = 100;
  config.ckpt_every = 200;
  config.metrics = true;
  config.trace = true;
  return config;
}

struct BatchGolden {
  std::string stats;
  std::string metrics;
  std::string trace;
};

/// The uninterrupted batch run every recovery test compares against:
/// same machine, metrics on, the same disassembling JSONL trace sink a
/// journaled session attaches.
[[nodiscard]] BatchGolden golden_run(const machine::MachineDesc& desc) {
  auto built = sim::SimSystem::Builder().machine(desc).metrics().build();
  EXPECT_TRUE(built.ok()) << built.error();
  sim::SimSystem system = std::move(built).value();
  std::ostringstream trace;
  auto sink = std::make_unique<obs::JsonlSink>(trace);
  sink->set_disassembler([](Addr, Word raw) { return isa::disassemble(raw); });
  system.trace_bus(0).add_sink(std::move(sink));
  EXPECT_EQ(system.run(), core::StopReason::kHalted);
  return {stats_text(system), system.metrics_snapshot().to_string(),
          trace.str()};
}

[[nodiscard]] std::string read_file_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

[[nodiscard]] Cycle parse_cycles(const std::string& info) {
  const std::size_t pos = info.find("\"cycles\":");
  if (pos == std::string::npos) return 0;
  return static_cast<Cycle>(std::strtoull(info.c_str() + pos + 9, nullptr, 10));
}

[[nodiscard]] bool wait_until_state(Session& session, SessionState want) {
  for (int i = 0; i < 30'000; ++i) {
    if (session.state() == want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(ServerJournal, RecoveryResumesByteIdenticalToBatch) {
  const std::string dir = fresh_state_dir("srv_journal_recovery");
  const BatchGolden want = golden_run(durable_config().desc);
  u64 id = 0;

  {
    auto opened = JournalStore::open(dir);
    ASSERT_TRUE(opened.ok()) << opened.error();
    std::unique_ptr<JournalStore> store = std::move(opened).value();
    SessionManager manager({});
    manager.attach_journal(store.get());
    auto created = manager.create(durable_config());
    ASSERT_TRUE(created.ok()) << created.error();
    id = created.value()->id();
    ASSERT_EQ(created.value()->run_async(600), "");
    ASSERT_TRUE(wait_until_idle(*created.value()));
    // Scope exit without kill: the journal stays on disk, exactly as a
    // kill -9 at this point would leave it.
  }

  auto reopened = JournalStore::open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.error();
  std::unique_ptr<JournalStore> store = std::move(reopened).value();
  SessionManager manager({});
  manager.attach_journal(store.get());
  const SessionManager::RecoveryReport report = manager.recover();
  ASSERT_EQ(report.recovered, 1u);

  auto found = manager.find(id);
  ASSERT_TRUE(found.ok()) << found.error();
  std::shared_ptr<Session> session = found.value();
  EXPECT_NE(session->info_json().find("\"recovered_from_cycle\":600"),
            std::string::npos)
      << session->info_json();

  ASSERT_EQ(session->run_async(Cycle{1} << 30), "");
  ASSERT_TRUE(wait_until_idle(*session));

  auto stats = session->stats_page();
  ASSERT_TRUE(stats.ok()) << stats.error();
  EXPECT_EQ(stats.value(), want.stats);
  auto metrics = session->metrics_page();
  ASSERT_TRUE(metrics.ok()) << metrics.error();
  EXPECT_EQ(metrics.value(), want.metrics);
  // The journaled trace — pre-crash prefix plus post-recovery suffix —
  // is byte-identical to the uninterrupted batch trace.
  const std::string trace_path =
      dir + "/session-" + std::to_string(id) + "/trace-0.jsonl";
  EXPECT_EQ(read_file_text(trace_path), want.trace);
  EXPECT_EQ(manager.kill(id), "");
  // DELETE removed the journal directory.
  EXPECT_FALSE(fs::exists(dir + "/session-" + std::to_string(id)));
}

TEST(ServerJournal, CorruptNewestCheckpointFallsBackToOlderOne) {
  const std::string dir = fresh_state_dir("srv_journal_corrupt");
  const BatchGolden want = golden_run(durable_config().desc);
  u64 id = 0;

  {
    auto opened = JournalStore::open(dir);
    ASSERT_TRUE(opened.ok()) << opened.error();
    std::unique_ptr<JournalStore> store = std::move(opened).value();
    SessionManager manager({});
    manager.attach_journal(store.get());
    auto created = manager.create(durable_config());
    ASSERT_TRUE(created.ok()) << created.error();
    id = created.value()->id();
    ASSERT_EQ(created.value()->run_async(600), "");
    ASSERT_TRUE(wait_until_idle(*created.value()));
  }

  // Flip one payload byte in the newest checkpoint record — a torn
  // write the atomic-rename discipline cannot see because the damage
  // happened after the rename (bad disk, truncation by the crash).
  const std::string session_dir = dir + "/session-" + std::to_string(id);
  std::string newest;
  for (const fs::directory_entry& entry : fs::directory_iterator(session_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) == 0 && (newest.empty() || name > newest)) {
      newest = name;
    }
  }
  ASSERT_FALSE(newest.empty());
  {
    std::string bytes = read_file_text(session_dir + "/" + newest);
    ASSERT_GT(bytes.size(), 64u);
    bytes[bytes.size() / 2] =
        static_cast<char>(static_cast<unsigned char>(bytes[bytes.size() / 2]) ^
                          0x20u);
    std::ofstream out(session_dir + "/" + newest,
                      std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  auto reopened = JournalStore::open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.error();
  std::unique_ptr<JournalStore> store = std::move(reopened).value();
  SessionManager manager({});
  manager.attach_journal(store.get());
  const SessionManager::RecoveryReport report = manager.recover();
  ASSERT_EQ(report.recovered, 1u);
  bool logged_corruption = false;
  for (const std::string& line : report.log) {
    logged_corruption |=
        line.find("[srv-journal-corrupt]") != std::string::npos;
  }
  EXPECT_TRUE(logged_corruption) << "skip reason not logged";

  // The fallback is the previous checkpoint (cycle 400, not 600) — and
  // replaying from there still lands on the exact batch end state.
  auto found = manager.find(id);
  ASSERT_TRUE(found.ok()) << found.error();
  std::shared_ptr<Session> session = found.value();
  EXPECT_NE(session->info_json().find("\"recovered_from_cycle\":400"),
            std::string::npos)
      << session->info_json();
  ASSERT_EQ(session->run_async(Cycle{1} << 30), "");
  ASSERT_TRUE(wait_until_idle(*session));
  auto stats = session->stats_page();
  ASSERT_TRUE(stats.ok()) << stats.error();
  EXPECT_EQ(stats.value(), want.stats);
  auto metrics = session->metrics_page();
  ASSERT_TRUE(metrics.ok()) << metrics.error();
  EXPECT_EQ(metrics.value(), want.metrics);
  EXPECT_EQ(read_file_text(dir + "/session-" + std::to_string(id) +
                           "/trace-0.jsonl"),
            want.trace);
  EXPECT_EQ(manager.kill(id), "");
}

TEST(ServerJournal, ConfigJsonRoundTripsExactly) {
  SessionConfig config = durable_config();
  config.deadline_ms = 1234;
  config.max_cycles = 777;
  config.workers = 3;
  const std::string encoded = session_config_to_json(config);
  auto parsed = common::json::parse(encoded);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  ASSERT_TRUE(parsed.value().is_object());
  auto machine = machine::MachineDesc::from_value(
      parsed.value().object().at("machine"));
  ASSERT_TRUE(machine.ok()) << machine.error();
  auto decoded = session_config_from_json(
      parsed.value().object(), std::move(machine).value(),
      SessionConfig{}.control_quantum);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(session_config_to_json(decoded.value()), encoded);
}

TEST(ServerSupervision, WallClockDeadlineKillsAndReleasesBudget) {
  SessionManager::Limits limits;
  limits.max_sessions = 8;
  limits.worker_budget = 1;
  SessionManager manager(limits);

  SessionConfig config;
  config.desc = machine::MachineDesc::single_core(kSpinProgram);
  config.control_quantum = 2000;
  config.deadline_ms = 50;
  auto created = manager.create(std::move(config));
  ASSERT_TRUE(created.ok()) << created.error();
  std::shared_ptr<Session> session = created.value();
  ASSERT_EQ(session->run_async(Cycle{1} << 40), "");

  // The worker sees the overrun at a quantum boundary and kills.
  ASSERT_TRUE(wait_until_state(*session, SessionState::kKilled));
  const std::string info = session->info_json();
  EXPECT_NE(info.find("[srv-deadline]"), std::string::npos) << info;
  EXPECT_NE(info.find("wall-clock deadline exceeded"), std::string::npos)
      << info;

  // The expired session stays visible in the pool (clients read the
  // structured stop state) but its worker budget is already released:
  // a follow-up admission under the 1-worker budget succeeds.
  ASSERT_TRUE(manager.find(session->id()).ok());
  auto next = manager.create(halting_config());
  EXPECT_TRUE(next.ok()) << next.error();
}

TEST(ServerSupervision, CycleBudgetKillsAtTheCap) {
  SessionManager manager({});
  SessionConfig config;
  config.desc = machine::MachineDesc::single_core(kSpinProgram);
  config.control_quantum = 100;
  config.max_cycles = 500;
  auto created = manager.create(std::move(config));
  ASSERT_TRUE(created.ok()) << created.error();
  std::shared_ptr<Session> session = created.value();
  ASSERT_EQ(session->run_async(Cycle{1} << 40), "");
  ASSERT_TRUE(wait_until_state(*session, SessionState::kKilled));
  const std::string info = session->info_json();
  EXPECT_NE(info.find("[srv-deadline] cycle budget exhausted"),
            std::string::npos)
      << info;
  // The run stopped at the cap (modulo one instruction straddling the
  // boundary), not at the next control quantum past it.
  const Cycle cycles = parse_cycles(info);
  EXPECT_GE(cycles, 500u) << info;
  EXPECT_LT(cycles, 600u) << info;
}

TEST(ServerSupervision, DeadlockMapsToStructuredState) {
  SessionManager manager({});
  SessionConfig config;
  // A blocking FSL read with no hardware attached can never complete;
  // the quantum exceeds the engine's 100k-cycle deadlock threshold so
  // the heuristic fires inside one chunk.
  config.desc = machine::MachineDesc::single_core("get r4, rfsl0\nhalt\n");
  config.control_quantum = 150'000;
  auto created = manager.create(std::move(config));
  ASSERT_TRUE(created.ok()) << created.error();
  std::shared_ptr<Session> session = created.value();
  ASSERT_EQ(session->run_async(Cycle{1} << 30), "");
  ASSERT_TRUE(wait_until_idle(*session));
  const std::string info = session->info_json();
  EXPECT_NE(info.find("[srv-deadlock]"), std::string::npos) << info;
  EXPECT_NE(info.find("core cpu0"), std::string::npos) << info;
}

TEST(ServerJournal, DrainCheckpointsAndRecoveryResumes) {
  const std::string dir = fresh_state_dir("srv_journal_drain");
  u64 id = 0;
  Cycle drained_at = 0;

  {
    auto opened = JournalStore::open(dir);
    ASSERT_TRUE(opened.ok()) << opened.error();
    std::unique_ptr<JournalStore> store = std::move(opened).value();
    SessionManager manager({});
    manager.attach_journal(store.get());
    SessionConfig config;
    config.desc = machine::MachineDesc::single_core(kSpinProgram);
    config.control_quantum = 1000;
    config.ckpt_every = 0;  // checkpoint only when the run stops
    auto created = manager.create(std::move(config));
    ASSERT_TRUE(created.ok()) << created.error();
    std::shared_ptr<Session> session = created.value();
    id = session->id();
    auto subscription = session->subscribe();
    ASSERT_EQ(session->run_async(Cycle{1} << 40), "");
    std::this_thread::sleep_for(std::chrono::milliseconds(30));

    manager.drain(10'000);

    // The stream announced the drain before closing.
    bool saw_draining = false;
    while (auto line = subscription->next(0)) {
      saw_draining |= line->find("\"stream\":\"draining\"") !=
                      std::string::npos;
    }
    EXPECT_TRUE(saw_draining);
    EXPECT_TRUE(subscription->finished());
    EXPECT_EQ(session->state(), SessionState::kKilled);
    drained_at = parse_cycles(session->info_json());
    EXPECT_GT(drained_at, 0u);
  }

  auto reopened = JournalStore::open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.error();
  std::unique_ptr<JournalStore> store = std::move(reopened).value();
  SessionManager manager({});
  manager.attach_journal(store.get());
  const SessionManager::RecoveryReport report = manager.recover();
  ASSERT_EQ(report.recovered, 1u);
  auto found = manager.find(id);
  ASSERT_TRUE(found.ok()) << found.error();
  std::shared_ptr<Session> session = found.value();
  EXPECT_EQ(session->state(), SessionState::kIdle);
  EXPECT_NE(session->info_json().find("\"recovered_from_cycle\":" +
                                      std::to_string(drained_at)),
            std::string::npos)
      << session->info_json();
  // And it runs on from exactly where the drain stopped it.
  ASSERT_EQ(session->run_async(drained_at + 5000), "");
  ASSERT_TRUE(wait_until_idle(*session));
  const Cycle resumed = parse_cycles(session->info_json());
  EXPECT_GE(resumed, drained_at + 5000) << session->info_json();
  EXPECT_LT(resumed, drained_at + 6000) << session->info_json();
  EXPECT_EQ(manager.kill(id), "");
}

}  // namespace
}  // namespace mbcosim::server
