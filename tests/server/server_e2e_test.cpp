// Simulation-server end-to-end tests over real TCP: an in-process
// HttpServer+Service pool hosting concurrent sessions on mixed
// execution tiers, exercised by a scripted HTTP/1.1 client. Proves the
// service promise — everything the server computes is byte-identical
// to a batch mbcsim-style run of the same machine: stats pages,
// metrics pages, streamed trace events, and a session restored from a
// checkpoint that travelled over the wire. Also the slow-client
// telemetry test: a subscriber that stops reading loses old lines (the
// per-client queue is bounded) and sees the loss accounted in-stream.
// Runs under the `server_tcp` ctest label (excluded from tier-1's
// socket-free default set).
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/machine_peripherals.hpp"
#include "common/json.hpp"
#include "isa/isa.hpp"
#include "iss/exec_tier.hpp"
#include "machine/machine_desc.hpp"
#include "obs/jsonl_sink.hpp"
#include "rsp/transport.hpp"
#include "rsp_test_client.hpp"
#include "server/http.hpp"
#include "server/service.hpp"
#include "server/session.hpp"
#include "sim/sim_system.hpp"

namespace mbcosim::server {
namespace {

constexpr int kDeadlineMs = 60'000;

// ------------------------------------------------ scripted HTTP client

struct HttpReply {
  int status = 0;
  std::map<std::string, std::string> headers;  // keys lower-cased
  std::string body;
};

std::string dechunk(const std::string& in) {
  std::string out;
  std::size_t pos = 0;
  while (pos < in.size()) {
    const std::size_t eol = in.find("\r\n", pos);
    if (eol == std::string::npos) break;
    const std::size_t size =
        std::strtoul(in.substr(pos, eol - pos).c_str(), nullptr, 16);
    pos = eol + 2;
    if (size == 0) break;
    out += in.substr(pos, size);
    pos += size + 2;  // data + CRLF
  }
  return out;
}

HttpReply parse_reply(const std::string& raw) {
  HttpReply reply;
  const std::size_t line_end = raw.find("\r\n");
  if (line_end == std::string::npos) return reply;
  // "HTTP/1.1 200 OK"
  const std::size_t space = raw.find(' ');
  if (space != std::string::npos && space < line_end) {
    reply.status = std::atoi(raw.c_str() + space + 1);
  }
  const std::size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) return reply;
  std::size_t pos = line_end + 2;
  while (pos < header_end) {
    std::size_t eol = raw.find("\r\n", pos);
    const std::size_t colon = raw.find(':', pos);
    if (colon == std::string::npos || colon > eol) break;
    std::string key = raw.substr(pos, colon - pos);
    for (char& c : key) c = static_cast<char>(std::tolower(c));
    std::size_t value = colon + 1;
    while (value < eol && raw[value] == ' ') ++value;
    reply.headers[key] = raw.substr(value, eol - value);
    pos = eol + 2;
  }
  reply.body = raw.substr(header_end + 4);
  const auto encoding = reply.headers.find("transfer-encoding");
  if (encoding != reply.headers.end() && encoding->second == "chunked") {
    reply.body = dechunk(reply.body);
  }
  return reply;
}

std::string drain(rsp::Transport& wire, int deadline_ms = kDeadlineMs) {
  std::string raw;
  const auto start = std::chrono::steady_clock::now();
  while (!wire.closed()) {
    raw += wire.recv(50);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    if (std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
            .count() > deadline_ms) {
      break;
    }
  }
  raw += wire.recv(0);
  return raw;
}

std::string request_text(const std::string& method, const std::string& path,
                         const std::string& body,
                         const std::string& content_type) {
  std::string request = method + " " + path + " HTTP/1.1\r\n" +
                        "Host: 127.0.0.1\r\nConnection: close\r\n" +
                        "Content-Length: " + std::to_string(body.size()) +
                        "\r\n";
  if (!body.empty()) request += "Content-Type: " + content_type + "\r\n";
  request += "\r\n" + body;
  return request;
}

HttpReply http(u16 port, const std::string& method, const std::string& path,
               const std::string& body = {},
               const std::string& content_type = "application/json") {
  std::unique_ptr<rsp::Transport> wire = rsp::tcp_connect("127.0.0.1", port);
  if (wire == nullptr) return {};
  if (!wire->send(request_text(method, path, body, content_type))) return {};
  return parse_reply(drain(*wire));
}

// JSON field out of a reply body ("" / 0 when absent).
std::string json_string(const std::string& body, const std::string& key) {
  const auto parsed = common::json::parse(body);
  if (!parsed.ok() || !parsed.value().is_object()) return {};
  const auto it = parsed.value().object().find(key);
  if (it == parsed.value().object().end() || !it->second.is_string()) {
    return {};
  }
  return it->second.string();
}

long long json_int(const std::string& body, const std::string& key) {
  const auto parsed = common::json::parse(body);
  if (!parsed.ok() || !parsed.value().is_object()) return -1;
  const auto it = parsed.value().object().find(key);
  if (it == parsed.value().object().end() || !it->second.is_int()) {
    return -1;
  }
  return it->second.integer();
}

[[nodiscard]] bool wait_for_state(u16 port, u64 id, const std::string& want) {
  const auto start = std::chrono::steady_clock::now();
  while (true) {
    const HttpReply info =
        http(port, "GET", "/sessions/" + std::to_string(id));
    if (info.status == 200 && json_string(info.body, "state") == want) {
      return true;
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    if (std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
            .count() > kDeadlineMs) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

// --------------------------------------------------------- test fixture

class ServerE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    apps::register_machine_peripherals();
    Service::Options options;
    options.limits.max_sessions = 8;
    options.limits.worker_budget = 16;  // independent of host core count
    service_ = std::make_unique<Service>(std::move(options));
    auto started = HttpServer::start(
        0, [this](const HttpRequest& request, HttpResponseWriter& writer) {
          service_->handle(request, writer);
        });
    ASSERT_TRUE(started.ok()) << started.error();
    http_ = std::move(started).value();
    port_ = http_->port();
  }

  void TearDown() override {
    if (service_ != nullptr) service_->manager().kill_all();
    if (http_ != nullptr) http_->stop();
  }

  u64 create_session(const std::string& body) {
    const HttpReply reply =
        http(port_, "POST", "/sessions", body);
    EXPECT_EQ(reply.status, 201) << reply.body;
    const long long id = json_int(reply.body, "id");
    EXPECT_GT(id, 0) << reply.body;
    return static_cast<u64>(id);
  }

  std::unique_ptr<Service> service_;
  std::unique_ptr<HttpServer> http_;
  u16 port_ = 0;
};

// Inline single-core machine with a chosen execution tier.
std::string machine_body(const char* program, const char* exec_tier,
                         const std::string& extra = {}) {
  machine::MachineDesc desc = machine::MachineDesc::single_core(program);
  if (const auto tier = iss::parse_exec_tier(exec_tier)) {
    desc.cores[0].exec_tier = *tier;
  }
  std::string body =
      "{\"machine\":" + desc.to_json() + ",\"control_quantum\":64";
  if (!extra.empty()) body += "," + extra;
  body += "}";
  return body;
}

constexpr const char* kCountProgram = R"(
start:
  li r3, 200
loop:
  addik r3, r3, -1
  bnei r3, loop
  halt
)";

constexpr const char* kTraceProgram = R"(
start:
  li r3, 8
loop:
  addik r3, r3, -1
  bnei r3, loop
  halt
)";

sim::SimSystem batch_system(const machine::MachineDesc& desc) {
  auto built = sim::SimSystem::Builder().machine(desc).metrics().build();
  EXPECT_TRUE(built.ok()) << built.error();
  return std::move(built).value();
}

// ------------------------------------------------------------ the tests

TEST_F(ServerE2E, ConcurrentSessionsMatchBatchWithWireCheckpointRestore) {
  // Four concurrent sessions on mixed tiers: a traced precise core, a
  // predecode core, a dbt core, and the 3-core CORDIC farm machine.
  const std::string farm_path =
      std::string(MBCOSIM_EXAMPLES_DIR) + "/machines/cordic_farm.json";
  const u64 traced =
      create_session(machine_body(kTraceProgram, "precise", "\"trace\":true"));
  const u64 stepped = create_session(machine_body(kCountProgram, "predecode"));
  const u64 translated = create_session(machine_body(kCountProgram, "dbt"));
  const u64 farm =
      create_session("{\"machine_file\":\"" + farm_path + "\"}");

  // Stream the traced session from a dedicated connection.
  std::unique_ptr<rsp::Transport> stream_wire =
      rsp::tcp_connect("127.0.0.1", port_);
  ASSERT_NE(stream_wire, nullptr);
  ASSERT_TRUE(stream_wire->send(request_text(
      "GET", "/sessions/" + std::to_string(traced) + "/stream", "", "")));
  // The server subscribes before it sends the response head, so once the
  // head is here no event of the run below can be missed.
  std::string stream_head;
  const auto head_start = std::chrono::steady_clock::now();
  while (stream_head.find("\r\n\r\n") == std::string::npos &&
         !stream_wire->closed() &&
         std::chrono::steady_clock::now() - head_start <
             std::chrono::milliseconds(kDeadlineMs)) {
    stream_head += stream_wire->recv(50);
  }
  ASSERT_NE(stream_head.find("\r\n\r\n"), std::string::npos) << stream_head;
  std::string stream_raw;
  std::thread stream_reader(
      [&] { stream_raw = stream_head + drain(*stream_wire); });

  // Kick all four off together; `stepped` stops at absolute cycle 192
  // so a mid-run checkpoint exists to ship over the wire.
  for (const u64 id : {traced, translated, farm}) {
    const HttpReply run = http(
        port_, "POST", "/sessions/" + std::to_string(id) + "/run", "{}");
    EXPECT_EQ(run.status, 200) << run.body;
  }
  const HttpReply run_stepped =
      http(port_, "POST", "/sessions/" + std::to_string(stepped) + "/run",
           "{\"max_cycles\":192}");
  EXPECT_EQ(run_stepped.status, 200) << run_stepped.body;
  for (const u64 id : {traced, stepped, translated, farm}) {
    ASSERT_TRUE(wait_for_state(port_, id, "idle")) << "session " << id;
  }

  // --- checkpoint over the wire into a fresh session ---
  const HttpReply image = http(
      port_, "GET", "/sessions/" + std::to_string(stepped) + "/checkpoint");
  ASSERT_EQ(image.status, 200);
  ASSERT_FALSE(image.body.empty());
  const u64 restored = create_session(machine_body(kCountProgram, "predecode"));
  const HttpReply restore = http(
      port_, "POST", "/sessions/" + std::to_string(restored) + "/restore",
      image.body, "application/octet-stream");
  ASSERT_EQ(restore.status, 200) << restore.body;
  EXPECT_EQ(json_string(restore.body, "stop"), "restored");
  // Both the original and the restored copy now run to the halt.
  for (const u64 id : {stepped, restored}) {
    const HttpReply run = http(
        port_, "POST", "/sessions/" + std::to_string(id) + "/run", "{}");
    EXPECT_EQ(run.status, 200) << run.body;
    ASSERT_TRUE(wait_for_state(port_, id, "idle"));
  }

  // --- batch equivalence, session by session ---
  const auto page = [&](u64 id, const char* verb) {
    const HttpReply reply = http(
        port_, "GET", "/sessions/" + std::to_string(id) + "/" + verb);
    EXPECT_EQ(reply.status, 200) << reply.body;
    return reply.body;
  };

  {  // traced precise core: stats page + streamed trace bytes
    machine::MachineDesc desc = machine::MachineDesc::single_core(kTraceProgram);
    desc.cores[0].exec_tier = iss::ExecTier::kPrecise;
    sim::SimSystem batch = batch_system(desc);
    std::ostringstream golden;
    auto sink = std::make_unique<obs::JsonlSink>(golden);
    sink->set_disassembler([](Addr, Word raw) { return isa::disassemble(raw); });
    batch.trace_bus(0).add_sink(std::move(sink));
    ASSERT_EQ(batch.run(), core::StopReason::kHalted);
    EXPECT_EQ(page(traced, "stats"), stats_text(batch));

    // End the stream (kill closes the hub) and compare the event lines.
    const HttpReply killed = http(
        port_, "DELETE", "/sessions/" + std::to_string(traced));
    EXPECT_EQ(killed.status, 200) << killed.body;
    stream_reader.join();
    const HttpReply stream = parse_reply(stream_raw);
    EXPECT_EQ(stream.status, 200);
    std::string events;
    std::istringstream lines(stream.body);
    std::string line;
    bool saw_drop = false;
    while (std::getline(lines, line)) {
      if (line.find("\"stream\":") != std::string::npos) {
        saw_drop |= line.find("\"stream\":\"dropped\"") != std::string::npos;
        continue;  // state/metrics records ride alongside the trace
      }
      events += line + "\n";
    }
    EXPECT_FALSE(saw_drop);  // this client kept up; nothing was lost
    EXPECT_EQ(events, golden.str());
  }

  for (const auto& [id, tier] :
       {std::pair<u64, iss::ExecTier>{translated, iss::ExecTier::kDbt},
        std::pair<u64, iss::ExecTier>{stepped, iss::ExecTier::kPredecode}}) {
    machine::MachineDesc desc = machine::MachineDesc::single_core(kCountProgram);
    desc.cores[0].exec_tier = tier;
    sim::SimSystem batch = batch_system(desc);
    ASSERT_EQ(batch.run(), core::StopReason::kHalted);
    EXPECT_EQ(page(id, "stats"), stats_text(batch)) << "session " << id;
    EXPECT_EQ(page(id, "metrics"), batch.metrics_snapshot().to_string());
  }

  {  // The restored copy equals a batch system fed the same image
     // (metrics collectors are observation-side state, not part of a
     // checkpoint, so the reference restores too).
    machine::MachineDesc desc = machine::MachineDesc::single_core(kCountProgram);
    desc.cores[0].exec_tier = iss::ExecTier::kPredecode;
    sim::SimSystem batch = batch_system(desc);
    const std::vector<unsigned char> bytes(image.body.begin(),
                                           image.body.end());
    const Status ok = batch.restore_image(bytes);
    ASSERT_TRUE(ok.ok) << ok.message;
    ASSERT_EQ(batch.run(), core::StopReason::kHalted);
    EXPECT_EQ(page(restored, "stats"), stats_text(batch));
    EXPECT_EQ(page(restored, "metrics"), batch.metrics_snapshot().to_string());
  }

  {  // the 3-core farm created from a server-side machine file
    auto desc = machine::MachineDesc::from_file(farm_path);
    ASSERT_TRUE(desc.ok()) << desc.error();
    sim::SimSystem batch = batch_system(desc.value());
    ASSERT_EQ(batch.run(), core::StopReason::kHalted);
    EXPECT_EQ(page(farm, "stats"), stats_text(batch));
    EXPECT_EQ(page(farm, "metrics"), batch.metrics_snapshot().to_string());
  }
}

TEST_F(ServerE2E, SlowStreamClientIsBoundedWithInStreamDropAccounting) {
  // ~100k trace events against a subscriber queue of 8 lines and a
  // client that reads nothing until the run is over: the oldest lines
  // must be dropped (bounded memory), and the loss must be announced
  // in-stream before the lines that follow the gap.
  constexpr const char* kFloodProgram = R"(
start:
  li r3, 50000
loop:
  addik r3, r3, -1
  bnei r3, loop
  halt
)";
  const u64 id = create_session(machine_body(
      kFloodProgram, "precise", "\"trace\":true,\"stream_queue\":8"));

  std::unique_ptr<rsp::Transport> wire = rsp::tcp_connect("127.0.0.1", port_);
  ASSERT_NE(wire, nullptr);
  ASSERT_TRUE(wire->send(request_text(
      "GET", "/sessions/" + std::to_string(id) + "/stream", "", "")));
  // Let the subscription attach before the flood starts.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const HttpReply run = http(
      port_, "POST", "/sessions/" + std::to_string(id) + "/run", "{}");
  ASSERT_EQ(run.status, 200) << run.body;
  ASSERT_TRUE(wait_for_state(port_, id, "idle"));
  const HttpReply killed =
      http(port_, "DELETE", "/sessions/" + std::to_string(id));
  EXPECT_EQ(killed.status, 200) << killed.body;

  // Only now does the client read. Everything still queued (at most the
  // 8-line bound plus what the kernel buffered) arrives, then the
  // stream ends cleanly.
  const HttpReply stream = parse_reply(drain(*wire));
  EXPECT_EQ(stream.status, 200);

  std::size_t received_lines = 0;
  long long last_drop_total = 0;
  bool drop_before_following_line = false;
  std::istringstream lines(stream.body);
  std::string line;
  while (std::getline(lines, line)) {
    ++received_lines;
    if (line.find("\"stream\":\"dropped\"") != std::string::npos) {
      last_drop_total = std::max(last_drop_total, json_int(line, "total"));
      EXPECT_GT(json_int(line, "count"), 0) << line;
      drop_before_following_line = true;
    }
  }
  EXPECT_TRUE(drop_before_following_line) << "no in-stream drop record";
  EXPECT_GT(last_drop_total, 0);
  // The program retired ~100k instructions; a lossless stream would
  // carry at least that many lines. Conservation: what arrived plus
  // what was dropped covers the flood, and far fewer lines arrived
  // than were published.
  EXPECT_LT(received_lines, 100'000u);
  EXPECT_GT(received_lines + static_cast<std::size_t>(last_drop_total),
            100'000u);
  EXPECT_NE(stream.body.find("\"state\":\"killed\""), std::string::npos);
}

TEST_F(ServerE2E, DebugPortAttachDetachOverHttp) {
  constexpr const char* kSpinProgram = "loop: bri loop2\nloop2: bri loop\n";
  const u64 id = create_session(machine_body(kSpinProgram, "precise"));

  const HttpReply opened = http(
      port_, "POST", "/sessions/" + std::to_string(id) + "/debug",
      "{\"port\":0}");
  ASSERT_EQ(opened.status, 200) << opened.body;
  const long long debug_port = json_int(opened.body, "port");
  ASSERT_GT(debug_port, 0) << opened.body;
  ASSERT_TRUE(wait_for_state(port_, id, "debug"));

  // While a client is attached, the session refuses to run.
  std::unique_ptr<rsp::Transport> gdb =
      rsp::tcp_connect("127.0.0.1", static_cast<u16>(debug_port));
  ASSERT_NE(gdb, nullptr);
  rsp::testclient::RspTestClient client(*gdb, /*pump=*/{}, kDeadlineMs);
  EXPECT_EQ(client.transact("?"), "S05");
  const HttpReply busy = http(
      port_, "POST", "/sessions/" + std::to_string(id) + "/run", "{}");
  EXPECT_EQ(busy.status, 409) << busy.body;

  // Detach; the session returns to idle and records how debug ended.
  EXPECT_EQ(client.transact("D"), "OK");
  ASSERT_TRUE(wait_for_state(port_, id, "idle"));
  const HttpReply info =
      http(port_, "GET", "/sessions/" + std::to_string(id));
  EXPECT_EQ(json_string(info.body, "stop").rfind("debug-", 0), 0u)
      << info.body;
  const HttpReply killed =
      http(port_, "DELETE", "/sessions/" + std::to_string(id));
  EXPECT_EQ(killed.status, 200) << killed.body;
}

// ------------------------------------------ keep-alive & crash recovery

/// Read exactly one fixed-length reply from a connection that stays
/// open afterwards (keep-alive), leaving pipelined surplus in `raw`.
HttpReply recv_reply(rsp::Transport& wire, std::string& raw) {
  const auto start = std::chrono::steady_clock::now();
  while (true) {
    const std::size_t head_end = raw.find("\r\n\r\n");
    if (head_end != std::string::npos) {
      const HttpReply head = parse_reply(raw.substr(0, head_end + 4));
      const auto it = head.headers.find("content-length");
      const std::size_t length =
          it == head.headers.end()
              ? 0
              : std::strtoul(it->second.c_str(), nullptr, 10);
      if (raw.size() >= head_end + 4 + length) {
        HttpReply reply = head;
        reply.body = raw.substr(head_end + 4, length);
        raw.erase(0, head_end + 4 + length);
        return reply;
      }
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    if (wire.closed() ||
        std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count() > kDeadlineMs) {
      return {};
    }
    raw += wire.recv(50);
  }
}

TEST_F(ServerE2E, KeepAliveConnectionServesSequentialRequests) {
  std::unique_ptr<rsp::Transport> wire = rsp::tcp_connect("127.0.0.1", port_);
  ASSERT_NE(wire, nullptr);
  std::string raw;

  // Two request/response round trips on one connection.
  ASSERT_TRUE(wire->send("GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                         "Connection: keep-alive\r\n\r\n"));
  HttpReply first = recv_reply(*wire, raw);
  EXPECT_EQ(first.status, 200);
  EXPECT_EQ(first.body, "ok\n");
  EXPECT_EQ(first.headers["connection"], "keep-alive");

  ASSERT_TRUE(wire->send("GET /sessions HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                         "Connection: keep-alive\r\n\r\n"));
  HttpReply second = recv_reply(*wire, raw);
  EXPECT_EQ(second.status, 200);
  EXPECT_EQ(second.body, "{\"sessions\":[]}");
  EXPECT_EQ(second.headers["connection"], "keep-alive");

  // A request without the opt-in header ends the connection.
  ASSERT_TRUE(wire->send("GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"));
  HttpReply last = recv_reply(*wire, raw);
  EXPECT_EQ(last.status, 200);
  EXPECT_EQ(last.headers["connection"], "close");
  drain(*wire, 5000);
  EXPECT_TRUE(wire->closed());
}

/// A "/proc/self/status" field ("VmSize" in kB, "Threads" as a count);
/// -1 when absent.
long long proc_status(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::atoll(line.c_str() + field.size() + 1);
    }
  }
  return -1;
}

TEST_F(ServerE2E, ManyShortConnectionsKeepThreadsAndVmSizeFlat) {
  // One connection thread per request without keep-alive: the accept
  // loop must join each one after it finishes. A server that kept them
  // until stop() would hold every thread's stack mapped (8 MB of VmSize
  // each) and run out of mappings after ~32k requests.
  auto burst = [this](int requests) {
    for (int i = 0; i < requests; ++i) {
      const HttpReply reply = http(port_, "GET", "/healthz");
      if (reply.status != 200) return i;
    }
    return requests;
  };
  // The accept loop reaps at least every 100 ms.
  auto settle = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  };
  ASSERT_EQ(burst(1'000), 1'000);
  settle();
  const long long threads_before = proc_status("Threads");
  const long long vmsize_before_kb = proc_status("VmSize");
  ASSERT_GT(threads_before, 0);
  ASSERT_GT(vmsize_before_kb, 0);

  ASSERT_EQ(burst(40'000), 40'000);
  settle();
  EXPECT_LE(proc_status("Threads"), threads_before);
  EXPECT_LE(proc_status("VmSize"), vmsize_before_kb + 64 * 1024)
      << "VmSize grew from " << vmsize_before_kb << " kB";
}

TEST(ServerE2EDurability, RecoveryAcrossServiceRestartMatchesBatch) {
  apps::register_machine_peripherals();
  const std::string state_dir =
      ::testing::TempDir() + "srv_e2e_recovery";
  std::filesystem::remove_all(state_dir);
  const std::string create_body = machine_body(kCountProgram, "predecode");
  u64 id = 0;

  {  // Daemon #1: create, run to cycle 192, "crash" (no drain, no kill).
    Service::Options options;
    options.state_dir = state_dir;
    auto service = std::make_unique<Service>(std::move(options));
    ASSERT_TRUE(service->init().ok);
    auto started = HttpServer::start(
        0, [&service](const HttpRequest& request, HttpResponseWriter& writer) {
          service->handle(request, writer);
        });
    ASSERT_TRUE(started.ok()) << started.error();
    const u16 port = started.value()->port();
    const HttpReply created = http(port, "POST", "/sessions", create_body);
    ASSERT_EQ(created.status, 201) << created.body;
    id = static_cast<u64>(json_int(created.body, "id"));
    const HttpReply run = http(
        port, "POST", "/sessions/" + std::to_string(id) + "/run",
        "{\"max_cycles\":192}");
    ASSERT_EQ(run.status, 200) << run.body;
    ASSERT_TRUE(wait_for_state(port, id, "idle"));
    started.value()->stop();
    // Scope exit destroys the Service without drain() — from the
    // journal's point of view this is indistinguishable from kill -9.
  }

  {  // Daemon #2: --recover rebuilds the session from its journal.
    Service::Options options;
    options.state_dir = state_dir;
    options.recover = true;
    auto service = std::make_unique<Service>(std::move(options));
    SessionManager::RecoveryReport report;
    ASSERT_TRUE(service->init(&report).ok);
    ASSERT_EQ(report.recovered, 1u);
    auto started = HttpServer::start(
        0, [&service](const HttpRequest& request, HttpResponseWriter& writer) {
          service->handle(request, writer);
        });
    ASSERT_TRUE(started.ok()) << started.error();
    const u16 port = started.value()->port();

    const HttpReply info =
        http(port, "GET", "/sessions/" + std::to_string(id));
    ASSERT_EQ(info.status, 200) << info.body;
    EXPECT_EQ(json_string(info.body, "state"), "idle");
    // Recovered exactly at the pre-crash stop point (the run target,
    // modulo an instruction straddling the boundary).
    EXPECT_EQ(json_int(info.body, "recovered_from_cycle"),
              json_int(info.body, "cycles"));
    EXPECT_GE(json_int(info.body, "recovered_from_cycle"), 192);

    // Finish the run; the result is byte-identical to an uninterrupted
    // batch run of the same machine.
    const HttpReply run = http(
        port, "POST", "/sessions/" + std::to_string(id) + "/run", "{}");
    ASSERT_EQ(run.status, 200) << run.body;
    ASSERT_TRUE(wait_for_state(port, id, "idle"));

    machine::MachineDesc desc =
        machine::MachineDesc::single_core(kCountProgram);
    desc.cores[0].exec_tier = iss::ExecTier::kPredecode;
    sim::SimSystem batch = batch_system(desc);
    ASSERT_EQ(batch.run(), core::StopReason::kHalted);
    const HttpReply stats = http(
        port, "GET", "/sessions/" + std::to_string(id) + "/stats");
    EXPECT_EQ(stats.body, stats_text(batch));
    const HttpReply metrics = http(
        port, "GET", "/sessions/" + std::to_string(id) + "/metrics");
    EXPECT_EQ(metrics.body, batch.metrics_snapshot().to_string());

    // Graceful shutdown path: once draining, creates are refused with
    // the stable 503 code.
    service->drain();
    const HttpReply refused = http(port, "POST", "/sessions", create_body);
    EXPECT_EQ(refused.status, 503) << refused.body;
    EXPECT_NE(refused.body.find("[srv-draining]"), std::string::npos)
        << refused.body;
    started.value()->stop();
  }
  std::filesystem::remove_all(state_dir);
}

}  // namespace
}  // namespace mbcosim::server
