// Trace-sink I/O hardening: a sink whose stream fails mid-run latches
// one structured Status failure, stops writing, and surfaces the error
// through TraceBus::status() / SimSystem::sink_status() instead of
// silently truncating the trace.
#include <sstream>
#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "obs/event.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/trace_bus.hpp"
#include "sim/sim_system.hpp"

namespace mbcosim::obs {
namespace {

/// A streambuf that accepts `limit` characters and then reports write
/// failure (the in-memory analog of a disk filling up).
class ChokingBuf : public std::streambuf {
 public:
  explicit ChokingBuf(std::size_t limit) : limit_(limit) {}

 protected:
  int overflow(int ch) override {
    if (written_ >= limit_) return traits_type::eof();
    ++written_;
    return ch;
  }
  std::streamsize xsputn(const char* data, std::streamsize count) override {
    (void)data;
    const auto room =
        static_cast<std::streamsize>(limit_ - std::min(limit_, written_));
    const std::streamsize accepted = std::min(room, count);
    written_ += static_cast<std::size_t>(accepted);
    return accepted;
  }

 private:
  std::size_t limit_;
  std::size_t written_ = 0;
};

TraceEvent retire_event(Cycle cycle) {
  TraceEvent event;
  event.kind = EventKind::kInstrRetire;
  event.cycle = cycle;
  event.pc = 0x10;
  event.raw = 0x12345678;
  event.cycles = 1;
  return event;
}

TEST(SinkStatus, HealthyStreamReportsOk) {
  std::ostringstream out;
  JsonlSink sink(out);
  sink.on_event(retire_event(1));
  sink.flush();
  EXPECT_TRUE(sink.status().ok);
  EXPECT_EQ(sink.events_written(), 1u);
}

TEST(SinkStatus, FailingStreamLatchesOneStructuredError) {
  ChokingBuf buf(10);  // fails partway through the first event line
  std::ostream out(&buf);
  JsonlSink sink(out);

  sink.on_event(retire_event(1));
  ASSERT_FALSE(sink.status().ok);
  const std::string first_message = sink.status().message;
  EXPECT_NE(first_message.find("write failed"), std::string::npos);

  // Further events are dropped without disturbing the latched status.
  sink.on_event(retire_event(2));
  sink.on_event(retire_event(3));
  EXPECT_EQ(sink.status().message, first_message);
  EXPECT_EQ(sink.events_written(), 0u);  // the failed write never counted
}

TEST(SinkStatus, TraceBusSurfacesTheFirstFailingSink) {
  auto choked_buf = std::make_unique<ChokingBuf>(5);
  auto choked_stream = std::make_unique<std::ostream>(choked_buf.get());

  TraceBus bus;
  auto healthy = std::make_unique<std::ostringstream>();
  bus.add_sink(std::make_unique<JsonlSink>(*healthy));
  bus.add_sink(std::make_unique<JsonlSink>(*choked_stream));
  ASSERT_TRUE(bus.status().ok);

  bus.emit(retire_event(1));
  const Status status = bus.status();
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("write failed"), std::string::npos);
}

TEST(SinkStatus, SimSystemExposesSinkHealth) {
  auto system_built =
      sim::SimSystem::Builder()
          .machine(machine::MachineDesc::single_core("addik r3, r3, 1\nhalt\n"))
          .metrics()  // a healthy sink
          .build();
  ASSERT_TRUE(system_built.ok()) << system_built.error();
  sim::SimSystem system = std::move(system_built).value();
  EXPECT_EQ(system.run(), core::StopReason::kHalted);
  EXPECT_TRUE(system.sink_status().ok);
}

TEST(SinkStatus, FaultEventsRenderInTheJsonl) {
  std::ostringstream out;
  JsonlSink sink(out);
  TraceEvent inject;
  inject.kind = EventKind::kFaultInject;
  inject.cycle = 42;
  inject.label = "bitflip";
  inject.detail = "flipped mem[0x20]";
  sink.on_event(inject);
  sink.flush();
  const std::string line = out.str();
  EXPECT_NE(line.find("\"fault_inject\""), std::string::npos);
  EXPECT_NE(line.find("bitflip"), std::string::npos);
  EXPECT_NE(line.find("flipped mem[0x20]"), std::string::npos);
}

}  // namespace
}  // namespace mbcosim::obs
