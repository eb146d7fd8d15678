// Observability layer: TraceBus plumbing, JSONL/VCD sink output, the
// metrics registry's aggregation, and the end-to-end wiring through the
// instrumented producers (Processor, FslChannel, OpbBus, SimSystem).
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bus/opb_bus.hpp"
#include "ckpt/ckpt.hpp"
#include "fsl/fsl_channel.hpp"
#include "iss/test_helpers.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_bus.hpp"
#include "obs/vcd_sink.hpp"
#include "sim/sim_system.hpp"

namespace mbcosim::obs {
namespace {

/// A sink that just remembers every event it saw.
struct RecordingSink : TraceSink {
  std::vector<TraceEvent> events;
  int flushes = 0;
  void on_event(const TraceEvent& event) override { events.push_back(event); }
  void flush() override { ++flushes; }
};

TraceEvent instr_event(EventKind kind, Cycle cycle, Addr pc, Cycle cycles) {
  TraceEvent event;
  event.kind = kind;
  event.cycle = cycle;
  event.pc = pc;
  event.cycles = cycles;
  return event;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// ---------------------------------------------------------------------------
// TraceBus

TEST(TraceBus, DisabledUntilASinkIsAttached) {
  TraceBus bus;
  EXPECT_FALSE(bus.enabled());
  bus.add_sink(std::make_unique<RecordingSink>());
  EXPECT_TRUE(bus.enabled());
}

TEST(TraceBus, RejectsNullSink) {
  TraceBus bus;
  EXPECT_THROW(bus.add_sink(nullptr), SimError);
}

TEST(TraceBus, FansEventsOutToEverySink) {
  TraceBus bus;
  auto& a = static_cast<RecordingSink&>(
      bus.add_sink(std::make_unique<RecordingSink>()));
  auto& b = static_cast<RecordingSink&>(
      bus.add_sink(std::make_unique<RecordingSink>()));
  bus.emit(instr_event(EventKind::kInstrRetire, 3, 0x10, 1));
  ASSERT_EQ(a.events.size(), 1u);
  ASSERT_EQ(b.events.size(), 1u);
  EXPECT_EQ(a.events[0].pc, 0x10u);
  bus.flush();
  EXPECT_EQ(a.flushes, 1);
  EXPECT_EQ(b.flushes, 1);
}

TEST(TraceBus, TimeCursorIsSharedState) {
  TraceBus bus;
  EXPECT_EQ(bus.time(), 0u);
  bus.set_time(41);
  EXPECT_EQ(bus.time(), 41u);
}

// ---------------------------------------------------------------------------
// JsonlSink

TEST(JsonlSink, WritesOneJsonObjectPerLine) {
  std::ostringstream out;
  JsonlSink sink(out);
  sink.on_event(instr_event(EventKind::kInstrRetire, 1, 0x20, 1));
  sink.on_event(instr_event(EventKind::kInstrHalt, 4, 0x24, 3));
  sink.flush();
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(sink.events_written(), 2u);
  EXPECT_NE(lines[0].find("\"kind\":\"retire\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"t\":1"), std::string::npos);
  EXPECT_NE(lines[0].find("\"pc\":\"0x00000020\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"kind\":\"halt\""), std::string::npos);
  // Every line is brace-delimited (greppable, `jq`-able).
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
}

TEST(JsonlSink, InjectedDisassemblerAnnotatesInstructions) {
  std::ostringstream out;
  JsonlSink sink(out);
  sink.set_disassembler([](Addr, Word) { return std::string("add r3, r4, r5"); });
  sink.on_event(instr_event(EventKind::kInstrRetire, 1, 0, 1));
  EXPECT_NE(out.str().find("\"insn\":\"add r3, r4, r5\""), std::string::npos);
}

TEST(JsonlSink, EscapesQuotesAndBackslashes) {
  std::ostringstream out;
  JsonlSink sink(out);
  sink.set_disassembler([](Addr, Word) { return std::string("a\"b\\c"); });
  sink.on_event(instr_event(EventKind::kInstrRetire, 1, 0, 1));
  EXPECT_NE(out.str().find("a\\\"b\\\\c"), std::string::npos);
}

TEST(JsonlSink, FslEventsCarryChannelAndOccupancy) {
  std::ostringstream out;
  JsonlSink sink(out);
  TraceEvent event;
  event.kind = EventKind::kFslPush;
  event.cycle = 7;
  event.channel = "to_hw0";
  event.data = 0xAB;
  event.occupancy = 2;
  event.depth = 16;
  sink.on_event(event);
  const std::string line = out.str();
  EXPECT_NE(line.find("\"kind\":\"fsl_push\""), std::string::npos);
  EXPECT_NE(line.find("\"channel\":\"to_hw0\""), std::string::npos);
  EXPECT_NE(line.find("\"occupancy\":2"), std::string::npos);
}

TEST(JsonlSink, ReportsUnopenablePath) {
  JsonlSink sink("/nonexistent-dir-zz/trace.jsonl");
  EXPECT_FALSE(sink.ok());
}

// ---------------------------------------------------------------------------
// VcdSink

TEST(VcdSink, WritesAWellFormedHeaderAndChanges) {
  std::ostringstream out;
  VcdSink sink(out);
  sink.on_event(instr_event(EventKind::kInstrRetire, 0, 0x0, 1));
  sink.on_event(instr_event(EventKind::kInstrRetire, 1, 0x4, 1));
  sink.on_event(instr_event(EventKind::kInstrHalt, 2, 0x8, 3));
  sink.flush();
  const std::string vcd = out.str();
  EXPECT_NE(vcd.find("$timescale"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 32"), std::string::npos);
  EXPECT_NE(vcd.find("cpu.pc"), std::string::npos);
  EXPECT_NE(vcd.find("cpu.halted"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions"), std::string::npos);
  EXPECT_NE(vcd.find("$dumpvars"), std::string::npos);
  EXPECT_NE(vcd.find("#0"), std::string::npos);
  EXPECT_NE(vcd.find("#2"), std::string::npos);
}

TEST(VcdSink, SortsOutOfOrderTimestamps) {
  // Hardware-side events of a step are stamped with hardware time that
  // trails the processor's post-step time; the sink must still produce
  // a monotonic VCD.
  std::ostringstream out;
  VcdSink sink(out);
  sink.on_event(instr_event(EventKind::kInstrRetire, 5, 0x4, 1));
  TraceEvent push;
  push.kind = EventKind::kFslPush;
  push.cycle = 2;  // earlier than the already-recorded retire
  push.channel = "to_hw0";
  push.occupancy = 1;
  push.depth = 16;
  sink.on_event(push);
  sink.flush();
  const std::string vcd = out.str();
  const auto at2 = vcd.find("#2");
  const auto at5 = vcd.find("#5");
  ASSERT_NE(at2, std::string::npos);
  ASSERT_NE(at5, std::string::npos);
  EXPECT_LT(at2, at5);
}

TEST(VcdSink, ReportsUnopenablePath) {
  VcdSink sink("/nonexistent-dir-zz/run.vcd");
  EXPECT_FALSE(sink.ok());
}

// ---------------------------------------------------------------------------
// Histogram + MetricsRegistry

TEST(Histogram, Log2Buckets) {
  Histogram h;
  for (u64 v : {0u, 1u, 2u, 3u, 4u, 7u, 8u}) h.record(v);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.sum(), 25u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 8u);
  ASSERT_EQ(h.buckets().size(), 5u);  // widths 0..4
  EXPECT_EQ(h.buckets()[0], 1u);      // 0
  EXPECT_EQ(h.buckets()[1], 1u);      // 1
  EXPECT_EQ(h.buckets()[2], 2u);      // 2, 3
  EXPECT_EQ(h.buckets()[3], 2u);      // 4, 7
  EXPECT_EQ(h.buckets()[4], 1u);      // 8
}

TEST(MetricsRegistry, CountsInstructionEvents) {
  // Two adds, a get that stalls until a word arrives, then the halt. The
  // first run() burns stall cycles up to its budget; the counts must be
  // the same whichever tier executed the instructions.
  for (const iss::ExecTier tier :
       {iss::ExecTier::kPrecise, iss::ExecTier::kPredecode,
        iss::ExecTier::kDbt}) {
    SCOPED_TRACE(iss::to_string(tier));
    iss::testing::TestMachine m(
        "  add r3, r4, r5\n"
        "  add r3, r3, r3\n"
        "  get r4, rfsl0\n"
        "  halt\n");
    MetricsRegistry registry;
    m.cpu.set_exec_tier(tier);
    m.cpu.set_metrics(&registry.cpu);
    m.run(10);
    EXPECT_EQ(registry.cpu.stall_run, 8u);  // still open
    ASSERT_TRUE(m.hub.from_hw(0).try_write(5, false));
    m.run();
    const MetricsSnapshot snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.counter("cpu.retired"), 3u);
    EXPECT_EQ(snapshot.counter("cpu.stall_cycles"), 8u);
    EXPECT_EQ(snapshot.counter("cpu.halts"), 1u);
    EXPECT_FALSE(snapshot.counters.contains("cpu.illegal"));  // untouched
    const auto runs = snapshot.histograms.find("cpu.stall_run");
    ASSERT_NE(runs, snapshot.histograms.end());
    EXPECT_EQ(runs->second.count(), 1u);
    EXPECT_EQ(runs->second.max(), 8u);
  }
}

TEST(MetricsRegistry, StallRunsAreHistogrammed) {
  iss::testing::TestMachine m(
      "  get r4, rfsl0\n"
      "  get r5, rfsl0\n"
      "  halt\n");
  MetricsRegistry registry;
  m.cpu.set_metrics(&registry.cpu);
  // Two runs: 3 consecutive stalls closed by a retire, then 1 stall
  // still in flight at snapshot time.
  for (int i = 0; i < 3; ++i) m.cpu.step();
  ASSERT_TRUE(m.hub.from_hw(0).try_write(1, false));
  m.cpu.step();
  m.cpu.step();
  const MetricsSnapshot snapshot = registry.snapshot();
  const auto it = snapshot.histograms.find("cpu.stall_run");
  ASSERT_NE(it, snapshot.histograms.end());
  EXPECT_EQ(it->second.count(), 2u);
  EXPECT_EQ(it->second.max(), 3u);
  EXPECT_EQ(it->second.min(), 1u);
  // The snapshot must not have consumed the in-flight run.
  const MetricsSnapshot second = registry.snapshot();
  const auto again = second.histograms.find("cpu.stall_run");
  ASSERT_NE(again, second.histograms.end());
  EXPECT_EQ(again->second.count(), 2u);
  // flush() (the end of a run) closes it for good.
  registry.flush();
  EXPECT_EQ(registry.cpu.stall_run, 0u);
  EXPECT_EQ(registry.cpu.stall_runs.count(), 2u);
}

TEST(MetricsRegistry, FslAndEngineEvents) {
  MetricsRegistry registry;
  fsl::FslChannel channel(2, "to_hw0");
  channel.set_metrics(&registry.fsl(channel.name()));
  EXPECT_TRUE(channel.try_write(1, false));
  EXPECT_TRUE(channel.try_write(2, false));
  EXPECT_FALSE(channel.try_write(3, false));  // full -> refused
  registry.engine.quiesce_skipped += 250;
  const MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter("fsl.to_hw0.push"), 2u);
  EXPECT_EQ(snapshot.counter("fsl.to_hw0.refused"), 1u);
  EXPECT_FALSE(snapshot.counters.contains("fsl.to_hw0.pop"));  // untouched
  EXPECT_EQ(snapshot.counter("engine.quiesce_skipped"), 250u);
  const auto occupancy = snapshot.histograms.find("fsl.to_hw0.occupancy");
  ASSERT_NE(occupancy, snapshot.histograms.end());
  EXPECT_EQ(occupancy->second.count(), 2u);
  EXPECT_EQ(occupancy->second.max(), 2u);
}

// A metrics blob in the layout every earlier release journaled (the
// event-driven registry's save_state): counters by name, histograms by
// name, then the in-flight stall run. Journals written before the
// registry became typed counters must restore and render the same page.
TEST(MetricsRegistry, RestoresABlobInTheJournaledLayout) {
  Histogram stall_runs;
  for (const u64 run : {3u, 40u}) stall_runs.record(run);
  Histogram occupancy;
  for (const u64 level : {1u, 2u, 1u, 0u}) occupancy.record(level);
  Histogram wait;
  wait.record(2);
  const std::map<std::string, u64> counters = {
      {"cpu.halts", 1},
      {"cpu.retired", 120},
      {"cpu.stall_cycles", 43},
      {"engine.deadlocks", 1},
      {"engine.quiesce_skipped", 250},
      {"fault.injects", 1},
      {"fault.outcome.sdc", 1},
      {"fsl.cpu1.mb_to_hw0.pop", 2},
      {"fsl.cpu1.mb_to_hw0.push", 2},
      {"fsl.hw_to_mb1.refused", 5},
      {"opb.reads", 1},
      {"opb.wait_cycles", 2}};
  const std::map<std::string, Histogram> histograms = {
      {"cpu.stall_run", stall_runs},
      {"fsl.cpu1.mb_to_hw0.occupancy", occupancy},
      {"opb.wait", wait}};
  constexpr u64 kInFlight = 7;
  ckpt::Writer writer;
  writer.write_u64(counters.size());
  for (const auto& [name, value] : counters) {
    writer.write_str(name);
    writer.write_u64(value);
  }
  writer.write_u64(histograms.size());
  for (const auto& [name, histogram] : histograms) {
    writer.write_str(name);
    histogram.save_state(writer);
  }
  writer.write_u64(kInFlight);
  const std::vector<unsigned char> blob = writer.take();

  MetricsRegistry registry;
  ckpt::Reader reader(blob);
  ASSERT_TRUE(registry.load_state(reader));
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.remaining(), 0u);

  // The page is what that release rendered: the saved maps, with the
  // in-flight run accounted.
  MetricsSnapshot want{counters, histograms};
  want.histograms["cpu.stall_run"].record(kInFlight);
  EXPECT_EQ(registry.snapshot().to_string(), want.to_string());
  // Saving again writes the same bytes.
  ckpt::Writer again;
  registry.save_state(again);
  EXPECT_EQ(again.take(), blob);

  // A name no counter block holds is refused.
  ckpt::Writer unknown;
  unknown.write_u64(1);
  unknown.write_str("cpu.bogus");
  unknown.write_u64(1);
  unknown.write_u64(0);
  unknown.write_u64(0);
  const std::vector<unsigned char> bad = unknown.take();
  ckpt::Reader bad_reader(bad);
  EXPECT_FALSE(MetricsRegistry().load_state(bad_reader));
}

// ---------------------------------------------------------------------------
// Producer wiring

TEST(ObsWiring, ProcessorEmitsOneEventPerStep) {
  iss::testing::TestMachine m(
      "  add r3, r4, r5\n"
      "  mul r4, r3, r3\n"
      "  halt\n");
  TraceBus bus;
  auto& sink = static_cast<RecordingSink&>(
      bus.add_sink(std::make_unique<RecordingSink>()));
  m.cpu.set_trace_bus(&bus);
  m.run();
  ASSERT_EQ(sink.events.size(), 3u);
  EXPECT_EQ(sink.events[0].kind, EventKind::kInstrRetire);
  EXPECT_EQ(sink.events[0].cycle, 1u);  // stamped with completion time
  EXPECT_EQ(sink.events[1].kind, EventKind::kInstrRetire);
  EXPECT_EQ(sink.events[1].cycles, 3u);
  EXPECT_EQ(sink.events[2].kind, EventKind::kInstrHalt);
}

TEST(ObsWiring, FslChannelEmitsPushPopAndRefusal) {
  fsl::FslChannel channel(2, "to_hw0");
  TraceBus bus;
  auto& sink = static_cast<RecordingSink&>(
      bus.add_sink(std::make_unique<RecordingSink>()));
  channel.set_trace_bus(&bus);
  bus.set_time(11);
  EXPECT_TRUE(channel.try_write(1, false));
  EXPECT_TRUE(channel.try_write(2, true));
  EXPECT_FALSE(channel.try_write(3, false));  // full -> refused
  ASSERT_TRUE(channel.try_read().has_value());
  ASSERT_EQ(sink.events.size(), 4u);
  EXPECT_EQ(sink.events[0].kind, EventKind::kFslPush);
  EXPECT_EQ(sink.events[0].occupancy, 1u);
  EXPECT_EQ(sink.events[0].cycle, 11u);
  EXPECT_STREQ(sink.events[0].channel, "to_hw0");
  EXPECT_EQ(sink.events[1].kind, EventKind::kFslPush);
  EXPECT_TRUE(sink.events[1].control);
  EXPECT_EQ(sink.events[2].kind, EventKind::kFslRefused);
  EXPECT_EQ(sink.events[2].occupancy, 2u);
  EXPECT_EQ(sink.events[3].kind, EventKind::kFslPop);
  EXPECT_EQ(sink.events[3].data, 1u);
  EXPECT_EQ(sink.events[3].occupancy, 1u);
}

TEST(ObsWiring, OpbBusEmitsReadsAndWrites) {
  struct Scratch : bus::OpbPeripheral {
    Word value = 0;
    Word read(Addr) override { return value; }
    void write(Addr, Word v) override { value = v; }
    Cycle device_wait_states() const override { return 3; }
  };
  bus::OpbBus opb;
  opb.map("scratch", 0xC000'0000, 16, std::make_unique<Scratch>());
  TraceBus bus_;
  auto& sink = static_cast<RecordingSink&>(
      bus_.add_sink(std::make_unique<RecordingSink>()));
  opb.set_trace_bus(&bus_);
  bus_.set_time(9);
  opb.write(0xC000'0004, 55);
  EXPECT_EQ(opb.read(0xC000'0004).data, 55u);
  opb.read(0xDEAD'0000);  // unmapped: no event
  ASSERT_EQ(sink.events.size(), 2u);
  EXPECT_EQ(sink.events[0].kind, EventKind::kOpbWrite);
  EXPECT_EQ(sink.events[0].addr, 0xC000'0004u);
  EXPECT_EQ(sink.events[0].wait_states, bus::OpbBus::kBusWaitStates + 3);
  EXPECT_EQ(sink.events[1].kind, EventKind::kOpbRead);
  EXPECT_EQ(sink.events[1].cycle, 9u);
}

TEST(ObsWiring, DisabledBusEmitsNothing) {
  iss::testing::TestMachine m("add r3, r4, r5\nhalt\n");
  TraceBus bus;  // no sinks: wired but disabled
  m.cpu.set_trace_bus(&bus);
  m.run();
  EXPECT_TRUE(m.cpu.halted());
  EXPECT_FALSE(bus.enabled());
}

// ---------------------------------------------------------------------------
// SimSystem integration

/// A builder for the one-core machine running `source`.
sim::SimSystem::Builder one_core(std::string source) {
  sim::SimSystem::Builder builder;
  builder.machine(machine::MachineDesc::single_core(std::move(source)));
  return builder;
}

TEST(ObsSimSystem, MetricsBuilderExposesSnapshot) {
  auto built = one_core("add r3, r4, r5\nmul r4, r3, r3\nhalt\n")
                   .metrics()
                   .build();
  ASSERT_TRUE(built.ok()) << built.error();
  sim::SimSystem system = std::move(built).value();
  EXPECT_TRUE(system.metrics_snapshot().empty());
  system.run();
  const MetricsSnapshot snapshot = system.metrics_snapshot();
  EXPECT_EQ(snapshot.counter("cpu.retired"), 2u);
  EXPECT_EQ(snapshot.counter("cpu.halts"), 1u);
  EXPECT_FALSE(snapshot.to_string().empty());
}

TEST(ObsSimSystem, WithoutMetricsSnapshotIsEmpty) {
  auto built = one_core("halt\n").build();
  ASSERT_TRUE(built.ok()) << built.error();
  sim::SimSystem system = std::move(built).value();
  system.run();
  EXPECT_TRUE(system.metrics_snapshot().empty());
}

TEST(ObsSimSystem, CustomSinkSeesTheRun) {
  auto sink = std::make_unique<RecordingSink>();
  RecordingSink* raw = sink.get();
  auto built = one_core("add r3, r4, r5\nhalt\n")
                   .sink(std::move(sink))
                   .build();
  ASSERT_TRUE(built.ok()) << built.error();
  sim::SimSystem system = std::move(built).value();
  system.run();
  ASSERT_EQ(raw->events.size(), 2u);
  EXPECT_EQ(raw->events.back().kind, EventKind::kInstrHalt);
  EXPECT_GE(raw->flushes, 1);  // run() flushes the bus
}

TEST(ObsSimSystem, MetricsAccumulateAcrossReset) {
  // Counts mean "since build": reset() (which the fault-experiment
  // fallback relies on) and restore_image() leave them alone.
  auto built = one_core(
                   "  li r3, 20\n"
                   "loop:\n"
                   "  addik r3, r3, -1\n"
                   "  bnei r3, loop\n"
                   "  halt\n")
                   .metrics()
                   .build();
  ASSERT_TRUE(built.ok()) << built.error();
  sim::SimSystem system = std::move(built).value();
  ASSERT_EQ(system.run(), core::StopReason::kHalted);
  const MetricsSnapshot once = system.metrics_snapshot();
  ASSERT_EQ(once.counter("cpu.halts"), 1u);
  const std::vector<unsigned char> image = system.snapshot();
  system.reset();
  ASSERT_EQ(system.run(), core::StopReason::kHalted);
  const MetricsSnapshot twice = system.metrics_snapshot();
  EXPECT_EQ(twice.counter("cpu.retired"), 2 * once.counter("cpu.retired"));
  EXPECT_EQ(twice.counter("cpu.halts"), 2u);
  ASSERT_TRUE(system.restore_image(image).ok);
  EXPECT_EQ(system.metrics_snapshot().counter("cpu.retired"),
            twice.counter("cpu.retired"));
}

TEST(ObsSimSystem, UnopenableTracePathFailsTheBuild) {
  auto built = one_core("halt\n")
                   .trace("/nonexistent-dir-zz/out.jsonl")
                   .build();
  EXPECT_FALSE(built.ok());
  EXPECT_NE(built.error().find("trace"), std::string::npos);
}

TEST(ObsSimSystem, SoftwareOnlyDeadlockIsReported) {
  auto built = one_core("get r4, rfsl0\nhalt\n")
                   .deadlock_threshold(25)
                   .metrics()
                   .build();
  ASSERT_TRUE(built.ok()) << built.error();
  sim::SimSystem system = std::move(built).value();
  EXPECT_EQ(system.run(), core::StopReason::kDeadlock);
  const MetricsSnapshot snapshot = system.metrics_snapshot();
  EXPECT_EQ(snapshot.counter("engine.deadlocks"), 1u);
  EXPECT_EQ(snapshot.counter("cpu.stall_cycles"), 25u);
}

}  // namespace
}  // namespace mbcosim::obs
