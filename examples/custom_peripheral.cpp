// Building your own customized hardware peripheral: a streaming
// fixed-point moving-average filter (window of 4) attached to the soft
// processor over an FSL, in the style of the paper's design flow —
// describe the datapath with sysgen blocks, bind the FSL gateways, write
// the driver software, co-simulate, and read off the rapid resource
// estimate for the design-space exploration loop.
//
// NOTE: this example deliberately stays on the LOW-LEVEL API — it wires
// LmbMemory, FslHub, Processor and CoSimEngine by hand — to show what
// the sim::SimSystem facade (see examples/quickstart.cpp) does for you
// and which pieces you can rearrange when the facade's shape does not
// fit (extra buses, several processors, custom run loops).
//
// Build & run:   ./build/examples/custom_peripheral
#include <cstdio>
#include <vector>

#include "asm/assembler.hpp"
#include "core/cosim_engine.hpp"
#include "estimate/estimator.hpp"
#include "sysgen/blocks_basic.hpp"

using namespace mbcosim;
namespace sg = mbcosim::sysgen;

namespace {

/// Everything needed to co-simulate the filter.
struct FilterDesign {
  sg::Model model{"moving_average4"};
  core::FslPort port;  ///< the FSL gateways, on channel 0
};

/// y[n] = (x[n] + x[n-1] + x[n-2] + x[n-3]) >> 2, in Fix16_8.
void build_filter(FilterDesign& d) {
  sg::Model& m = d.model;
  const FixFormat kSample = FixFormat::signed_fix(16, 8);
  const FixFormat kSum = FixFormat::signed_fix(18, 8);
  const FixFormat kBool = FixFormat::unsigned_fix(1, 0);

  core::FslPort& io = d.port;
  io.s_data = &m.add<sg::GatewayIn>("fsl.data", kSample);
  io.s_exists = &m.add<sg::GatewayIn>("fsl.exists", kBool);
  io.s_control = &m.add<sg::GatewayIn>("fsl.control", kBool);
  io.s_read = &m.add<sg::GatewayOut>("fsl.read", io.s_exists->out());

  // Tap delay line, clocked only when a sample arrives (enable = exists).
  const Fix zero = Fix::from_raw(kSample, 0);
  auto& tap1 = m.add<sg::Register>("tap1", io.s_data->out(), zero,
                                   &io.s_exists->out());
  auto& tap2 = m.add<sg::Register>("tap2", tap1.out(), zero,
                                   &io.s_exists->out());
  auto& tap3 = m.add<sg::Register>("tap3", tap2.out(), zero,
                                   &io.s_exists->out());

  // Adder tree and scale.
  auto& sum01 = m.add<sg::AddSub>("sum01", sg::AddSub::Mode::kAdd,
                                  io.s_data->out(), tap1.out(), kSum);
  auto& sum23 = m.add<sg::AddSub>("sum23", sg::AddSub::Mode::kAdd, tap2.out(),
                                  tap3.out(), kSum);
  auto& total = m.add<sg::AddSub>("total", sg::AddSub::Mode::kAdd,
                                  sum01.out(), sum23.out(), kSum);
  auto& scaled = m.add<sg::ShiftConst>(
      "scale", total.out(), sg::ShiftConst::Direction::kRightArithmetic, 2);
  auto& out16 = m.add<sg::Convert>("out16", scaled.out(), kSample);

  io.m_data = &m.add<sg::GatewayOut>("fsl.dout", out16.out());
  io.m_write = &m.add<sg::GatewayOut>("fsl.write", io.s_exists->out());
}

}  // namespace

int main() {
  FilterDesign filter;
  build_filter(filter);

  // Rapid resource estimation before committing to the design (§III-C).
  estimate::SystemDescription system;
  system.fsl_links_used = 2;
  system.peripheral = &filter.model;
  const auto report = estimate::estimate_system(system);
  std::printf("design-space check -- %s:\n%s\n", filter.model.name().c_str(),
              report.to_string().c_str());

  // Driver software: push a step input, read filtered samples back.
  const char* kSource = R"(
    start:
      la r5, samples
      la r6, filtered
      li r7, 12
    loop:
      lwi r3, r5, 0
      put r3, rfsl0
      get r4, rfsl0
      swi r4, r6, 0
      addik r5, r5, 4
      addik r6, r6, 4
      addik r7, r7, -1
      bnei r7, loop
      halt
    # A step from 0 to 256.0 (raw 0x100 << 8 = 0x10000... use 1.0 = 0x100).
    samples: .word 0, 0, 0, 0x100, 0x100, 0x100, 0x100, 0x100, 0x100, 0, 0, 0
    filtered: .space 48
  )";
  const auto program = assembler::assemble_or_throw(kSource);

  iss::LmbMemory memory;
  memory.load_program(program);
  fsl::FslHub hub;
  iss::Processor cpu(isa::CpuConfig{}, memory, &hub);
  core::CoSimEngine engine(cpu, &filter.model, hub);

  if (const Status bound = engine.bridge().bind(filter.port); !bound.ok) {
    std::printf("binding failed: %s\n", bound.message.c_str());
    return 1;
  }

  engine.reset(program.entry());
  if (engine.run() != core::StopReason::kHalted) {
    std::printf("co-simulation failed\n");
    return 1;
  }

  std::printf("step response of the moving-average filter (Fix16_8):\n  ");
  const Addr filtered = program.symbol("filtered");
  const FixFormat kSample = FixFormat::signed_fix(16, 8);
  for (unsigned i = 0; i < 12; ++i) {
    const auto raw = static_cast<i64>(
        static_cast<i16>(memory.read_word(filtered + 4 * i)));
    std::printf("%.2f ", Fix::from_raw(kSample, raw).to_double());
  }
  std::printf("\n(expected ramp 0, 0, 0, 0.25, 0.5, 0.75, 1.0, ... as the "
              "window fills)\n");
  return 0;
}
