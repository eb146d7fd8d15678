// Nios-style instruction-set customization (paper Section I: "soft
// processors are configurable by allowing the customization of the
// instruction set... The Nios processor allows users to customize up to
// five instructions"). This example accelerates a population-count
// workload by registering a custom popcount datapath and compares it, in
// time and resources, against the software bit loop — the same style of
// trade-off exploration as the paper's peripherals, but on the
// instruction-set axis.
//
// Build & run:   ./build/examples/custom_instruction
#include <bit>
#include <cstdio>

#include "estimate/estimator.hpp"
#include "machine/machine_desc.hpp"
#include "sim/sim_system.hpp"

using namespace mbcosim;

namespace {

constexpr unsigned kWords = 64;

std::string data_section();

std::string software_program() {
  return R"(
    start:
      la r10, data
      la r11, counts
      li r12, 64
    word_loop:
      lwi r3, r10, 0
      addk r4, r0, r0
      li r7, 32
    bit_loop:
      andi r5, r3, 1
      addk r4, r4, r5
      srl r3, r3
      addik r7, r7, -1
      bnei r7, bit_loop
      swi r4, r11, 0
      addik r10, r10, 4
      addik r11, r11, 4
      addik r12, r12, -1
      bnei r12, word_loop
      halt
  )" + data_section();
}

std::string custom_program() {
  return R"(
    start:
      la r10, data
      la r11, counts
      li r12, 64
    word_loop:
      lwi r3, r10, 0
      cust0 r4, r3, r0
      swi r4, r11, 0
      addik r10, r10, 4
      addik r11, r11, 4
      addik r12, r12, -1
      bnei r12, word_loop
      halt
  )" + data_section();
}

std::string data_section() {
  std::string out = "data:\n";
  u32 value = 0x13579BDF;
  for (unsigned i = 0; i < kWords; ++i) {
    char line[48];
    std::snprintf(line, sizeof line, "  .word 0x%08x\n", value);
    out += line;
    value = value * 2654435761u + 12345u;
  }
  out += "counts: .space " + std::to_string(kWords * 4) + "\n";
  return out;
}

struct RunOutcome {
  Cycle cycles;
  std::vector<Word> counts;
};

RunOutcome run(const std::string& source, bool with_custom_unit) {
  auto built = sim::SimSystem::Builder()
                   .machine(machine::MachineDesc::single_core(source))
                   .build();
  if (!built) throw SimError(built.error());
  sim::SimSystem system = std::move(built).value();
  if (with_custom_unit) {
    iss::CustomInstruction unit;
    unit.name = "popcount";
    unit.compute = [](Word a, Word) {
      return static_cast<Word>(std::popcount(a));
    };
    unit.latency = 2;                        // adder-tree datapath
    unit.resources = ResourceVec{42, 0, 0};  // ~32 LUT compressor tree
    system.cpu().register_custom_instruction(0, unit);
  }
  if (system.run() != core::StopReason::kHalted) {
    throw SimError("program did not halt");
  }
  RunOutcome outcome;
  outcome.cycles = system.stats().cycles;
  for (unsigned i = 0; i < kWords; ++i) {
    outcome.counts.push_back(system.word("counts", i));
  }
  return outcome;
}

}  // namespace

int main() {
  const RunOutcome software = run(software_program(), false);
  const RunOutcome custom = run(custom_program(), true);

  if (software.counts != custom.counts) {
    std::printf("MISMATCH between software and custom results!\n");
    return 1;
  }

  std::printf("popcount of %u words on the soft processor:\n", kWords);
  std::printf("  software bit loop:   %8llu cycles (%.1f usec)\n",
              static_cast<unsigned long long>(software.cycles),
              cycles_to_usec(software.cycles));
  std::printf("  cust0 instruction:   %8llu cycles (%.1f usec)  -> %.1fx\n",
              static_cast<unsigned long long>(custom.cycles),
              cycles_to_usec(custom.cycles),
              double(software.cycles) / double(custom.cycles));

  estimate::SystemDescription base;
  estimate::SystemDescription customized = base;
  customized.custom_instructions.push_back(ResourceVec{42, 0, 0});
  std::printf("  resource cost of the unit: %u -> %u slices\n",
              estimate::estimate_system(base).estimated.slices,
              estimate::estimate_system(customized).estimated.slices);
  return 0;
}
