// Driving a system through the debugger's textual verbs — the analog of
// the paper's mb-gdb-in-a-TCL-pipe arrangement (Section III-A), where the
// MicroBlaze Simulink block sends commands to inspect and modify the
// processor state while the simulation runs. The same verbs answer gdb's
// `monitor` command on a live debug session.
//
// Build & run:   ./build/examples/debugger_session
// Its stdout is checked against examples/debugger_session.expected.
#include <cstdio>
#include <utility>

#include "asm/objdump.hpp"
#include "machine/machine_desc.hpp"
#include "rsp/cosim_target.hpp"
#include "sim/sim_system.hpp"

using namespace mbcosim;

int main() {
  const char* kSource = R"(
    start:
      li   r3, 10          # n = 10
      addk r4, r0, r0      # sum = 0
    loop:
      addk r4, r4, r3
      addik r3, r3, -1
      bnei r3, loop
      swi  r4, r0, result
      halt
    result: .space 4
  )";
  auto built = sim::SimSystem::Builder()
                   .machine(machine::MachineDesc::single_core(kSource))
                   .build();
  if (!built) {
    std::fprintf(stderr, "%s\n", built.error().c_str());
    return 1;
  }
  sim::SimSystem system = std::move(built).value();

  std::printf("disassembly (mb-objdump analog):\n%s\n",
              assembler::listing(system.program()).c_str());

  rsp::CoSimTarget debugger(*system.machine_engine(), 0);

  // A scripted debug session, exactly the command traffic the Simulink
  // block exchanges with the simulator.
  const char* kSession[] = {
      "break 0x8",      // stop at the loop head
      "cont",           // run to it
      "reg r3",         // inspect the counter
      "reg r4",
      "setreg r3 3",    // shorten the loop from the outside
      "delete 0x8",
      "cont",           // run to completion
      "reg r4",         // the (modified) sum
      "cycles",
  };
  for (const char* command : kSession) {
    std::printf("(mb-gdb) %-16s -> %s\n", command,
                debugger.monitor(command).c_str());
  }

  std::printf("\nmemory[result] = %u (sum of 3..1 is 6 after the poke)\n",
              system.word("result"));
  return 0;
}
