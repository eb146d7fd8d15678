// Low-level model of the MB32 soft processor for the baseline simulator —
// the analog of simulating the vendor's MicroBlaze HDL model in ModelSim
// (the paper's Table I baseline). The architectural state lives in
// kernel signals (32 register nets, PC, MSR), every datapath operation is
// evaluated through the structural bit-level primitives (ripple-carry
// adders, barrel-shifter mux trees, a shift-add array multiplier), and
// the model advances through the event-driven kernel's delta cycles.
//
// Timing contract: the core is a multi-cycle behavioral model whose
// per-instruction cycle counts equal isa::base_latency plus one cycle per
// blocked FSL attempt — i.e. exactly the timing of the high-level ISS.
// This is what lets the test suite cross-validate the two simulators
// cycle-for-cycle (the paper's definition of high-level cycle accuracy
// demands that the high-level simulation match the low-level one).
//
// The BRAM contents and the FSL FIFO queues are shared behavioral state
// (an iss::LmbMemory and fsl::FslHub), as they would be `shared variable`
// arrays in a behavioral VHDL model.
#pragma once

#include <optional>
#include <vector>

#include "fsl/fsl_hub.hpp"
#include "isa/isa.hpp"
#include "iss/memory.hpp"
#include "rtl/kernel.hpp"
#include "rtl/primitives.hpp"

namespace mbcosim::rtlmodels {

class MbCoreRtl {
 public:
  MbCoreRtl(rtl::Simulator& sim, rtl::Net& clk, isa::CpuConfig config,
            iss::LmbMemory& memory, fsl::FslHub* fsl_hub);

  [[nodiscard]] bool halted() const noexcept { return halted_; }
  [[nodiscard]] bool illegal() const noexcept { return illegal_; }
  [[nodiscard]] Word reg_value(unsigned index) const;
  [[nodiscard]] Word msr_value() const {
    return static_cast<Word>(msr_->value());
  }
  [[nodiscard]] u64 instructions_retired() const noexcept {
    return instructions_;
  }

  void reset(Addr pc);

 private:
  void on_clock();
  void execute(const isa::Instruction& in);
  [[nodiscard]] rtl::LogicVector read_reg(unsigned index) const;
  void write_reg(unsigned index, const rtl::LogicVector& value);
  [[nodiscard]] rtl::LogicVector operand_b(const isa::Instruction& in) const;
  [[nodiscard]] bool carry() const { return (msr_->value() & 1u) != 0; }
  void set_msr_bits(bool carry_bit, bool fsl_error_bit);

  rtl::Simulator& sim_;
  rtl::Net& clk_;
  isa::CpuConfig config_;
  iss::LmbMemory& memory_;
  fsl::FslHub* fsl_hub_;

  std::vector<rtl::Net*> regs_;
  rtl::Net* pc_ = nullptr;
  rtl::Net* msr_ = nullptr;
  rtl::Net* halt_net_ = nullptr;
  // Datapath signals driven on every executed instruction (operand buses
  // and the ALU result), as in the core's netlist.
  rtl::Net* op_a_net_ = nullptr;
  rtl::Net* op_b_net_ = nullptr;
  rtl::Net* result_net_ = nullptr;

  bool halted_ = false;
  bool illegal_ = false;
  bool halt_pending_ = false;  ///< halting branch still burning latency
  unsigned wait_counter_ = 0;
  std::optional<u16> imm_prefix_;
  std::optional<Addr> delay_target_;
  u64 instructions_ = 0;
};

}  // namespace mbcosim::rtlmodels
