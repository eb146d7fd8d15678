// Model: a complete hardware design (the contents of one System Generator
// sheet) plus its cycle-based scheduler. The co-simulation engine drives
// the customized hardware peripherals by calling step() once per simulated
// clock cycle (paper Section III-A: "whenever there is data coming from
// the processor, simulation of these hardware designs is carried out
// within the Simulink modeling environment").
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/resources.hpp"
#include "common/types.hpp"
#include "sysgen/block.hpp"
#include "sysgen/kernel.hpp"
#include "sysgen/signal.hpp"

namespace mbcosim::sysgen {

class Model {
 public:
  explicit Model(std::string name) : name_(std::move(name)) {}
  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Construct a block in place; the model owns it.
  template <typename BlockType, typename... Args>
  BlockType& add(Args&&... args) {
    if (elaborated_) {
      throw SimError("Model '" + name_ + "': cannot add blocks after "
                     "elaboration");
    }
    auto block = std::make_unique<BlockType>(*this, std::forward<Args>(args)...);
    BlockType& ref = *block;
    blocks_.push_back(std::move(block));
    return ref;
  }

  /// Create a named signal owned by the model (blocks normally create
  /// their outputs through Block::make_output, which calls this).
  Signal& make_signal(std::string signal_name, FixFormat format);

  /// Freeze the graph: order combinational blocks topologically, reject
  /// algebraic loops, and lower every block into the kernel's op tape
  /// (block formats are checked here, once). Called automatically by the
  /// first step().
  void elaborate();
  [[nodiscard]] bool elaborated() const noexcept { return elaborated_; }

  /// Reset every block and signal; keeps the elaboration.
  void reset();

  /// Advance one clock cycle: one pass over the op tape (phases 0/1/2),
  /// or none when the cycle provably repeats the last one (settled()).
  void step();
  /// Advance n cycles; once the model settles, the rest cost nothing.
  void run(Cycle cycles);

  /// True when the next step() would repeat the last one exactly: that
  /// step changed no state and the gateway inputs have not been set to
  /// new values since. Between steps only the GatewayIn setters, reset()
  /// and load_state() may write model state.
  [[nodiscard]] bool settled() const noexcept {
    return settled_ && kernel_.inputs_unchanged();
  }

  [[nodiscard]] Cycle cycle() const noexcept { return cycle_; }

  [[nodiscard]] std::size_t block_count() const noexcept {
    return blocks_.size();
  }
  [[nodiscard]] std::size_t signal_count() const noexcept {
    return signals_.size();
  }

  /// Sum of the per-block resource estimates (the System Generator
  /// "resource estimator" analog, paper Section II).
  [[nodiscard]] ResourceVec resources() const;

  /// Look up a block / signal by full name; nullptr when absent.
  [[nodiscard]] Block* find_block(const std::string& block_name) const;
  [[nodiscard]] Signal* find_signal(const std::string& signal_name) const;

  [[nodiscard]] const std::vector<std::unique_ptr<Block>>& blocks()
      const noexcept {
    return blocks_;
  }

  /// Checkpoint the model: clock cycle, every signal's raw value and
  /// every block's internal state, in creation order (block and signal
  /// counts double as shape checks). load_state returns false when the
  /// snapshot was taken from a differently-shaped design.
  void save_state(ckpt::Writer& writer) const;
  [[nodiscard]] bool load_state(ckpt::Reader& reader);

 private:
  std::string name_;
  std::vector<std::unique_ptr<Block>> blocks_;
  std::deque<Signal> signals_;  // deque: stable addresses for the ops
  Kernel kernel_;
  bool elaborated_ = false;
  bool settled_ = false;  ///< the last pass changed no state
  Cycle cycle_ = 0;
};

}  // namespace mbcosim::sysgen
