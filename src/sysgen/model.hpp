// Model: a complete hardware design (the contents of one System Generator
// sheet) plus its cycle-based scheduler. The co-simulation engine drives
// the customized hardware peripherals by calling step() once per simulated
// clock cycle (paper Section III-A: "whenever there is data coming from
// the processor, simulation of these hardware designs is carried out
// within the Simulink modeling environment"). A step re-evaluates only
// the regions of the design whose inputs or state changed (kernel.hpp),
// and costs nothing once the design has settled.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <string_view>
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
    ref.Block::ordinal_ = blocks_.size();
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

  /// Advance one clock cycle: one pass over the regions of the op tape
  /// whose inputs or state changed (phases 0/1/2; every region after
  /// elaborate(), reset() and load_state()), or none when the cycle
  /// provably repeats the last one (settled()).
  void step();
  /// Advance n cycles; once the model settles, the rest cost nothing.
  void run(Cycle cycles);

  /// True when the next step() would repeat the last one exactly: no
  /// region is pending — so the last step changed no state — and the
  /// gateway inputs have not been set to new values since. Between steps
  /// only the GatewayIn setters, reset() and load_state() may write model
  /// state.
  [[nodiscard]] bool settled() const noexcept { return kernel_.settled(); }

  [[nodiscard]] Cycle cycle() const noexcept { return cycle_; }

  [[nodiscard]] std::size_t block_count() const noexcept {
    return blocks_.size();
  }
  [[nodiscard]] std::size_t signal_count() const noexcept {
    return signals_.size();
  }
  /// Regions the elaborated op tape is partitioned into (DESIGN.md §15).
  [[nodiscard]] std::size_t region_count() const noexcept {
    return kernel_.region_count();
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
  /// The index entry holding the signal named `signal_name`, or the free
  /// entry where it would go. The index must not be empty.
  [[nodiscard]] std::size_t index_position(std::string_view signal_name) const;

  std::string name_;
  std::vector<std::unique_ptr<Block>> blocks_;
  std::deque<Signal> signals_;  // deque: stable addresses for the ops
  /// Signals by name, by open addressing on the names' hashes; free
  /// entries are null, and at most half the entries are taken.
  std::vector<Signal*> signal_index_;
  Kernel kernel_;
  bool elaborated_ = false;
  Cycle cycle_ = 0;
};

}  // namespace mbcosim::sysgen
