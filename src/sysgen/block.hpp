// Base class of every hardware block in the sysgen framework — the analog
// of a System Generator block-set element (paper Section II: designers
// "assemble designs by dragging and dropping the blocks from the block
// set ... and connecting them"). Our API replaces the GUI with builder
// code; the simulation semantics are the same synchronous cycle-based
// dataflow:
//
//   phase 0  output_state(): sequential blocks drive their outputs from
//            internal state (registers are Moore machines);
//   phase 1  propagate():    combinational blocks evaluate in topological
//            order (algebraic loops are rejected at elaboration);
//   phase 2  latch():        sequential blocks capture their inputs.
//
// A block is sequential iff is_sequential() returns true; it then
// participates in phases 0/2 and must not implement propagate().
//
// Model::elaborate() compiles the graph into a flat op tape (kernel.hpp)
// by calling lower() on every block. The built-in blocks lower to ops over
// raw slots and implement none of the phase methods (except the
// queue-backed FifoBlock). A user block keeps the default lower(), which
// runs its phase methods through one fallback op per phase it takes part
// in: output_state() and latch() when it is sequential, propagate() when
// it is not. Its phase methods must be functions of its inputs and its
// own state — output_state() of its own state alone — and its state may
// change only in latch() (or in reset() and load_state()). The kernel
// runs a block's ops only when its region is pending (kernel.hpp): when
// an input it reads changed, or when its latch_changed() reported a
// change on the last cycle. A sequential block that reports unchanged
// latches therefore lets its region rest and its model elide repeated
// cycles.
#pragma once

#include <string>
#include <vector>

#include "common/resources.hpp"
#include "sysgen/kernel.hpp"
#include "sysgen/signal.hpp"

namespace mbcosim::ckpt {
class Writer;
class Reader;
}  // namespace mbcosim::ckpt

namespace mbcosim::sysgen {

class Model;

class Block {
 public:
  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;
  virtual ~Block() = default;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  [[nodiscard]] virtual bool is_sequential() const { return false; }

  /// Phase 0: drive outputs from state (sequential blocks only).
  virtual void output_state() {}
  /// Phase 1: combinational evaluation (combinational blocks only).
  virtual void propagate() {}
  /// Phase 2: capture inputs into state (sequential blocks only).
  virtual void latch() {}
  /// Whether the last latch() may have changed the state output_state()
  /// or latch() reads. True runs the block again on the next cycle; false
  /// lets it rest until an input changes, and lets the model skip the
  /// cycles that provably repeat the last one (DESIGN.md §15). The
  /// default, true, keeps the block and its model evaluated every cycle.
  [[nodiscard]] virtual bool latch_changed() const { return true; }
  /// Return all state to power-on values.
  virtual void reset() {}

  /// Append this block's ops to the kernel being built (called once, at
  /// elaboration). The default emits the fallback ops described above.
  virtual void lower(Lowering& lowering);

  /// Structural validation hook, run at elaboration; throw SimError to
  /// reject an incompletely wired block.
  virtual void check() const {}

  /// Estimated FPGA resources of the low-level implementation this block
  /// abstracts; the per-block figures feed the rapid resource estimator
  /// (paper Section III-C).
  [[nodiscard]] virtual ResourceVec resources() const { return {}; }

  /// Checkpoint hooks (DESIGN.md §11). Blocks whose behaviour depends on
  /// anything beyond their input signals — register contents, pipeline
  /// stages, FIFO queues, counters — must serialize that state here;
  /// purely combinational blocks inherit the empty defaults. Model
  /// serializes signal values and calls the blocks in creation order.
  virtual void save_state(ckpt::Writer&) const {}
  [[nodiscard]] virtual bool load_state(ckpt::Reader&) { return true; }

  [[nodiscard]] const std::vector<Signal*>& inputs() const noexcept {
    return inputs_;
  }
  [[nodiscard]] const std::vector<Signal*>& outputs() const noexcept {
    return outputs_;
  }

 protected:
  Block(Model& model, std::string name);

  /// Create and take ownership of an output signal named
  /// "<block>.<suffix>".
  Signal& make_output(const std::string& suffix, FixFormat format);

  /// Register an input connection.
  void connect_input(Signal& signal) { inputs_.push_back(&signal); }

  /// Input accessor with a bounds check that reports the block name.
  [[nodiscard]] const Signal& in(std::size_t index) const;

  Model& model_;

 private:
  friend class Model;

  std::string name_;
  std::vector<Signal*> inputs_;
  std::vector<Signal*> outputs_;
  std::size_t ordinal_ = 0;  ///< position in the model's creation order
};

}  // namespace mbcosim::sysgen
