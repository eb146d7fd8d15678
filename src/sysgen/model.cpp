#include "sysgen/model.hpp"

#include <algorithm>
#include <unordered_map>

#include "ckpt/ckpt.hpp"

namespace mbcosim::sysgen {

// ----- Block base ----------------------------------------------------------

Block::Block(Model& model, std::string name)
    : model_(model), name_(std::move(name)) {}

Signal& Block::make_output(const std::string& suffix, FixFormat format) {
  Signal& signal = model_.make_signal(name_ + "." + suffix, format);
  signal.set_driver(this);
  outputs_.push_back(&signal);
  return signal;
}

void Block::lower(Lowering& lowering) {
  if (is_sequential()) {
    lowering.emit(Phase::kOutput,
                  {.code = OpCode::kOutputState, .ext = {.block = this}});
    lowering.emit(Phase::kLatch,
                  {.code = OpCode::kLatch, .ext = {.block = this}});
  } else {
    lowering.emit(Phase::kPropagate,
                  {.code = OpCode::kPropagate, .ext = {.block = this}});
  }
}

const Signal& Block::in(std::size_t index) const {
  if (index >= inputs_.size()) {
    throw SimError("Block '" + name_ + "': input index " +
                   std::to_string(index) + " out of range (" +
                   std::to_string(inputs_.size()) + " inputs)");
  }
  return *inputs_[index];
}

// ----- Model ----------------------------------------------------------------

Signal& Model::make_signal(std::string signal_name, FixFormat format) {
  if (find_signal(signal_name) != nullptr) {
    throw SimError("Model '" + name_ + "': duplicate signal '" + signal_name +
                   "'");
  }
  signals_.emplace_back(std::move(signal_name), format);
  return signals_.back();
}

void Model::elaborate() {
  if (elaborated_) return;
  for (const auto& block : blocks_) block->check();

  std::vector<Block*> sequential;
  std::vector<Block*> combinational;
  for (const auto& block : blocks_) {
    if (block->is_sequential()) {
      sequential.push_back(block.get());
    } else {
      combinational.push_back(block.get());
    }
  }

  // Kahn's algorithm over the combinational dependency graph: an edge
  // A -> B exists when combinational block B reads a signal driven by
  // combinational block A. Sequential drivers impose no ordering (their
  // outputs are valid from phase 0).
  std::unordered_map<Block*, std::vector<Block*>> consumers;
  std::unordered_map<Block*, unsigned> pending;
  for (Block* block : combinational) pending[block] = 0;
  for (Block* block : combinational) {
    for (const Signal* input : block->inputs()) {
      Block* driver = input->driver();
      if (driver != nullptr && !driver->is_sequential()) {
        consumers[driver].push_back(block);
        pending[block] += 1;
      }
    }
  }
  std::vector<Block*> ready;
  for (Block* block : combinational) {
    if (pending[block] == 0) ready.push_back(block);
  }
  std::vector<Block*> order;
  while (!ready.empty()) {
    Block* block = ready.back();
    ready.pop_back();
    order.push_back(block);
    for (Block* next : consumers[block]) {
      if (--pending[next] == 0) ready.push_back(next);
    }
  }
  if (order.size() != combinational.size()) {
    std::string cycle_members;
    for (Block* block : combinational) {
      if (pending[block] != 0) {
        if (!cycle_members.empty()) cycle_members += ", ";
        cycle_members += block->name();
      }
    }
    throw SimError("Model '" + name_ +
                   "': algebraic loop through combinational blocks: " +
                   cycle_members + " (insert a Delay or Register)");
  }

  // Sequential blocks emit their phase 0 and phase 2 ops in creation
  // order, combinational blocks their phase 1 ops in topological order.
  Lowering lowering;
  for (Block* block : sequential) block->lower(lowering);
  for (Block* block : order) block->lower(lowering);
  kernel_ = std::move(lowering).finish();
  elaborated_ = true;
}

void Model::reset() {
  for (auto& signal : signals_) signal.reset();
  for (const auto& block : blocks_) block->reset();
  cycle_ = 0;
  settled_ = false;
}

void Model::step() {
  if (!elaborated_) elaborate();
  // Signals are a function of state and inputs: unchanged state under
  // unchanged inputs repeats the last pass, so the pass is skipped.
  if (!settled()) settled_ = !kernel_.run();
  ++cycle_;
}

void Model::run(Cycle cycles) {
  for (Cycle i = 0; i < cycles; ++i) {
    step();
    if (settled()) {  // nothing sets the inputs in between
      cycle_ += cycles - i - 1;
      return;
    }
  }
}

ResourceVec Model::resources() const {
  ResourceVec total;
  for (const auto& block : blocks_) total += block->resources();
  return total;
}

Block* Model::find_block(const std::string& block_name) const {
  const auto it = std::find_if(
      blocks_.begin(), blocks_.end(),
      [&](const auto& block) { return block->name() == block_name; });
  return it == blocks_.end() ? nullptr : it->get();
}

void Model::save_state(ckpt::Writer& writer) const {
  writer.write_u64(cycle_);
  writer.write_u64(signals_.size());
  for (const Signal& signal : signals_) writer.write_i64(signal.raw());
  writer.write_u64(blocks_.size());
  for (const auto& block : blocks_) block->save_state(writer);
}

bool Model::load_state(ckpt::Reader& reader) {
  settled_ = false;
  cycle_ = reader.read_u64();
  if (reader.read_u64() != signals_.size()) return false;
  for (Signal& signal : signals_) signal.drive_raw(reader.read_i64());
  if (reader.read_u64() != blocks_.size()) return false;
  for (const auto& block : blocks_) {
    if (!block->load_state(reader)) return false;
  }
  return reader.ok();
}

Signal* Model::find_signal(const std::string& signal_name) const {
  for (const auto& signal : signals_) {
    if (signal.name() == signal_name) {
      return const_cast<Signal*>(&signal);
    }
  }
  return nullptr;
}

}  // namespace mbcosim::sysgen
