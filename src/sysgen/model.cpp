#include "sysgen/model.hpp"

#include <algorithm>
#include <functional>

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
  Signal& signal = signals_.emplace_back(std::move(signal_name), format);
  if (2 * signals_.size() > signal_index_.size()) {
    // Keep the index at most half full: double it, re-place every signal.
    signal_index_.assign(std::max<std::size_t>(16, 2 * signal_index_.size()),
                         nullptr);
    for (Signal& placed : signals_) {
      signal_index_[index_position(placed.name())] = &placed;
    }
  } else {
    signal_index_[index_position(signal.name())] = &signal;
  }
  return signal;
}

std::size_t Model::index_position(std::string_view signal_name) const {
  const std::size_t mask = signal_index_.size() - 1;
  std::size_t i = std::hash<std::string_view>{}(signal_name) & mask;
  while (signal_index_[i] != nullptr && signal_index_[i]->name() != signal_name) {
    i = (i + 1) & mask;
  }
  return i;
}

void Model::elaborate() {
  if (elaborated_) return;
  for (const auto& block : blocks_) block->check();

  // Kahn's algorithm over the combinational dependency graph: an edge
  // A -> B exists when combinational block B reads a signal driven by
  // combinational block A. Sequential drivers impose no ordering (their
  // outputs are valid from phase 0). Per-block vectors are indexed by
  // creation order; `first` and `consumers` hold each block's consumers.
  const std::size_t count = blocks_.size();
  std::vector<u8> sequential(count);
  for (std::size_t i = 0; i < count; ++i) {
    sequential[i] = blocks_[i]->is_sequential() ? 1 : 0;
  }
  auto combinational_driver = [&](const Signal* input) -> const Block* {
    const Block* driver = input->driver();
    return driver != nullptr && &driver->model_ == this &&
                   sequential[driver->ordinal_] == 0
               ? driver
               : nullptr;
  };
  std::vector<u32> pending(count, 0);
  std::vector<u32> first(count + 1, 0);
  for (std::size_t i = 0; i < count; ++i) {
    if (sequential[i] != 0) continue;
    for (const Signal* input : blocks_[i]->inputs()) {
      if (const Block* driver = combinational_driver(input)) {
        ++first[driver->ordinal_ + 1];
        ++pending[i];
      }
    }
  }
  for (std::size_t i = 0; i < count; ++i) first[i + 1] += first[i];
  std::vector<u32> consumers(first[count]);
  {
    std::vector<u32> fill(first.begin(), first.end() - 1);
    for (std::size_t i = 0; i < count; ++i) {
      if (sequential[i] != 0) continue;
      for (const Signal* input : blocks_[i]->inputs()) {
        if (const Block* driver = combinational_driver(input)) {
          consumers[fill[driver->ordinal_]++] = static_cast<u32>(i);
        }
      }
    }
  }
  std::vector<u32> ready;
  std::size_t combinational = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (sequential[i] != 0) continue;
    ++combinational;
    if (pending[i] == 0) ready.push_back(static_cast<u32>(i));
  }
  std::vector<Block*> order;
  order.reserve(combinational);
  while (!ready.empty()) {
    const u32 block = ready.back();
    ready.pop_back();
    order.push_back(blocks_[block].get());
    for (u32 e = first[block]; e < first[block + 1]; ++e) {
      if (--pending[consumers[e]] == 0) ready.push_back(consumers[e]);
    }
  }
  if (order.size() != combinational) {
    std::string cycle_members;
    for (std::size_t i = 0; i < count; ++i) {
      if (sequential[i] == 0 && pending[i] != 0) {
        if (!cycle_members.empty()) cycle_members += ", ";
        cycle_members += blocks_[i]->name();
      }
    }
    throw SimError("Model '" + name_ +
                   "': algebraic loop through combinational blocks: " +
                   cycle_members + " (insert a Delay or Register)");
  }

  // Sequential blocks emit their phase 0 and phase 2 ops in creation
  // order, combinational blocks their phase 1 ops in topological order.
  Lowering lowering;
  for (std::size_t i = 0; i < count; ++i) {
    if (sequential[i] != 0) lowering.lower(*blocks_[i]);
  }
  for (Block* block : order) lowering.lower(*block);
  kernel_ = std::move(lowering).finish();
  elaborated_ = true;
}

void Model::reset() {
  for (auto& signal : signals_) signal.reset();
  for (const auto& block : blocks_) block->reset();
  cycle_ = 0;
  kernel_.invalidate();
}

void Model::step() {
  if (!elaborated_) elaborate();
  if (!settled()) kernel_.run();
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
  kernel_.invalidate();
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
  return signal_index_.empty()
             ? nullptr
             : signal_index_[index_position(signal_name)];
}

}  // namespace mbcosim::sysgen
