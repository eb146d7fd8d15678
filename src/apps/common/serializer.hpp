// VectorSerializer: a user-defined ("black box") block that streams a
// vector of parallel values into an FSL master interface one word per
// cycle. When `valid` is high it latches all data inputs; on following
// cycles it emits them in order on (data, write), respecting `full`.
// Both applications use it as the hardware-to-processor output stage:
// the CORDIC pipeline emits (X, Y, Z) per result, the matmul peripheral
// emits one row of the block product.
//
// It lowers into native ops (DESIGN.md §15): phase 0 copies the queue's
// front word and its busy bit onto (data, write), and one kSerialize op
// in phase 2 pops the word the FIFO took and pushes the captured vector.
// The queue is a sysgen::SerialQueue inside the block, its front and busy
// slots in the model's arena; its backlog is unbounded, so words captured
// while `full` holds wait in it.
#pragma once

#include <utility>
#include <vector>

#include "sysgen/block.hpp"
#include "sysgen/blocks_basic.hpp"
#include "sysgen/model.hpp"

namespace mbcosim::apps {

class VectorSerializer : public sysgen::Block {
 public:
  /// `values` are the parallel inputs (latched when `valid` is high);
  /// `full` is the downstream FIFO's full flag (may be null when the data
  /// sets are sized so the FIFO can never fill, as in the paper §IV-A).
  VectorSerializer(sysgen::Model& model, std::string name,
                   std::vector<sysgen::Signal*> values, sysgen::Signal& valid,
                   sysgen::Signal* full = nullptr)
      : Block(model, std::move(name)),
        word_format_(values.empty() ? FixFormat{} : values.front()->format()),
        data_(make_output("data", word_format_)),
        write_(make_output("write", FixFormat::unsigned_fix(1, 0))) {
    if (values.empty()) {
      throw SimError("VectorSerializer '" + this->name() + "': no inputs");
    }
    for (sysgen::Signal* signal : values) {
      if (signal->format() != word_format_) {
        throw SimError("VectorSerializer '" + this->name() +
                       "': mixed input formats");
      }
      connect_input(*signal);
      queue_.values.push_back(signal->slot());
    }
    queue_.front = model.make_slots(2);
    queue_.busy = queue_.front + 1;
    width_ = values.size();
    connect_input(valid);  // input index width_
    if (full != nullptr) {
      has_full_ = true;
      connect_input(*full);  // input index width_ + 1
    }
  }

  [[nodiscard]] bool is_sequential() const override { return true; }

  void lower(sysgen::Lowering& lowering) override {
    using sysgen::OpCode;
    using sysgen::Phase;
    lowering.emit(Phase::kOutput, {.code = OpCode::kCopy,
                                   .dst = data_.slot(),
                                   .a = queue_.front});
    lowering.emit(Phase::kOutput, {.code = OpCode::kCopy,
                                   .dst = write_.slot(),
                                   .a = queue_.busy});
    lowering.emit(Phase::kLatch,
                  {.code = OpCode::kSerialize,
                   .ext = lowering.queue(queue_),
                   .a = inputs()[width_]->slot(),
                   .b = has_full_ ? inputs()[width_ + 1]->slot()
                                  : sysgen::Lowering::zero()});
  }

  void reset() override {
    queue_.words.clear();
    queue_.refresh(&model_.slot(0));
  }

  void save_state(ckpt::Writer& writer) const override {
    writer.write_u64(queue_.words.size());
    for (const i64 word : queue_.words) writer.write_i64(word);
  }
  [[nodiscard]] bool load_state(ckpt::Reader& reader) override {
    const u64 backlog = reader.read_u64();
    if (!reader.ok()) return false;
    queue_.words.clear();
    for (u64 i = 0; i < backlog; ++i) {
      queue_.words.push_back(data_.wrap(reader.read_i64()));
    }
    queue_.refresh(&model_.slot(0));
    return reader.ok();
  }

  [[nodiscard]] ResourceVec resources() const override {
    // Holding registers for each word plus a small output state machine.
    const auto width_bits = static_cast<u32>(word_format_.word_bits);
    return ResourceVec{
        static_cast<u32>(width_) * sysgen::slices_for_register(width_bits) + 4,
        0, 0};
  }

  [[nodiscard]] sysgen::Signal& data() noexcept { return data_; }
  [[nodiscard]] sysgen::Signal& write() noexcept { return write_; }
  [[nodiscard]] std::size_t backlog() const noexcept {
    return queue_.words.size();
  }

 private:
  FixFormat word_format_;
  sysgen::Signal& data_;
  sysgen::Signal& write_;
  std::size_t width_ = 0;
  bool has_full_ = false;
  sysgen::SerialQueue queue_;  ///< raw codes in word_format_
};

}  // namespace mbcosim::apps
