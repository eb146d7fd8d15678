// Memory blocks: ROM, single-port RAM and a synchronous FIFO — the BRAM-
// backed members of the block set. Resource figures model Virtex-II Pro
// 18 Kbit block RAMs; small memories map to distributed (slice) RAM.
// ROM and RAM lower to kernel ops over raw words in the model's arena;
// the queue-backed FIFO runs its phase methods on the kernel's fallback
// ops.
#pragma once

#include <algorithm>
#include <deque>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/bits.hpp"
#include "sysgen/block.hpp"
#include "sysgen/blocks_basic.hpp"
#include "sysgen/model.hpp"

namespace mbcosim::sysgen {

namespace detail {
/// BRAMs for a depth x width memory; memories of at most 64 entries map
/// to distributed RAM (reported as slices instead).
inline ResourceVec memory_resources(std::size_t depth, unsigned width_bits) {
  ResourceVec r;
  if (depth <= 64) {
    r.slices = ceil_div(static_cast<u32>(depth * width_bits), 32u);
    return r;
  }
  constexpr u32 kBramBits = 18 * 1024;
  r.brams = ceil_div(static_cast<u32>(depth * width_bits), kBramBits);
  return r;
}
}  // namespace detail

/// ROM: synchronous read, one-cycle latency (BRAM output register).
class Rom : public Block {
 public:
  Rom(Model& model, std::string name, Signal& address,
      const std::vector<Fix>& contents)
      : Block(model, std::move(name)),
        out_(make_output("data", contents.empty()
                                     ? FixFormat{}
                                     : contents.front().format())),
        size_(contents.size()),
        state_(model.make_slots(1)) {
    if (contents.empty()) {
      throw SimError("Rom '" + this->name() + "': empty contents");
    }
    for (const Fix& word : contents) {
      if (word.format() != out_.format()) {
        throw SimError("Rom '" + this->name() + "': mixed word formats");
      }
    }
    words_ = model.make_slots(size_);
    std::ranges::transform(contents, model.slots(words_, size_).begin(),
                           [](const Fix& word) { return word.raw(); });
    connect_input(address);
  }

  [[nodiscard]] bool is_sequential() const override { return true; }
  void lower(Lowering& lowering) override {
    lowering.emit(Phase::kOutput,
                  {.code = OpCode::kCopy, .dst = out_.slot(), .a = state_});
    // An out-of-range address reads the last word.
    lowering.emit(Phase::kLatch,
                  {.code = OpCode::kRom,
                   .ext = words_,
                   .k = static_cast<i64>(size_) - 1,
                   .dst = state_,
                   .a = in(0).slot()});
  }
  void reset() override { model_.slot(state_) = 0; }

  void save_state(ckpt::Writer& writer) const override {
    writer.write_i64(model_.slot(state_));
  }
  [[nodiscard]] bool load_state(ckpt::Reader& reader) override {
    model_.slot(state_) = out_.wrap(reader.read_i64());
    return reader.ok();
  }

  [[nodiscard]] ResourceVec resources() const override {
    return detail::memory_resources(size_, out_.format().word_bits);
  }

  [[nodiscard]] Signal& out() noexcept { return out_; }

 private:
  Signal& out_;
  std::size_t size_;
  u32 state_;
  u32 words_ = 0;  ///< the first of size_ slots
};

/// Single-port RAM: synchronous write, synchronous read (read-before-
/// write port behaviour, like a BRAM in READ_FIRST mode). Written data is
/// cast (truncate, wrap) into the word format.
class SinglePortRam : public Block {
 public:
  SinglePortRam(Model& model, std::string name, std::size_t depth,
                FixFormat word_format, Signal& address, Signal& data_in,
                Signal& write_enable)
      : Block(model, std::move(name)),
        depth_(depth),
        cells_(model.make_slots(depth)),
        state_(model.make_slots(1)),
        out_(make_output("data", word_format)) {
    if (depth == 0) {
      throw SimError("SinglePortRam '" + this->name() + "': zero depth");
    }
    connect_input(address);
    connect_input(data_in);
    connect_input(write_enable);
  }

  [[nodiscard]] bool is_sequential() const override { return true; }
  void lower(Lowering& lowering) override {
    const FixFormat word = out_.format();
    lowering.emit(Phase::kOutput,
                  {.code = OpCode::kCopy, .dst = out_.slot(), .a = state_});
    // An out-of-range address uses the last cell.
    lowering.emit(
        Phase::kLatch,
        {.code = OpCode::kRam,
         .ext = cells_,
         .wrap = Wrap::into(word, int(word.frac_bits) -
                                      int(in(1).format().frac_bits)),
         .k = static_cast<i64>(depth_) - 1,
         .dst = state_,
         .a = in(0).slot(),
         .b = in(1).slot(),
         .c = in(2).slot()});
  }
  void reset() override {
    std::ranges::fill(cells(), 0);
    model_.slot(state_) = 0;
  }

  void save_state(ckpt::Writer& writer) const override {
    writer.write_u64(depth_);
    for (const i64 cell : cells()) writer.write_i64(cell);
    writer.write_i64(model_.slot(state_));
  }
  [[nodiscard]] bool load_state(ckpt::Reader& reader) override {
    if (reader.read_u64() != depth_) return false;
    for (i64& cell : cells()) cell = out_.wrap(reader.read_i64());
    model_.slot(state_) = out_.wrap(reader.read_i64());
    return reader.ok();
  }

  [[nodiscard]] ResourceVec resources() const override {
    return detail::memory_resources(depth_, out_.format().word_bits);
  }

  [[nodiscard]] Signal& out() noexcept { return out_; }
  /// Debug peek for tests.
  [[nodiscard]] Fix cell(std::size_t index) const {
    if (index >= depth_) {
      throw std::out_of_range("SinglePortRam '" + name() + "': cell " +
                              std::to_string(index));
    }
    return Fix::from_raw(out_.format(), cells()[index]);
  }

 private:
  [[nodiscard]] std::span<i64> cells() const {
    return model_.slots(cells_, depth_);
  }

  std::size_t depth_;
  u32 cells_;  ///< the first of depth_ slots
  u32 state_;
  Signal& out_;
};

/// Synchronous FIFO with write/read enables and full/empty flags — the
/// hardware-side equivalent of the FSL FIFO buffer.
class FifoBlock : public Block {
 public:
  FifoBlock(Model& model, std::string name, std::size_t depth,
            FixFormat word_format, Signal& data_in, Signal& write_enable,
            Signal& read_enable)
      : Block(model, std::move(name)),
        depth_(depth),
        word_format_(word_format),
        data_out_(make_output("dout", word_format)),
        empty_(make_output("empty", FixFormat::unsigned_fix(1, 0))),
        full_(make_output("full", FixFormat::unsigned_fix(1, 0))),
        head_(Fix::from_raw(word_format, 0)) {
    if (depth_ == 0) {
      throw SimError("FifoBlock '" + this->name() + "': zero depth");
    }
    connect_input(data_in);
    connect_input(write_enable);
    connect_input(read_enable);
  }

  [[nodiscard]] bool is_sequential() const override { return true; }

  void output_state() override {
    data_out_.drive(fifo_.empty() ? head_ : fifo_.front());
    empty_.drive_raw(fifo_.empty() ? 1 : 0);
    full_.drive_raw(fifo_.size() >= depth_ ? 1 : 0);
  }
  void latch() override {
    changed_ = in(2).as_bool() && !fifo_.empty();
    if (changed_) fifo_.pop_front();
    if (in(1).as_bool() && fifo_.size() < depth_) {
      changed_ = true;
      fifo_.push_back(in(0).value().cast(word_format_));
    }
  }
  /// Nothing popped and nothing pushed leaves the queue as it was.
  [[nodiscard]] bool latch_changed() const override { return changed_; }
  void reset() override { fifo_.clear(); }

  void save_state(ckpt::Writer& writer) const override {
    writer.write_u64(fifo_.size());
    for (const Fix& word : fifo_) writer.write_i64(word.raw());
  }
  [[nodiscard]] bool load_state(ckpt::Reader& reader) override {
    const u64 occupancy = reader.read_u64();
    if (!reader.ok() || occupancy > depth_) return false;
    fifo_.clear();
    for (u64 i = 0; i < occupancy; ++i) {
      fifo_.push_back(Fix::from_raw(word_format_, reader.read_i64()));
    }
    return reader.ok();
  }

  [[nodiscard]] ResourceVec resources() const override {
    ResourceVec r = detail::memory_resources(depth_, word_format_.word_bits);
    r.slices += slices_for_adder(8) * 2;  // read/write pointers + compare
    return r;
  }

  [[nodiscard]] Signal& data_out() noexcept { return data_out_; }
  [[nodiscard]] Signal& empty() noexcept { return empty_; }
  [[nodiscard]] Signal& full() noexcept { return full_; }
  [[nodiscard]] std::size_t occupancy() const noexcept { return fifo_.size(); }

 private:
  std::size_t depth_;
  FixFormat word_format_;
  Signal& data_out_;
  Signal& empty_;
  Signal& full_;
  Fix head_;
  std::deque<Fix> fifo_;
  bool changed_ = true;
};

}  // namespace mbcosim::sysgen
