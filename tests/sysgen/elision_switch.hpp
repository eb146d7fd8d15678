// A user block that decides whether its model may elide cycles. Built
// with settles = false it reports a changed latch every cycle, so its
// model never settles and evaluates every step in full; with settles =
// true it reports unchanged latches and leaves elision to the rest of
// the model. It has no ports and no state, so two copies of a design
// that differ only in this flag have the same shape and byte-comparable
// checkpoint images: the elision differential tests use the first as
// the reference for the second.
#pragma once

#include "sysgen/block.hpp"
#include "sysgen/model.hpp"

namespace mbcosim::sysgen {

class ElisionSwitch : public Block {
 public:
  ElisionSwitch(Model& model, bool settles)
      : Block(model, "elision_switch"), settles_(settles) {}

  [[nodiscard]] bool is_sequential() const override { return true; }
  [[nodiscard]] bool latch_changed() const override { return !settles_; }

 private:
  bool settles_;
};

}  // namespace mbcosim::sysgen
