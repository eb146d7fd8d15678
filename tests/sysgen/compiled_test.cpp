// Compiled segments (DESIGN.md §15, "Compiled segments"): every shipped
// design point binds its generated bodies, the bodies compute what the
// interpreter computes on every cycle, a tape that differs in one
// constant or one wire binds nothing, and the generator is deterministic.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "apps/compiled_designs.hpp"
#include "apps/cordic/cordic_app.hpp"
#include "apps/cordic/cordic_hw.hpp"
#include "apps/cordic/cordic_reference.hpp"
#include "apps/matmul/matmul_app.hpp"
#include "apps/matmul/matmul_hw.hpp"
#include "ckpt/ckpt.hpp"
#include "common/rng.hpp"
#include "sysgen/blocks_basic.hpp"
#include "sysgen/compiled.hpp"
#include "sysgen/model.hpp"

namespace mbcosim::sysgen {

/// The seam Kernel and Model befriend, defined here only: the library's
/// entry points (Builder, MachineDesc, mbcsim, HTTP) cannot reach it.
struct KernelTestAccess {
  static std::vector<Op>& tape(Model& model) { return model.kernel_.tape_; }
  /// Fingerprint the tape again and bind what it matches.
  static void rebind(Model& model) { model.kernel_.bind(); }
  /// Run every segment on the interpreter.
  static void interpret(Model& model) {
    model.kernel_.compiled_.clear();
    model.kernel_.design_ = nullptr;
  }
};

namespace {

struct Shipped {
  std::string name;
  std::unique_ptr<Model> model;
};

/// Every design point in apps/compiled_designs.hpp, freshly built.
std::vector<Shipped> shipped_designs() {
  std::vector<Shipped> designs;
  for (const unsigned pes : apps::kCompiledCordicPes) {
    designs.push_back({"CORDIC P=" + std::to_string(pes),
                       apps::cordic::build_cordic_pipeline(pes).model});
  }
  for (const unsigned block : apps::kCompiledMatmulBlocks) {
    designs.push_back({"matmul n=" + std::to_string(block),
                       apps::matmul::build_matmul_peripheral(block).model});
  }
  return designs;
}

std::vector<GatewayIn*> gateways(const Model& model) {
  std::vector<GatewayIn*> found;
  for (const auto& block : model.blocks()) {
    if (auto* gateway = dynamic_cast<GatewayIn*>(block.get())) {
      found.push_back(gateway);
    }
  }
  return found;
}

std::vector<unsigned char> image(const Model& model) {
  ckpt::Writer writer;
  model.save_state(writer);
  return writer.take();
}

/// Each gateway takes a new random code with probability 1/3, so some
/// cycles change nothing and some change every input.
void drive(const std::vector<GatewayIn*>& inputs, u64 draw_seed) {
  Rng rng(draw_seed);
  for (GatewayIn* gateway : inputs) {
    if (rng.next_u32() % 3 == 0) {
      gateway->set_raw(static_cast<i64>(rng.next_u64()));
    }
  }
}

std::size_t segments_on_tape(const Model& model) {
  return model.op_count(OpCode::kEnd);
}

TEST(CompiledSegments, ShippedDesignsRunNoInterpretedSegment) {
  for (Shipped& design : shipped_designs()) {
    Model& model = *design.model;
    ASSERT_NE(model.kernel().compiled_design(), nullptr) << design.name;
    EXPECT_EQ(model.kernel().compiled_segments(), segments_on_tape(model))
        << design.name;
    const std::vector<GatewayIn*> inputs = gateways(model);
    for (u64 cycle = 0; cycle < 300; ++cycle) {
      drive(inputs, cycle);
      model.step();
    }
    const KernelStats& stats = model.kernel_stats();
    EXPECT_GT(stats.segments, 0u) << design.name;
    EXPECT_EQ(stats.compiled, stats.segments) << design.name;
  }
}

TEST(CompiledSegments, MachineDescriptionsBindTheirPeripherals) {
  const auto [x, y] = apps::cordic::make_cordic_dataset(8, 3);
  auto cordic = apps::cordic::make_cordic_system(
      {.num_pes = 4, .items = 8, .set_size = 4}, x, y);
  ASSERT_TRUE(cordic.ok()) << cordic.error();
  const apps::matmul::Matrix a = apps::matmul::make_matrix(4, 1);
  const apps::matmul::Matrix b = apps::matmul::make_matrix(4, 2);
  auto matmul = apps::matmul::make_matmul_system(
      {.matrix_size = 4, .block_size = 2}, a, b);
  ASSERT_TRUE(matmul.ok()) << matmul.error();
  std::vector<sim::SimSystem> systems;
  systems.push_back(std::move(cordic).value());
  systems.push_back(std::move(matmul).value());
  for (sim::SimSystem& system : systems) {
    const Model* model = system.hardware();
    ASSERT_NE(model, nullptr);
    ASSERT_NE(model->kernel().compiled_design(), nullptr);
    ASSERT_EQ(system.run(), core::StopReason::kHalted);
    EXPECT_GT(model->kernel_stats().segments, 0u);
    EXPECT_EQ(model->kernel_stats().compiled, model->kernel_stats().segments);
  }
}

TEST(CompiledSegments, MatchTheInterpreterOnEveryCycle) {
  std::vector<Shipped> compiled = shipped_designs();
  std::vector<Shipped> interpreted = shipped_designs();
  for (std::size_t d = 0; d < compiled.size(); ++d) {
    const std::string& name = compiled[d].name;
    Model& fast = *compiled[d].model;
    Model& slow = *interpreted[d].model;
    KernelTestAccess::interpret(slow);
    ASSERT_NE(fast.kernel().compiled_design(), nullptr) << name;
    ASSERT_EQ(slow.kernel().compiled_segments(), 0u) << name;
    const std::vector<GatewayIn*> fast_inputs = gateways(fast);
    const std::vector<GatewayIn*> slow_inputs = gateways(slow);
    ASSERT_FALSE(fast_inputs.empty()) << name;
    for (u64 cycle = 0; cycle < 2500; ++cycle) {
      const u64 draw = (u64{d} << 32) | cycle;
      drive(fast_inputs, draw);
      drive(slow_inputs, draw);
      fast.step();
      slow.step();
      for (std::size_t b = 0; b < fast.blocks().size(); ++b) {
        const auto& fast_outputs = fast.blocks()[b]->outputs();
        const auto& slow_outputs = slow.blocks()[b]->outputs();
        for (std::size_t s = 0; s < fast_outputs.size(); ++s) {
          ASSERT_EQ(fast_outputs[s]->raw(), slow_outputs[s]->raw())
              << name << " cycle " << cycle << " " << fast_outputs[s]->name();
        }
      }
      ASSERT_EQ(image(fast), image(slow)) << name << " cycle " << cycle;
      const KernelStats& f = fast.kernel_stats();
      const KernelStats& s = slow.kernel_stats();
      ASSERT_EQ(f.passes, s.passes) << name << " cycle " << cycle;
      ASSERT_EQ(f.segments, s.segments) << name << " cycle " << cycle;
      ASSERT_EQ(f.ops, s.ops) << name << " cycle " << cycle;
    }
    EXPECT_EQ(fast.kernel_stats().compiled, fast.kernel_stats().segments);
    EXPECT_EQ(slow.kernel_stats().compiled, 0u);
  }
}

TEST(CompiledSegments, OneChangedConstantOrWireBindsNothing) {
  auto pipeline = apps::cordic::build_cordic_pipeline(4);
  Model& model = *pipeline.model;
  ASSERT_NE(model.kernel().compiled_design(), nullptr);
  std::vector<Op>& tape = KernelTestAccess::tape(model);
  auto first = [&](OpCode code) {
    for (std::size_t i = 0; i < tape.size(); ++i) {
      if (tape[i].code == code) return i;
    }
    ADD_FAILURE() << "no op " << static_cast<int>(code);
    return std::size_t{0};
  };
  auto expect_unbound_then_restore = [&](const char* what, auto mutate) {
    const std::vector<Op> original = tape;
    mutate();
    KernelTestAccess::rebind(model);
    EXPECT_EQ(model.kernel().compiled_design(), nullptr) << what;
    EXPECT_EQ(model.kernel().compiled_segments(), 0u) << what;
    tape = original;
    KernelTestAccess::rebind(model);
    EXPECT_NE(model.kernel().compiled_design(), nullptr) << what;
  };
  expect_unbound_then_restore("shift bound", [&] {
    ++tape[first(OpCode::kShrVar)].k;
  });
  expect_unbound_then_restore("wrap width", [&] {
    ++tape[first(OpCode::kAddExt)].wrap.norm;
  });
  expect_unbound_then_restore("compare outcome", [&] {
    tape[first(OpCode::kCompareI64)].k ^= 1;
  });
  expect_unbound_then_restore("operand wire", [&] {
    Op& add = tape[first(OpCode::kAddExt)];
    add.b = add.a;
  });
  expect_unbound_then_restore("result wire", [&] {
    tape[first(OpCode::kMux)].dst = Lowering::zero();
  });

  // One block more than the shipped design: interpreted, same results.
  Model extended("cordic_p4_extended");
  (void)apps::cordic::add_cordic_pipeline(extended, 4);
  extended.add<Constant>("extra", Fix::from_raw(apps::cordic::kDataFormat, 1));
  extended.elaborate();
  EXPECT_EQ(extended.kernel().compiled_design(), nullptr);
}

TEST(CompiledSegments, GeneratorOutputIsDeterministic) {
  const std::string first = apps::compiled_designs_source();
  EXPECT_EQ(first, apps::compiled_designs_source());
  std::ifstream built(MBCOSIM_COMPILED_SEGMENTS, std::ios::binary);
  ASSERT_TRUE(built) << MBCOSIM_COMPILED_SEGMENTS;
  const std::string linked((std::istreambuf_iterator<char>(built)),
                           std::istreambuf_iterator<char>());
  EXPECT_EQ(first, linked);
}

}  // namespace
}  // namespace mbcosim::sysgen
