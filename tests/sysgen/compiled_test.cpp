// Compiled passes (DESIGN.md §15, "Compiled passes"): every shipped
// design point binds its generated pass, wherever it is built, the pass
// computes and counts what the interpreter does on every cycle, a tape
// that differs in one constant, one wire or one slot binds nothing, and
// the generator is deterministic.
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
#include "apps/machine_peripherals.hpp"
#include "ckpt/ckpt.hpp"
#include "common/rng.hpp"
#include "core/manycore.hpp"
#include "machine/machine_desc.hpp"
#include "sysgen/blocks_basic.hpp"
#include "sysgen/compiled.hpp"
#include "sysgen/model.hpp"

namespace mbcosim::sysgen {

/// The seam Kernel and Model befriend, defined here only: the library's
/// entry points (Builder, MachineDesc, mbcsim, HTTP) cannot reach it.
struct KernelTestAccess {
  static std::vector<Op>& tape(Model& model) { return model.kernel_.tape_; }
  static std::vector<u32>& mux_sources(Model& model) {
    return model.kernel_.mux_sources_;
  }
  static std::vector<i64>& arena(Model& model) { return model.slots_; }
  /// Fingerprint the tape again and bind what it matches.
  static void rebind(Model& model) { model.kernel_.bind(); }
  /// Run every pass on the interpreter.
  static void interpret(Model& model) { model.kernel_.design_ = nullptr; }
};

namespace {

struct Shipped {
  std::string name;  ///< the generator's name for the design
  std::unique_ptr<Model> model;
};

/// Every design point in apps/compiled_designs.hpp, freshly built.
std::vector<Shipped> shipped_designs() {
  std::vector<Shipped> designs;
  for (const unsigned pes : apps::kCompiledCordicPes) {
    designs.push_back({"cordic_p" + std::to_string(pes),
                       apps::cordic::build_cordic_pipeline(pes).model});
  }
  for (const unsigned block : apps::kCompiledMatmulBlocks) {
    designs.push_back({"matmul_n" + std::to_string(block),
                       apps::matmul::build_matmul_peripheral(block).model});
  }
  return designs;
}

/// The model's blocks of type T, in creation order.
template <typename T>
std::vector<T*> blocks_of(const Model& model) {
  std::vector<T*> found;
  for (const auto& block : model.blocks()) {
    if (auto* typed = dynamic_cast<T*>(block.get())) found.push_back(typed);
  }
  return found;
}

std::vector<GatewayIn*> gateways(const Model& model) {
  return blocks_of<GatewayIn>(model);
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

TEST(CompiledSegments, ShippedDesignsRunNoInterpretedSegment) {
  for (Shipped& design : shipped_designs()) {
    Model& model = *design.model;
    const CompiledDesign* bound = model.kernel().compiled_design();
    ASSERT_NE(bound, nullptr) << design.name;
    EXPECT_EQ(bound->name, design.name);
    const std::vector<GatewayIn*> inputs = gateways(model);
    for (u64 cycle = 0; cycle < 300; ++cycle) {
      drive(inputs, cycle);
      model.step();
    }
    EXPECT_GT(model.kernel_stats().segments, 0u) << design.name;
    EXPECT_EQ(model.kernel().compiled_design(), bound) << design.name;
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
    EXPECT_NE(model->kernel().compiled_design(), nullptr);
  }

  // The farm's worker (core 1) and its 16-PE pipeline: the peripheral
  // farm_hosted runs. A drift in the arena layout of a design built
  // through a machine file would leave it on the interpreter with every
  // output still right.
  apps::register_machine_peripherals();
  auto farm_desc = machine::MachineDesc::from_file(
      std::string(MBCOSIM_EXAMPLES_DIR) + "/machines/cordic_farm.json");
  ASSERT_TRUE(farm_desc.ok()) << farm_desc.error();
  auto built = sim::SimSystem::Builder().machine(farm_desc.value()).build();
  ASSERT_TRUE(built.ok()) << built.error();
  sim::SimSystem farm = std::move(built).value();
  ASSERT_EQ(farm.core_name(1), "worker");
  ASSERT_EQ(farm.run(), core::StopReason::kHalted);
  const Model* worker = farm.machine_engine()->core_engine(1).hardware();
  ASSERT_NE(worker, nullptr);
  ASSERT_NE(worker->kernel().compiled_design(), nullptr);
  EXPECT_STREQ(worker->kernel().compiled_design()->name, "cordic_p16");
  EXPECT_GT(worker->kernel_stats().segments, 0u);
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
    ASSERT_EQ(slow.kernel().compiled_design(), nullptr) << name;
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

  // Same wiring, two slots swapped wherever the tape, the mux lists and
  // the arena name them: the ops share slots exactly as before, but the
  // compiled pass names other slots.
  {
    std::vector<u32>& sources = KernelTestAccess::mux_sources(model);
    std::vector<i64>& arena = KernelTestAccess::arena(model);
    const std::vector<Op> tape_before = tape;
    const std::vector<u32> sources_before = sources;
    const std::vector<i64> arena_before = arena;
    const u32 x = tape[first(OpCode::kAddExt)].dst;
    const u32 y = tape[first(OpCode::kMux)].dst;
    auto swap = [&](u32& slot) {
      if (slot == x) {
        slot = y;
      } else if (slot == y) {
        slot = x;
      }
    };
    for (Op& op : tape) {
      for (u32* slot : {&op.dst, &op.a, &op.b, &op.c}) swap(*slot);
    }
    for (u32& source : sources) swap(source);
    std::swap(arena[x], arena[y]);
    KernelTestAccess::rebind(model);
    EXPECT_EQ(model.kernel().compiled_design(), nullptr) << "slots swapped";
    tape = tape_before;
    sources = sources_before;
    arena = arena_before;
    KernelTestAccess::rebind(model);
    EXPECT_NE(model.kernel().compiled_design(), nullptr) << "slots swapped";
  }

  // The shipped P=4 design one slot further up the arena: the same ops
  // over the same wiring, at other slots. It runs on the interpreter, and
  // its gateway outputs are the shipped design's on every cycle.
  {
    auto shipped = apps::cordic::build_cordic_pipeline(4);
    Model shifted("cordic_p4_shifted");
    (void)shifted.make_slots(1);
    (void)apps::cordic::add_cordic_pipeline(shifted, 4);
    shifted.elaborate();
    EXPECT_EQ(shifted.kernel().compiled_design(), nullptr);
    ASSERT_NE(shipped.model->kernel().compiled_design(), nullptr);
    const std::vector<GatewayIn*> shipped_in = gateways(*shipped.model);
    const std::vector<GatewayIn*> shifted_in = gateways(shifted);
    const std::vector<GatewayOut*> shipped_out = blocks_of<GatewayOut>(*shipped.model);
    const std::vector<GatewayOut*> shifted_out = blocks_of<GatewayOut>(shifted);
    ASSERT_FALSE(shipped_out.empty());
    ASSERT_EQ(shipped_out.size(), shifted_out.size());
    for (u64 cycle = 0; cycle < 2500; ++cycle) {
      drive(shipped_in, cycle);
      drive(shifted_in, cycle);
      shipped.model->step();
      shifted.step();
      for (std::size_t g = 0; g < shipped_out.size(); ++g) {
        ASSERT_EQ(shipped_out[g]->read_raw(), shifted_out[g]->read_raw())
            << "cycle " << cycle << " " << shipped_out[g]->name();
      }
    }
    EXPECT_EQ(shifted.kernel().compiled_design(), nullptr);
  }

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
