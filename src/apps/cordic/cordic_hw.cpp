#include "apps/cordic/cordic_hw.hpp"

#include <string>
#include <vector>

#include "apps/common/serializer.hpp"
#include "apps/cordic/cordic_reference.hpp"
#include "common/status.hpp"

namespace mbcosim::apps::cordic {

namespace sg = mbcosim::sysgen;

namespace {

constexpr FixFormat kShiftFormat = FixFormat{Signedness::kUnsigned, 6, 0};
constexpr FixFormat kBoolFormat = FixFormat{Signedness::kUnsigned, 1, 0};
constexpr unsigned kMaxShift = 31;

/// Signals leaving one pipeline stage (all registered).
struct StageOutputs {
  sg::Signal* x = nullptr;
  sg::Signal* y = nullptr;
  sg::Signal* z = nullptr;
  sg::Signal* s = nullptr;
  sg::Signal* valid = nullptr;
};

/// Build one processing element: the combinational CORDIC update followed
/// by the stage registers (paper Figure 4; "All the PEs form a linear
/// pipeline and is fully pipelined between them").
StageOutputs add_pe(sg::Model& m, const std::string& prefix,
                    const StageOutputs& in, sg::Signal& one_const) {
  const FixFormat f = kDataFormat;
  const Fix zero = Fix::from_raw(f, 0);

  // d_i selection: d = +1 when Y < 0.
  auto& zero_c = m.add<sg::Constant>(prefix + ".zero", zero);
  auto& neg = m.add<sg::Relational>(prefix + ".neg", sg::Relational::Op::kLt,
                                    *in.y, zero_c.out());

  // Barrel-shifted operands: X >> s and C >> s (slice shifters, no
  // embedded multipliers -- see Table I).
  auto& xs = m.add<sg::VariableShiftRight>(prefix + ".xs", *in.x, *in.s,
                                           kMaxShift);
  auto& cs = m.add<sg::VariableShiftRight>(prefix + ".cs", one_const, *in.s,
                                           kMaxShift);

  // Y_{i+1} = Y -/+ (X >> s): both sums computed, the sign of Y selects.
  auto& y_plus = m.add<sg::AddSub>(prefix + ".y_plus", sg::AddSub::Mode::kAdd,
                                   *in.y, xs.out(), f);
  auto& y_minus = m.add<sg::AddSub>(prefix + ".y_minus",
                                    sg::AddSub::Mode::kSubtract, *in.y,
                                    xs.out(), f);
  auto& y_next = m.add<sg::Mux>(
      prefix + ".y_next", neg.out(),
      std::vector<sg::Signal*>{&y_minus.out(), &y_plus.out()});

  // Z_{i+1} = Z +/- (C >> s), opposite polarity to Y.
  auto& z_plus = m.add<sg::AddSub>(prefix + ".z_plus", sg::AddSub::Mode::kAdd,
                                   *in.z, cs.out(), f);
  auto& z_minus = m.add<sg::AddSub>(prefix + ".z_minus",
                                    sg::AddSub::Mode::kSubtract, *in.z,
                                    cs.out(), f);
  auto& z_next = m.add<sg::Mux>(
      prefix + ".z_next", neg.out(),
      std::vector<sg::Signal*>{&z_plus.out(), &z_minus.out()});

  // s_{i+1} = s_i + 1 (the C_{i+1} = C_i * 2^-1 propagation).
  auto& one_s =
      m.add<sg::Constant>(prefix + ".one_s", Fix::from_raw(kShiftFormat, 1));
  auto& s_next = m.add<sg::AddSub>(prefix + ".s_next", sg::AddSub::Mode::kAdd,
                                   *in.s, one_s.out(), kShiftFormat);

  // Stage registers.
  auto& xr = m.add<sg::Register>(prefix + ".xr", *in.x, zero);
  auto& yr = m.add<sg::Register>(prefix + ".yr", y_next.out(), zero);
  auto& zr = m.add<sg::Register>(prefix + ".zr", z_next.out(), zero);
  auto& sr = m.add<sg::Register>(prefix + ".sr", s_next.out(),
                                 Fix::from_raw(kShiftFormat, 0));
  auto& vr = m.add<sg::Register>(prefix + ".vr", *in.valid,
                                 Fix::from_raw(kBoolFormat, 0));

  return StageOutputs{&xr.out(), &yr.out(), &zr.out(), &sr.out(), &vr.out()};
}

}  // namespace

core::FslPort add_cordic_pipeline(sg::Model& m, unsigned num_pes) {
  if (num_pes == 0 || num_pes > 32) {
    throw SimError("build_cordic_pipeline: P must be in [1, 32]");
  }
  const FixFormat f = kDataFormat;

  // ---- FSL slave interface (from the processor). -------------------------
  auto& s_data = m.add<sg::GatewayIn>("fsl_s.data", f);
  auto& s_exists = m.add<sg::GatewayIn>("fsl_s.exists", kBoolFormat);
  auto& s_control = m.add<sg::GatewayIn>("fsl_s.control", kBoolFormat);
  // The interface consumes one word per cycle whenever one exists.
  auto& s_read = m.add<sg::GatewayOut>("fsl_s.read", s_exists.out());

  auto& not_ctrl = m.add<sg::Logical>(
      "deser.not_ctrl", sg::Logical::Op::kNot,
      std::vector<sg::Signal*>{&s_control.out()});
  auto& data_accept = m.add<sg::Logical>(
      "deser.data_accept", sg::Logical::Op::kAnd,
      std::vector<sg::Signal*>{&s_exists.out(), &not_ctrl.out()});
  auto& ctrl_accept = m.add<sg::Logical>(
      "deser.ctrl_accept", sg::Logical::Op::kAnd,
      std::vector<sg::Signal*>{&s_exists.out(), &s_control.out()});

  // Word index within the (X, Y, Z) triple.
  auto& idx = m.add<sg::Counter>("deser.idx",
                                 FixFormat{Signedness::kUnsigned, 2, 0}, 3,
                                 &data_accept.out());
  auto make_idx_eq = [&](const char* name, i64 value) -> sg::Signal& {
    auto& constant = m.add<sg::Constant>(
        std::string("deser.") + name + "_c",
        Fix::from_raw(FixFormat{Signedness::kUnsigned, 2, 0}, value));
    auto& eq = m.add<sg::Relational>(std::string("deser.") + name,
                                     sg::Relational::Op::kEq, idx.out(),
                                     constant.out());
    return eq.out();
  };
  sg::Signal& idx_eq0 = make_idx_eq("idx_eq0", 0);
  sg::Signal& idx_eq1 = make_idx_eq("idx_eq1", 1);
  sg::Signal& idx_eq2 = make_idx_eq("idx_eq2", 2);

  auto& en_x = m.add<sg::Logical>(
      "deser.en_x", sg::Logical::Op::kAnd,
      std::vector<sg::Signal*>{&data_accept.out(), &idx_eq0});
  auto& en_y = m.add<sg::Logical>(
      "deser.en_y", sg::Logical::Op::kAnd,
      std::vector<sg::Signal*>{&data_accept.out(), &idx_eq1});
  auto& valid_in = m.add<sg::Logical>(
      "deser.valid_in", sg::Logical::Op::kAnd,
      std::vector<sg::Signal*>{&data_accept.out(), &idx_eq2});

  const Fix zero = Fix::from_raw(f, 0);
  auto& x_hold = m.add<sg::Register>("deser.x_hold", s_data.out(), zero,
                                     &en_x.out());
  auto& y_hold = m.add<sg::Register>("deser.y_hold", s_data.out(), zero,
                                     &en_y.out());

  // Initial shift amount s0: low bits of the control word (paper: "C_0 is
  // sent out from the MicroBlaze processor to the FSL as a control word").
  auto& s0_bits = m.add<sg::Slice>("deser.s0_bits", s_data.out(), 0, 6);
  auto& s0_hold = m.add<sg::Register>("deser.s0_hold", s0_bits.out(),
                                      Fix::from_raw(kShiftFormat, 0),
                                      &ctrl_accept.out());

  // ---- Linear pipeline of PEs. -------------------------------------------
  auto& one_c = m.add<sg::Constant>("one", Fix::from_raw(f, kOneRaw));
  StageOutputs stage{&x_hold.out(), &y_hold.out(), &s_data.out(),
                     &s0_hold.out(), &valid_in.out()};
  for (unsigned pe = 1; pe <= num_pes; ++pe) {
    stage = add_pe(m, "pe" + std::to_string(pe), stage, one_c.out());
  }

  // ---- FSL master interface (back to the processor). ----------------------
  auto& m_full = m.add<sg::GatewayIn>("fsl_m.full", kBoolFormat);
  auto& serializer = m.add<VectorSerializer>(
      "ser", std::vector<sg::Signal*>{stage.x, stage.y, stage.z},
      *stage.valid, &m_full.out());
  auto& m_data = m.add<sg::GatewayOut>("fsl_m.data", serializer.data());
  auto& m_write = m.add<sg::GatewayOut>("fsl_m.write", serializer.write());

  return core::FslPort{.s_data = &s_data,
                       .s_exists = &s_exists,
                       .s_control = &s_control,
                       .s_read = &s_read,
                       .m_data = &m_data,
                       .m_write = &m_write,
                       .m_full = &m_full};
}

CordicPipeline build_cordic_pipeline(unsigned num_pes) {
  CordicPipeline pipeline;
  pipeline.num_pes = num_pes;
  pipeline.model = std::make_unique<sg::Model>(
      "cordic_div_p" + std::to_string(num_pes));
  pipeline.io = add_cordic_pipeline(*pipeline.model, num_pes);
  pipeline.model->elaborate();
  return pipeline;
}

}  // namespace mbcosim::apps::cordic
