#include "apps/matmul/matmul_hw.hpp"

#include <string>
#include <vector>

#include "apps/common/serializer.hpp"
#include "common/bits.hpp"
#include "common/status.hpp"

namespace mbcosim::apps::matmul {

namespace sg = mbcosim::sysgen;

namespace {
constexpr FixFormat kElementFormat{Signedness::kSigned, 16, 0};
constexpr FixFormat kProductFormat{Signedness::kSigned, 32, 0};
constexpr FixFormat kAccFormat{Signedness::kSigned, 36, 0};
constexpr FixFormat kWordFormat{Signedness::kSigned, 32, 0};
constexpr FixFormat kBoolFormat{Signedness::kUnsigned, 1, 0};

u8 counter_bits(unsigned limit) {
  u8 bits_needed = 1;
  while ((1u << bits_needed) < limit) ++bits_needed;
  return bits_needed;
}
}  // namespace

core::FslPort add_matmul_peripheral(sg::Model& m, unsigned block_size) {
  if (block_size < 2 || block_size > 4) {
    throw SimError("build_matmul_peripheral: block size must be in [2, 4]");
  }
  const unsigned n = block_size;

  // ---- FSL slave interface. ------------------------------------------------
  auto& s_data = m.add<sg::GatewayIn>("fsl_s.data", kElementFormat);
  auto& s_exists = m.add<sg::GatewayIn>("fsl_s.exists", kBoolFormat);
  auto& s_control = m.add<sg::GatewayIn>("fsl_s.control", kBoolFormat);
  auto& s_read = m.add<sg::GatewayOut>("fsl_s.read", s_exists.out());

  auto& not_ctrl = m.add<sg::Logical>(
      "ctl.not_ctrl", sg::Logical::Op::kNot,
      std::vector<sg::Signal*>{&s_control.out()});
  auto& data_accept = m.add<sg::Logical>(
      "ctl.data_accept", sg::Logical::Op::kAnd,
      std::vector<sg::Signal*>{&s_exists.out(), &not_ctrl.out()});
  auto& ctrl_accept = m.add<sg::Logical>(
      "ctl.ctrl_accept", sg::Logical::Op::kAnd,
      std::vector<sg::Signal*>{&s_exists.out(), &s_control.out()});

  // ---- B-block register file, loaded by control words (row-major). --------
  const FixFormat b_idx_format{Signedness::kUnsigned, counter_bits(n * n), 0};
  auto& b_idx = m.add<sg::Counter>("bload.idx", b_idx_format,
                                   static_cast<i64>(n) * n,
                                   &ctrl_accept.out());
  std::vector<sg::Signal*> b_regs(n * n, nullptr);
  const Fix element_zero = Fix::from_raw(kElementFormat, 0);
  for (unsigned index = 0; index < n * n; ++index) {
    // Built by append: `"b" + std::to_string(...)` trips a GCC 12
    // -Wrestrict false positive under -Werror.
    std::string tag(1, 'b');
    tag += std::to_string(index / n);
    tag += std::to_string(index % n);
    auto& index_c = m.add<sg::Constant>(
        "bload." + tag + "_idx",
        Fix::from_raw(b_idx_format, static_cast<i64>(index)));
    auto& match = m.add<sg::Relational>("bload." + tag + "_match",
                                        sg::Relational::Op::kEq, b_idx.out(),
                                        index_c.out());
    auto& enable = m.add<sg::Logical>(
        "bload." + tag + "_en", sg::Logical::Op::kAnd,
        std::vector<sg::Signal*>{&ctrl_accept.out(), &match.out()});
    auto& reg = m.add<sg::Register>("bload." + tag, s_data.out(),
                                    element_zero, &enable.out());
    b_regs[index] = &reg.out();
  }

  // ---- Streaming MAC datapath. ---------------------------------------------
  const FixFormat k_format{Signedness::kUnsigned, counter_bits(n), 0};
  auto& k_idx = m.add<sg::Counter>("mac.k", k_format, static_cast<i64>(n),
                                   &data_accept.out());
  auto& zero_k =
      m.add<sg::Constant>("mac.zero_k", Fix::from_raw(k_format, 0));
  auto& last_k = m.add<sg::Constant>(
      "mac.last_k", Fix::from_raw(k_format, static_cast<i64>(n) - 1));
  auto& k_is_first = m.add<sg::Relational>(
      "mac.k_first", sg::Relational::Op::kEq, k_idx.out(), zero_k.out());
  auto& k_is_last = m.add<sg::Relational>(
      "mac.k_last", sg::Relational::Op::kEq, k_idx.out(), last_k.out());
  auto& row_done = m.add<sg::Logical>(
      "mac.row_done", sg::Logical::Op::kAnd,
      std::vector<sg::Signal*>{&data_accept.out(), &k_is_last.out()});

  std::vector<sg::Signal*> row_out(n, nullptr);
  for (unsigned j = 0; j < n; ++j) {
    const std::string tag = "col" + std::to_string(j);
    // Select b[k][j] from column j of the register file.
    std::vector<sg::Signal*> column;
    column.reserve(n);
    for (unsigned k = 0; k < n; ++k) column.push_back(b_regs[k * n + j]);
    auto& b_sel = m.add<sg::Mux>("mac." + tag + ".bsel", k_idx.out(), column);

    // a_k * b[k][j] on one embedded multiplier.
    auto& product = m.add<sg::Mult>("mac." + tag + ".mult", s_data.out(),
                                    b_sel.out(), kProductFormat,
                                    /*latency=*/0);
    auto& product_ext = m.add<sg::Convert>("mac." + tag + ".pext",
                                           product.out(), kAccFormat);

    // Accumulator: restart on k == 0, else add. The loop is closed
    // through the register (feedback form), which legally breaks the
    // combinational cycle.
    auto& acc_reg = m.add<sg::Register>("mac." + tag + ".acc",
                                        Fix::from_raw(kAccFormat, 0),
                                        &data_accept.out());
    auto& sum = m.add<sg::AddSub>("mac." + tag + ".sum",
                                  sg::AddSub::Mode::kAdd, acc_reg.out(),
                                  product_ext.out(), kAccFormat);
    auto& acc_next = m.add<sg::Mux>(
        "mac." + tag + ".next", k_is_first.out(),
        std::vector<sg::Signal*>{&sum.out(), &product_ext.out()});
    acc_reg.connect_d(acc_next.out());
    auto& out32 = m.add<sg::Convert>("mac." + tag + ".out", acc_next.out(),
                                     kWordFormat);
    row_out[j] = &out32.out();
  }

  // ---- FSL master interface. -----------------------------------------------
  auto& m_full = m.add<sg::GatewayIn>("fsl_m.full", kBoolFormat);
  auto& serializer = m.add<VectorSerializer>("ser", row_out, row_done.out(),
                                             &m_full.out());
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

MatmulPeripheral build_matmul_peripheral(unsigned block_size) {
  MatmulPeripheral peripheral;
  peripheral.block_size = block_size;
  peripheral.model = std::make_unique<sg::Model>(
      "matmul_block_" + std::to_string(block_size) + "x" +
      std::to_string(block_size));
  peripheral.io = add_matmul_peripheral(*peripheral.model, block_size);
  peripheral.model->elaborate();
  return peripheral;
}

}  // namespace mbcosim::apps::matmul
