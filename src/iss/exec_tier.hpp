// Execution-tier selector shared by the processor, the SimSystem
// builder, machine descriptions and the command-line tools. Lives in
// its own header so declarative layers (machine::CoreDesc) can name a
// tier without pulling in the full processor definition.
#pragma once

#include <optional>
#include <string_view>

#include "common/types.hpp"

namespace mbcosim::iss {

/// The two execution paths of iss::Processor (DESIGN.md §12). Both
/// retire the same instruction stream with bit-identical architectural
/// state and CpuStats:
///   kPrecise  decode every word on every step() — the reference, and
///             the path an enabled trace bus (the one observer) sees;
///   kDbt      superblock translation: hot basic blocks stitched into
///             threaded code and executed whole, everything else
///             through step() (the default).
enum class ExecTier : u8 { kPrecise, kDbt };

[[nodiscard]] constexpr const char* to_string(ExecTier tier) noexcept {
  switch (tier) {
    case ExecTier::kPrecise: return "precise";
    case ExecTier::kDbt: return "dbt";
  }
  return "?";
}

/// Parse the `--exec-tier` / machine-JSON vocabulary: "precise" | "dbt".
[[nodiscard]] inline std::optional<ExecTier> parse_exec_tier(
    std::string_view name) noexcept {
  if (name == "precise") return ExecTier::kPrecise;
  if (name == "dbt") return ExecTier::kDbt;
  return std::nullopt;
}

}  // namespace mbcosim::iss
