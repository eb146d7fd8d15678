// Execution-tier selector shared by the processor, the SimSystem
// builder, machine descriptions and the command-line tools. Lives in
// its own header so declarative layers (machine::CoreDesc) can name a
// tier without pulling in the full processor definition.
#pragma once

#include <optional>
#include <string_view>

#include "common/types.hpp"

namespace mbcosim::iss {

/// The three execution tiers of iss::Processor (DESIGN.md §12). Every
/// tier retires the same instruction stream with bit-identical
/// architectural state and CpuStats; they only trade decode/dispatch
/// overhead for speed:
///   kPrecise    decode every word on every step() — the path an
///               enabled trace bus (the one observer) sees;
///   kPredecode  cached decode + batched dispatch (the PR 3 fast path);
///   kDbt        superblock translation: hot basic blocks stitched into
///               threaded code and executed whole (the default).
enum class ExecTier : u8 { kPrecise = 0, kPredecode = 1, kDbt = 2 };

[[nodiscard]] constexpr const char* to_string(ExecTier tier) noexcept {
  switch (tier) {
    case ExecTier::kPrecise: return "precise";
    case ExecTier::kPredecode: return "predecode";
    case ExecTier::kDbt: return "dbt";
  }
  return "?";
}

/// Parse the `--exec-tier` / machine-JSON vocabulary:
/// "precise" | "predecode" | "dbt".
[[nodiscard]] inline std::optional<ExecTier> parse_exec_tier(
    std::string_view name) noexcept {
  if (name == "precise") return ExecTier::kPrecise;
  if (name == "predecode") return ExecTier::kPredecode;
  if (name == "dbt") return ExecTier::kDbt;
  return std::nullopt;
}

}  // namespace mbcosim::iss
