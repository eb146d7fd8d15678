#include "sysgen/codegen.hpp"

#include <cinttypes>
#include <cstdio>
#include <limits>
#include <unordered_map>

namespace mbcosim::sysgen {

namespace {
/// The parts appended in order. (Appending avoids GCC 12's false
/// -Wrestrict on `"literal" + std::string` at -O3.)
template <typename... Parts>
std::string cat(const Parts&... parts) {
  std::string text;
  ((text += parts), ...);
  return text;
}

std::string literal(i64 value) {
  if (value == std::numeric_limits<i64>::min()) {
    return "std::numeric_limits<i64>::min()";
  }
  return std::to_string(value);
}

std::string hex(u64 value) {
  char text[24];
  std::snprintf(text, sizeof text, "0x%016" PRIx64 "ull", value);
  return text;
}

/// The op codes a compiled segment may hold.
bool has_lowering(OpCode code) noexcept {
  switch (code) {
    case OpCode::kCopy:
    case OpCode::kCopyFan:
    case OpCode::kShrVar:
    case OpCode::kMux:
    case OpCode::kCounter:
    case OpCode::kSerialize:
    case OpCode::kWrapExt:
    case OpCode::kAddExt:
    case OpCode::kSubExt:
    case OpCode::kMulExt:
    case OpCode::kAndExt:
    case OpCode::kNotExt:
    case OpCode::kRegisterExt:
    case OpCode::kRegisterAlways:
    case OpCode::kCompareI64:
      return true;
    default:
      return false;
  }
}

/// The ops:: function computing a binary *Ext op.
const char* binary_ext(OpCode code) noexcept {
  switch (code) {
    case OpCode::kAddExt:
      return "add_ext";
    case OpCode::kSubExt:
      return "sub_ext";
    case OpCode::kMulExt:
      return "mul_ext";
    default:
      return "and_ext";
  }
}

/// The statements of one segment's function body, or "" when an op has
/// no lowering.
std::string lower_segment(const Op* t, std::size_t size) {
  // Slots written earlier in the segment, and the local holding each.
  std::unordered_map<u32, std::string> known;
  std::string body;
  bool stateful = false;
  for (std::size_t i = 0; i < size; ++i) {
    const Op& op = t[i];
    if (!has_lowering(op.code)) return "";
    const std::string at = cat("t[", std::to_string(i), "]");
    auto read = [&](u32 slot, const char* field) {
      const auto it = known.find(slot);
      return it != known.end() ? it->second : cat("s[", at, ".", field, "]");
    };
    const std::string dst = cat("s[", at, ".dst]");
    const std::string a = op.a != kNoSlot ? read(op.a, "a") : "";
    const std::string b = op.b != kNoSlot ? read(op.b, "b") : "";
    const std::string v = cat("v", std::to_string(i));
    const std::string wrap =
        cat(std::to_string(op.wrap.norm), ", ", literal(op.wrap.keep));
    const std::string k = literal(op.k);
    // The value an op with a plain destination computes.
    std::string value;
    switch (op.code) {
      case OpCode::kCopy:
        value = a;
        break;
      case OpCode::kCopyFan:
        body += cat("  const i64 ", v, " = ", a, ";\n");
        body += cat("  ops::copy_fan(", dst, ", ", v, ", p, ", k, ", ",
                    literal(op.k2), ");\n");
        known[op.dst] = v;
        continue;
      case OpCode::kShrVar:
        value = cat("ops::shr_var(", a, ", ", b, ", ", k, ")");
        break;
      case OpCode::kMux:
        value = cat("ops::mux(s, p.mux_sources + ", at, ".ext, ", a, ", ", k,
                    ")");
        break;
      case OpCode::kCompareI64:
        value = cat("ops::compare_i64(", a, ", ", b, ", ", k, ")");
        break;
      case OpCode::kWrapExt:
        value = cat("ops::wrap_ext(", a, ", ", wrap, ")");
        break;
      case OpCode::kAddExt:
      case OpCode::kSubExt:
      case OpCode::kMulExt:
      case OpCode::kAndExt:
        value = cat("ops::", binary_ext(op.code), "(", a, ", ", b, ", ", wrap,
                    ")");
        break;
      case OpCode::kNotExt:
        value = cat("ops::not_ext(", a, ", ", wrap, ")");
        break;
      case OpCode::kRegisterAlways:
        body += cat("  const i64 ", v, " = ops::wrap_ext(", a, ", ", wrap,
                    ");\n");
        body += cat("  changed |= ops::update(", dst, ", ", v, ");\n");
        known[op.dst] = v;
        stateful = true;
        continue;
      case OpCode::kRegisterExt:
        body += cat("  changed |= ops::register_ext(", dst, ", ", a, ", ",
                    read(op.c, "c"), ", ", wrap, ");\n");
        known.erase(op.dst);
        stateful = true;
        continue;
      case OpCode::kCounter:
        body += cat("  changed |= ops::counter(", dst, ", ", a, ", ", b, ", ",
                    k, ");\n");
        known.erase(op.dst);
        stateful = true;
        continue;
      case OpCode::kSerialize:
        body += cat("  changed |= ops::serialize(*p.queues[", at, ".ext], s, ",
                    a, ", ", b, ");\n");
        stateful = true;
        continue;
      default:
        return "";
    }
    body += cat("  const i64 ", v, " = ", value, ";\n");
    body += cat("  ", dst, " = ", v, ";\n");
    known[op.dst] = v;
  }
  std::string text = "  i64* const s = p.s;\n";
  if (stateful) text += "  bool changed = false;\n";
  text += body;
  if (stateful) text += "  p.changed = changed;\n";
  // The closing kEnd counts the segment, itself included (KernelStats).
  text += "  ++p.counts.segments;\n";
  text += "  ++p.counts.compiled;\n";
  text += cat("  p.counts.ops += ", std::to_string(size + 1), ";\n");
  text += cat("  return t + ", std::to_string(size), ";\n");
  return text;
}
}  // namespace

std::string SegmentEmitter::function_for(const std::string& body) {
  const auto [it, added] =
      names_.try_emplace(body, cat("s", std::to_string(names_.size())));
  if (added) {
    functions_ += cat("const Op* ", it->second,
                      "(const Op* t, PassState& p) {\n", body, "}\n\n");
  }
  return it->second;
}

void SegmentEmitter::add(std::string_view name, const Kernel& kernel) {
  const std::vector<Op>& tape = kernel.tape();
  const std::string table = cat("kSegments", std::to_string(design_count_++));
  std::string entries;
  for (std::size_t start = 0; start < tape.size();) {
    std::size_t end = start;
    while (tape[end].code != OpCode::kEnd) ++end;
    const std::string body = lower_segment(&tape[start], end - start);
    if (!body.empty()) {
      entries += cat("    {", std::to_string(start), ", ", function_for(body),
                     "},\n");
    }
    start = end + 1;
  }
  tables_ += cat("constexpr CompiledSegment ", table, "[] = {\n", entries,
                 "};\n\n");
  const Fingerprint& fingerprint = kernel.fingerprint();
  designs_ += cat("    {\"", name, "\", {", hex(fingerprint.lo), ", ",
                  hex(fingerprint.hi), "}, ", std::to_string(tape.size()),
                  ", ", table, "},\n");
}

std::string SegmentEmitter::source(std::string_view header,
                                   std::string_view function) const {
  return cat(
      "// Generated from the shipped sysgen designs by the segment\n"
      "// generator (DESIGN.md §15, \"Compiled segments\"); do not edit.\n"
      "#include <limits>\n"
      "#include <mutex>\n\n"
      "#include \"", header, "\"\n"
      "#include \"sysgen/compiled.hpp\"\n"
      "#include \"sysgen/ops.hpp\"\n\n"
      "namespace {\n"
      "using mbcosim::i64;\n"
      "using mbcosim::sysgen::CompiledDesign;\n"
      "using mbcosim::sysgen::CompiledSegment;\n"
      "using mbcosim::sysgen::Op;\n"
      "using mbcosim::sysgen::PassState;\n"
      "namespace ops = mbcosim::sysgen::ops;\n\n",
      functions_, tables_,
      "const CompiledDesign kDesigns[] = {\n", designs_, "};\n"
      "}  // namespace\n\n"
      "void ", function, "() {\n"
      "  static std::once_flag once;\n"
      "  std::call_once(once,\n"
      "                 [] { mbcosim::sysgen::register_compiled(kDesigns); });\n"
      "}\n");
}

}  // namespace mbcosim::sysgen
