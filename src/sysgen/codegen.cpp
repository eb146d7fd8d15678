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

std::string slot(u32 index) { return cat("s[", std::to_string(index), "]"); }

/// What a pass uses besides the arena and the body queue, so that it
/// declares no unused local.
struct Uses {
  bool mux = false;     ///< the kMux source lists
  bool queues = false;  ///< the serializer queues
  bool marks = false;   ///< fanout marks
  bool closes = false;  ///< a segment with state ops
};

/// The case of a pass's switch that runs the segment at `start`: its ops,
/// its count and, when it holds state ops, its close; "" when an op has
/// no lowering (a code without a case below).
std::string lower_segment(const Kernel& kernel, u32 start, Uses& uses) {
  const std::vector<Op>& tape = kernel.tape();
  constexpr const char* kIndent = "        ";
  // Slots written earlier in the segment, and the local holding each.
  std::unordered_map<u32, std::string> known;
  std::string body;
  bool stateful = false;
  u32 at = start;
  for (; tape[at].code != OpCode::kEnd; ++at) {
    const Op& op = tape[at];
    auto read = [&](u32 index) {
      const auto it = known.find(index);
      return it != known.end() ? it->second : slot(index);
    };
    const std::string dst = slot(op.dst);
    const std::string a = op.a != kNoSlot ? read(op.a) : "";
    const std::string b = op.b != kNoSlot ? read(op.b) : "";
    const std::string v = cat("v", std::to_string(at - start));
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
        body += cat(kIndent, "const i64 ", v, " = ", a, ";\n");
        body += cat(kIndent, "if (ops::update(", dst, ", ", v, ")) {\n");
        for (i64 j = op.k; j < op.k2; ++j) {
          const u32 region = kernel.fanout()[static_cast<std::size_t>(j)];
          body += cat(kIndent, "  mark(", std::to_string(region), ", ",
                      std::to_string(kernel.regions()[region].body), ");\n");
        }
        body += cat(kIndent, "}\n");
        known[op.dst] = v;
        uses.marks = true;
        continue;
      case OpCode::kShrVar:
        value = cat("ops::shr_var(", a, ", ", b, ", ", k, ")");
        break;
      case OpCode::kMux:
        value = cat("ops::mux(s, mux + ", std::to_string(op.ext), ", ", a,
                    ", ", k, ")");
        uses.mux = true;
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
        body += cat(kIndent, "const i64 ", v, " = ops::wrap_ext(", a, ", ",
                    wrap, ");\n");
        body += cat(kIndent, "changed |= ops::update(", dst, ", ", v, ");\n");
        known[op.dst] = v;
        stateful = true;
        continue;
      case OpCode::kRegisterExt:
        body += cat(kIndent, "changed |= ops::register_ext(", dst, ", ", a,
                    ", ", read(op.c), ", ", wrap, ");\n");
        known.erase(op.dst);
        stateful = true;
        continue;
      case OpCode::kCounter:
        body += cat(kIndent, "changed |= ops::counter(", dst, ", ", a, ", ", b,
                    ", ", k, ");\n");
        known.erase(op.dst);
        stateful = true;
        continue;
      case OpCode::kSerialize:
        body += cat(kIndent, "changed |= ops::serialize(*queues[",
                    std::to_string(op.ext), "], s, ", a, ", ", b, ");\n");
        uses.queues = true;
        stateful = true;
        continue;
      default:
        return "";
    }
    body += cat(kIndent, "const i64 ", v, " = ", value, ";\n");
    body += cat(kIndent, dst, " = ", v, ";\n");
    known[op.dst] = v;
  }
  const Op& end = tape[at];
  std::string text = cat("      case ", std::to_string(start), ": {\n");
  if (stateful) text += cat(kIndent, "bool changed = false;\n");
  text += body;
  // The closing kEnd counts the segment's ops, itself included
  // (KernelStats).
  text += cat(kIndent, "ran += ", literal(end.k2), ";\n");
  if (stateful) {
    // The region runs again next pass, phase-0 segment and all.
    const auto region = static_cast<u32>(end.k);
    const RegionSegments& segments = kernel.regions()[region];
    text += cat(kIndent, "if (changed) {\n");
    text += cat(kIndent, "  stamp[", std::to_string(region),
                "] = pass + 1;\n");
    if (segments.outputs != kNoSegment) {
      text += cat(kIndent, "  next_outputs[next_output_count++] = ",
                  std::to_string(segments.outputs), ";\n");
    }
    text += cat(kIndent, "  next_bodies[next_body_count++] = ",
                std::to_string(segments.body), ";\n");
    text += cat(kIndent, "}\n");
    uses.closes = true;
  }
  text += cat(kIndent, "break;\n      }\n");
  return text;
}
}  // namespace

void PassEmitter::add(std::string_view name, const Kernel& kernel) {
  const std::vector<Op>& tape = kernel.tape();
  Uses uses;
  std::string cases;
  for (u32 start = 0; start < tape.size();) {
    const std::string segment = lower_segment(kernel, start, uses);
    if (segment.empty()) return;
    cases += segment;
    while (tape[start].code != OpCode::kEnd) ++start;
    ++start;
  }
  const std::string function = cat("pass_", name);
  std::string text = cat("void ", function, "(PassState& p) {\n",
                         "  i64* const s = p.s;\n");
  if (uses.mux) text += "  const u32* const mux = p.mux_sources;\n";
  if (uses.queues) text += "  SerialQueue* const* const queues = p.queues;\n";
  if (uses.marks || uses.closes) {
    text += "  u64* const stamp = p.stamp;\n"
            "  const u64 pass = p.pass;\n";
  }
  text += "  u32* const bodies = p.bodies;\n"
          "  u32 queued = p.body_count;\n";
  if (uses.closes) {
    text += "  u32* const next_outputs = p.next_outputs;\n"
            "  u32* const next_bodies = p.next_bodies;\n";
  }
  text += "  u32 next_output_count = 0;\n"
          "  u32 next_body_count = 0;\n"
          "  u64 segments = 0;\n"
          "  u64 ran = 0;\n";
  if (uses.marks) {
    text += "  // Queue the body at `body` of `region` for this pass, once.\n"
            "  auto mark = [&](u32 region, u32 body) {\n"
            "    if (stamp[region] != pass) {\n"
            "      stamp[region] = pass;\n"
            "      bodies[queued++] = body;\n"
            "    }\n"
            "  };\n";
  }
  text += cat(
      "  // The queued sources, then the queued phase-0 segments, then the\n"
      "  // queued bodies, those the marks queued included.\n"
      "  const u32* cursor = p.sources;\n"
      "  const u32* stop = cursor + p.source_count;\n"
      "  for (unsigned stage = 0;;) {\n"
      "    if (cursor == stop) {\n"
      "      if (stage == 2) break;\n"
      "      if (++stage == 1) {\n"
      "        cursor = p.outputs;\n"
      "        stop = cursor + p.output_count;\n"
      "      } else {\n"
      "        cursor = bodies;\n"
      "        stop = cursor + queued;\n"
      "      }\n"
      "      continue;\n"
      "    }\n"
      "    ++segments;\n"
      "    switch (*cursor++) {\n",
      cases,
      "      default:\n"
      "        __builtin_unreachable();\n"
      "    }\n"
      "  }\n"
      "  p.next_output_count = next_output_count;\n"
      "  p.next_body_count = next_body_count;\n"
      "  p.segments = segments;\n"
      "  p.ops = ran;\n"
      "}\n\n");
  passes_ += text;
  const Fingerprint& fingerprint = kernel.fingerprint();
  designs_ += cat("    {\"", name, "\", {", hex(fingerprint.lo), ", ",
                  hex(fingerprint.hi), "}, ", std::to_string(tape.size()),
                  ", ", function, "},\n");
}

std::string PassEmitter::source(std::string_view header,
                                std::string_view function) const {
  return cat(
      "// Generated from the shipped sysgen designs by the pass generator\n"
      "// (DESIGN.md §15, \"Compiled passes\"); do not edit.\n"
      "#include <limits>\n"
      "#include <mutex>\n\n"
      "#include \"", header, "\"\n"
      "#include \"sysgen/compiled.hpp\"\n"
      "#include \"sysgen/ops.hpp\"\n\n"
      "namespace {\n"
      "using mbcosim::i64;\n"
      "using mbcosim::u32;\n"
      "using mbcosim::u64;\n"
      "using mbcosim::sysgen::CompiledDesign;\n"
      "using mbcosim::sysgen::PassState;\n"
      "using mbcosim::sysgen::SerialQueue;\n"
      "namespace ops = mbcosim::sysgen::ops;\n\n",
      passes_,
      "const CompiledDesign kDesigns[] = {\n", designs_, "};\n"
      "}  // namespace\n\n"
      "void ", function, "() {\n"
      "  static std::once_flag once;\n"
      "  std::call_once(once,\n"
      "                 [] { mbcosim::sysgen::register_compiled(kDesigns); });\n"
      "}\n");
}

}  // namespace mbcosim::sysgen
