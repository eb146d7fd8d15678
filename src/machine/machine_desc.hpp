// Declarative machine descriptions — the unit of construction for the
// co-simulator. A MachineDesc says *what* to build: how many soft
// processors, what program and ISA options each runs, which hardware
// peripherals hang off which FSL channels, and which FSL channels are
// cross-wired between cores (the paper's Figure 3 topology, generalized
// from one MicroBlaze to a farm of them). It deliberately contains no
// live simulator objects, so a description can be parsed from a JSON
// file, validated, pretty-printed back, replicated, and handed to
// sim::SimSystem::Builder::machine() to be instantiated — the same
// split Simulink makes between a block diagram and a running model.
//
// Error channel: parsing and validation never throw and never exit.
// Every failure comes back as an Expected/Status whose message starts
// with a stable bracketed error code ("[duplicate-core] ..."), so
// callers (and tests) can dispatch on the class of error without
// string-matching prose. The full code list is kDescErrorCodes below.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "iss/exec_tier.hpp"

namespace mbcosim::common::json {
struct Value;
}  // namespace mbcosim::common::json

namespace mbcosim::machine {

/// Stable bracketed codes prefixed to every description error message.
/// Tests assert on these; add new codes at the end, never rename.
inline constexpr const char* kDescErrorCodes[] = {
    "[json-syntax]",     // malformed JSON text
    "[missing-field]",   // required key absent
    "[bad-field]",       // key present but wrong type / out of range
    "[no-cores]",        // machine has an empty core list
    "[bad-core-name]",   // empty or non [A-Za-z0-9_] core name
    "[duplicate-core]",  // two cores share a name
    "[no-program]",      // core has neither program nor program_file
    "[program-conflict]",// core has both program and program_file
    "[bad-memory]",      // zero or non-word-multiple memory size
    "[bad-quantum]",     // zero synchronization quantum
    "[bad-fifo-depth]",  // zero FSL FIFO depth
    "[unknown-core]",    // link/peripheral names a core that does not exist
    "[channel-range]",   // FSL channel id outside 0..7
    "[self-link]",       // link with from == to
    "[link-conflict]",   // two links claim the same channel endpoint
    "[channel-conflict]",// peripheral and link (or two peripherals) collide
    "[file-io]",         // machine or program file unreadable
    "[bad-exec-tier]",   // exec_tier is not precise/predecode/dbt
};

/// One soft processor: its program plus its ISA, memory and execution
/// tier options.
struct CoreDesc {
  std::string name;          ///< unique id, [A-Za-z0-9_]+ ("cpu0", "feeder")
  std::string program;       ///< inline MB32 assembly source, or
  std::string program_file;  ///< path to a .s file (exactly one of the two)
  std::size_t memory_bytes = 64 * 1024;
  bool has_barrel_shifter = true;
  bool has_multiplier = true;
  bool has_divider = false;
  bool predecode = true;     ///< legacy on/off: false forces the precise tier
  /// Execution tier when `predecode` is true (JSON key "exec_tier":
  /// "precise" | "predecode" | "dbt"; see iss::ExecTier).
  iss::ExecTier exec_tier = iss::ExecTier::kDbt;
};

/// A cross-core FSL wire: writer core's `put` channel `from_channel`
/// feeds reader core's `get` channel `to_channel`. Transfers happen at
/// quantum boundaries in declaration order (see DESIGN.md §10).
struct LinkDesc {
  std::string from;
  unsigned from_channel = 0;
  std::string to;
  unsigned to_channel = 0;
};

/// A hardware peripheral attached to one core's FSL channel pair. The
/// `type` is resolved against sim::PeripheralRegistry at build time
/// ("cordic", "matmul", plus whatever the embedding registers).
struct PeripheralDesc {
  std::string core;
  std::string type;
  unsigned channel = 0;
  /// Type-specific integer parameters ("num_pes": 8, "block_size": 4).
  std::map<std::string, long long> params;
};

struct MachineDesc {
  std::vector<CoreDesc> cores;
  std::vector<LinkDesc> links;
  std::vector<PeripheralDesc> peripherals;
  std::size_t fifo_depth = 16;  ///< depth of every FSL FIFO in the machine
  /// Conservative synchronization quantum: cores run this many cycles
  /// between cross-link transfer points. Results are quantum-dependent
  /// but worker-count-independent (DESIGN.md §10).
  Cycle quantum = 64;

  /// The single-core shape: one core named "cpu0" running `program`, no
  /// links, no peripherals (add a PeripheralDesc on "cpu0" to attach one).
  [[nodiscard]] static MachineDesc single_core(std::string program);

  /// `count` copies of `core_template`, named <stem>0..<stem>N-1 (the
  /// template's name is the stem, default "cpu"), with no links — the
  /// starting point for farm topologies.
  [[nodiscard]] static MachineDesc replicated(std::size_t count,
                                              CoreDesc core_template);

  /// Parse a description from JSON text / from a file. File-relative
  /// `program_file` entries parsed via from_file() are rewritten to be
  /// relative to the machine file's directory. Both return a validated
  /// description or a "[code] message" error.
  [[nodiscard]] static Expected<MachineDesc> from_json(const std::string& text);
  [[nodiscard]] static Expected<MachineDesc> from_file(const std::string& path);
  /// Build from an already-parsed common::json document (the simulation
  /// server passes the "machine" subtree of a request body straight
  /// through). No path rewriting happens here: `program_file` entries
  /// resolve against the *consumer's* working directory, so inline
  /// `program` text is the portable choice for over-the-wire machines.
  [[nodiscard]] static Expected<MachineDesc> from_value(
      const common::json::Value& root);

  /// Serialize back to JSON. from_json(to_json()) round-trips exactly.
  [[nodiscard]] std::string to_json() const;

  /// Structural validation (names, programs, channel graph). from_json /
  /// from_file already validate; call this after programmatic edits.
  [[nodiscard]] Status validate() const;

  /// Index of the named core, or cores.size() when absent.
  [[nodiscard]] std::size_t core_index(const std::string& name) const;
  [[nodiscard]] const CoreDesc* find_core(const std::string& name) const;
};

}  // namespace mbcosim::machine
