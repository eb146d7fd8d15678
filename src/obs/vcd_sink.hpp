// VCD waveform sink: turns TraceEvents into GTKWave-loadable waveforms —
// the observability analog of the Simulink scope windows the paper
// attaches to the co-simulated design. Derived signals:
//
//   cpu.pc        [32]  program counter at each instruction step
//   cpu.stall     [1]   high while the processor is FSL-blocked
//   cpu.halted    [1]   high once the program halted (or trapped)
//   fsl.<ch>.occ  [n]   FIFO occupancy after every push/pop/refusal
//   fsl.<ch>.full [1]   FIFO backpressure flag (In#_full)
//   opb.wait      [8]   wait states of the latest OPB transaction
//   engine.qskip  [32]  cumulative quiescence-skipped hardware cycles
//
// Signals register themselves the first time an event mentions them, and
// the VCD header needs the complete signal list, so value changes are
// buffered in memory and the whole file is written at flush(). Timescale
// is one simulated clock cycle per VCD time unit.
#pragma once

#include <fstream>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/trace_bus.hpp"

namespace mbcosim::obs {

class VcdSink : public TraceSink {
 public:
  /// Write to a stream the caller keeps alive (tests).
  explicit VcdSink(std::ostream& out) : out_(&out) {}
  /// Write to a file owned by the sink.
  explicit VcdSink(const std::string& path)
      : file_(path), out_(&file_), path_(path) {}

  [[nodiscard]] bool ok() const noexcept {
    return out_ != &file_ || file_.good();
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  void on_event(const TraceEvent& event) override;
  /// Write header + buffered value changes. One-shot: later events are
  /// dropped (flush runs when the observed run completes).
  void flush() override;
  /// I/O health, checked when flush() writes the buffered waveform.
  [[nodiscard]] Status status() const override { return status_; }

 private:
  struct Change {
    Cycle time = 0;
    u32 signal = 0;
    u64 value = 0;
  };

  /// Index of the signal named `name`, registering it (with `width`
  /// bits) on first use.
  u32 signal(const std::string& name, u32 width);
  void record(u32 signal_index, Cycle time, u64 value);
  static std::string identifier(std::size_t index);

  std::ofstream file_;
  std::ostream* out_;
  std::string path_;
  std::map<std::string, u32> index_;  ///< name -> position in names_
  std::vector<std::string> names_;
  std::vector<u32> widths_;
  std::vector<Change> changes_;
  u64 quiesce_skipped_total_ = 0;
  u64 fault_injects_ = 0;
  bool flushed_ = false;
  Status status_;
};

}  // namespace mbcosim::obs
