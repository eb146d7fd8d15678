#include "core/manycore.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "ckpt/ckpt.hpp"

namespace mbcosim::core {

namespace {

/// Effectively-infinite per-core deadlock threshold: a core starving on
/// a cross-link looks exactly like a core starving on slow hardware,
/// and only the machine-level heuristic may call it a deadlock.
constexpr Cycle kNeverDeadlock = ~Cycle{0} >> 1;

/// Polls of a round-barrier word before the waiter parks on it, about
/// 100 µs on a current x86 core: long enough to cover the gap between
/// two 64-cycle rounds without a futex round trip, short enough that an
/// idle engine soon sleeps.
constexpr unsigned kSpinBudget = 4096;

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Wait until `word` no longer holds `value`: spin, then park. Returns
/// the new value (acquire: the writer's preceding stores are visible).
u32 await_change(const std::atomic<u32>& word, u32 value) noexcept {
  for (unsigned spin = 0; spin < kSpinBudget; ++spin) {
    const u32 now = word.load(std::memory_order_acquire);
    if (now != value) return now;
    cpu_relax();
  }
  word.wait(value, std::memory_order_acquire);
  return word.load(std::memory_order_acquire);
}

}  // namespace

ManyCoreEngine::~ManyCoreEngine() { stop_helpers(); }

std::size_t ManyCoreEngine::add_core(std::string name, iss::Processor& cpu,
                                     CoSimEngine& engine, fsl::FslHub& hub) {
  Node node;
  node.name = std::move(name);
  node.cpu = &cpu;
  node.engine = &engine;
  node.hub = &hub;
  nodes_.push_back(std::move(node));
  if (nodes_.size() > 1) {
    for (Node& each : nodes_) {
      each.engine->set_deadlock_threshold(kNeverDeadlock);
    }
  }
  return nodes_.size() - 1;
}

Status ManyCoreEngine::link(std::size_t from_core, unsigned from_channel,
                            std::size_t to_core, unsigned to_channel) {
  if (from_core >= nodes_.size() || to_core >= nodes_.size()) {
    return Status::failure("ManyCoreEngine::link: core index out of range");
  }
  if (from_channel >= fsl::FslHub::kChannels ||
      to_channel >= fsl::FslHub::kChannels) {
    return Status::failure("ManyCoreEngine::link: channel id out of range");
  }
  CrossLink link;
  link.from_core = from_core;
  link.to_core = to_core;
  link.source = &nodes_[from_core].hub->to_hw(from_channel);
  link.sink = &nodes_[to_core].hub->from_hw(to_channel);
  links_.push_back(link);
  return {};
}

u64 ManyCoreEngine::transfer_links() {
  u64 moved = 0;
  for (const CrossLink& link : links_) {
    while (link.source->exists() && !link.sink->full()) {
      const std::optional<fsl::FslEntry> entry = link.source->try_read();
      if (!entry) break;
      link.sink->try_write(entry->data, entry->control);
      ++moved;
    }
  }
  link_words_ += moved;
  return moved;
}

void ManyCoreEngine::ensure_helpers(std::size_t count) {
  if (helpers_.size() == count) return;
  stop_helpers();
  // No round is in flight: each helper starts waiting for the epoch
  // after this one.
  const u32 epoch = epoch_.load(std::memory_order_relaxed);
  for (std::size_t thread = 1; thread <= count; ++thread) {
    helpers_.emplace_back([this, thread, epoch] {
      u32 seen = epoch;
      while (true) {
        seen = await_change(epoch_, seen);
        if (stopping_) return;
        advance_share(thread);
        done_.fetch_add(1, std::memory_order_release);
        done_.notify_one();
      }
    });
  }
}

void ManyCoreEngine::stop_helpers() {
  if (helpers_.empty()) return;
  stopping_ = true;
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  helpers_.clear();  // joins
  stopping_ = false;
}

void ManyCoreEngine::place() {
  shares_.assign(helpers_.size() + 1, {});
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].finished) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     return nodes_[a].window_ns > nodes_[b].window_ns;
                   });
  std::vector<u64> load(shares_.size(), 0);
  for (const std::size_t i : order) {
    const std::size_t thread = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    shares_[thread].push_back(i);
    // +1: cores not yet measured still spread across the threads.
    load[thread] += nodes_[i].window_ns + 1;
    nodes_[i].window_ns = 0;
  }
  for (std::vector<std::size_t>& share : shares_) {
    std::sort(share.begin(), share.end());
  }
  helpers_have_work_ =
      std::any_of(shares_.begin() + 1, shares_.end(),
                  [](const std::vector<std::size_t>& share) {
                    return !share.empty();
                  });
}

void ManyCoreEngine::advance_share(std::size_t thread) {
  // Touches only the share's own nodes: each core's processor, hardware
  // model, FIFOs and trace bus are private until the round barrier.
  using Clock = std::chrono::steady_clock;
  Clock::time_point start = Clock::now();
  for (const std::size_t i : shares_[thread]) {
    Node& node = nodes_[i];
    if (node.finished) continue;
    node.last = node.engine->run(round_target_);
    if (node.last == StopReason::kHalted) node.finished = true;
    const Clock::time_point end = Clock::now();
    const u64 ns = static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count());
    node.host_ns += ns;
    node.window_ns += ns;
    start = end;
  }
}

std::size_t ManyCoreEngine::run_round(Cycle target) {
  round_target_ = target;
  if (helpers_have_work_) {
    done_.store(0, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
  }
  advance_share(0);
  if (helpers_have_work_) {
    const u32 helpers = static_cast<u32>(helpers_.size());
    for (u32 done = done_.load(std::memory_order_acquire); done != helpers;) {
      done = await_change(done_, done);
    }
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].finished && nodes_[i].last == StopReason::kIllegal) {
      return i;
    }
  }
  return nodes_.size();
}

void ManyCoreEngine::note_halt(std::size_t index) {
  const Cycle cycle = nodes_[index].cpu->cycle();
  if (last_halted_core_ == MachineStop::kNoCore ||
      cycle >= last_halt_cycle_) {
    last_halted_core_ = index;
    last_halt_cycle_ = cycle;
  }
}

MachineStop ManyCoreEngine::run(Cycle max_cycles) {
  if (nodes_.empty()) return {StopReason::kHalted, MachineStop::kNoCore};
  // A lone core shares no link, so it needs no rounds: it runs straight
  // to the target under its own deadlock rule, and every stop is its own.
  if (nodes_.size() == 1) return {nodes_.front().engine->run(max_cycles), 0};

  // Resume from wherever the clocks are (run() composes with
  // debug_step()); unfinished cores are at most one round apart.
  Cycle global = 0;
  std::size_t live = 0;
  for (const Node& node : nodes_) {
    if (node.finished) continue;
    ++live;
    global = std::max(global, node.cpu->cycle());
  }
  if (live == 0) return {StopReason::kHalted, last_halted_core_};

  unsigned workers = workers_ == 0 ? std::thread::hardware_concurrency()
                                   : workers_;
  workers = std::max(workers, 1u);
  workers = static_cast<unsigned>(
      std::min<std::size_t>(workers, nodes_.size()));
  // Worker count and placement never affect results (see the file
  // comment), only host wall-clock.
  if (live > 1) ensure_helpers(workers - 1);
  place();

  Cycle stalled = 0;
  unsigned rounds = 0;
  // Halt attribution: run_round flips finished flags on helper threads,
  // so which cores halted this round is recovered here by diffing the
  // flags across the barrier — note_halt runs orchestrator-side only.
  std::vector<char> was_finished(nodes_.size(), 0);
  while (global < max_cycles) {
    if (++rounds % kPlacementRounds == 0) place();
    const Cycle target = std::min(global + quantum_, max_cycles);
    u64 instructions_before = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      instructions_before += nodes_[i].cpu->stats().instructions;
      was_finished[i] = nodes_[i].finished ? 1 : 0;
    }

    const std::size_t trapped = run_round(target);
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (was_finished[i] == 0 && nodes_[i].finished) note_halt(i);
    }
    if (trapped < nodes_.size()) return {StopReason::kIllegal, trapped};

    const u64 moved = transfer_links();
    u64 instructions_after = 0;
    live = 0;
    for (const Node& node : nodes_) {
      instructions_after += node.cpu->stats().instructions;
      if (!node.finished) ++live;
    }
    if (live == 0) return {StopReason::kHalted, last_halted_core_};

    if (moved == 0 && instructions_after == instructions_before) {
      stalled += target - global;
      if (stalled >= deadlock_threshold_) {
        // Blame the first core parked on a decodable FSL access; fall
        // back to the first live core when none decodes (e.g. a custom
        // busy-wait) so the diagnosis always names a core.
        std::size_t fallback = nodes_.size();
        std::size_t blamed = nodes_.size();
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
          if (nodes_[i].finished) continue;
          if (fallback == nodes_.size()) fallback = i;
          DeadlockDiagnosis diagnosis =
              diagnose_deadlock(*nodes_[i].cpu, *nodes_[i].hub, stalled);
          if (!diagnosis.channel.empty()) {
            blamed = i;
            last_deadlock_ = std::move(diagnosis);
            break;
          }
        }
        if (blamed == nodes_.size()) {
          blamed = fallback;
          last_deadlock_ = diagnose_deadlock(*nodes_[fallback].cpu,
                                             *nodes_[fallback].hub, stalled);
        }
        return {StopReason::kDeadlock, blamed};
      }
    } else {
      stalled = 0;
    }
    global = target;
  }
  return {StopReason::kCycleLimit, MachineStop::kNoCore};
}

iss::StepResult ManyCoreEngine::debug_step(std::size_t index) {
  Node& node = nodes_[index];
  // A halted core is terminal: stepping it again must not re-execute
  // the halt instruction (which would skew its cycle/instruction
  // counters and could drag other cores forward). Report the halt.
  if (node.finished) return {iss::Event::kHalted, 0};
  const iss::StepResult result = node.engine->debug_step();
  if (result.event == iss::Event::kHalted) {
    node.finished = true;
    note_halt(index);
  }
  // A one-instruction round: every other live core catches up to the
  // stepped core's clock, then the links transfer as usual, so single
  // stepping from gdb observes the same machine a free run would.
  const Cycle target = node.cpu->cycle();
  for (std::size_t j = 0; j < nodes_.size(); ++j) {
    if (j == index || nodes_[j].finished) continue;
    nodes_[j].last = nodes_[j].engine->run(target);
    if (nodes_[j].last == StopReason::kHalted) {
      nodes_[j].finished = true;
      note_halt(j);
    }
  }
  transfer_links();
  return result;
}

void ManyCoreEngine::save_state(ckpt::Writer& writer) const {
  writer.write_u64(nodes_.size());
  for (const Node& node : nodes_) {
    writer.write_bool(node.finished);
    writer.write_u8(static_cast<u8>(node.last));
  }
  writer.write_u64(link_words_);
  writer.write_u64(static_cast<u64>(last_halted_core_));
  writer.write_u64(last_halt_cycle_);
}

bool ManyCoreEngine::load_state(ckpt::Reader& reader) {
  if (reader.read_u64() != nodes_.size()) return false;
  for (Node& node : nodes_) {
    node.finished = reader.read_bool();
    const u8 last = reader.read_u8();
    if (last > static_cast<u8>(StopReason::kDeadlock)) return false;
    node.last = static_cast<StopReason>(last);
  }
  link_words_ = reader.read_u64();
  last_halted_core_ = static_cast<std::size_t>(reader.read_u64());
  last_halt_cycle_ = reader.read_u64();
  last_deadlock_.reset();
  return reader.ok();
}

CoSimStats ManyCoreEngine::aggregate_stats() const {
  CoSimStats total;
  for (const Node& node : nodes_) {
    const CoSimStats stats = node.engine->stats();
    total.cycles = std::max(total.cycles, stats.cycles);
    total.instructions += stats.instructions;
    total.fsl_stall_cycles += stats.fsl_stall_cycles;
    total.hw_cycles_stepped += stats.hw_cycles_stepped;
    total.hw_cycles_skipped += stats.hw_cycles_skipped;
    total.bridge.words_to_hw += stats.bridge.words_to_hw;
    total.bridge.words_from_hw += stats.bridge.words_from_hw;
    total.bridge.refused_writes += stats.bridge.refused_writes;
  }
  return total;
}

}  // namespace mbcosim::core
