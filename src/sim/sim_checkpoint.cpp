// Whole-system snapshot/restore over the sealed ckpt format (DESIGN.md
// §11). Payload layout, all little-endian via ckpt::Writer:
//
//   u64 shape fingerprint   fnv1a(machine description JSON)
//   u64 core count          shape check against the built system
//   per core, in machine order:
//     cpu, memory, hub      component save_state payloads
//     bool has hardware     + hardware model payload (iff the core has one)
//     engine                counters, stall streak and bridge (every core)
//     bool has opb          + bus and peripheral payloads (iff attached)
//   machine engine          run progress, the open round included
//
// Every machine writes the same layout, and everything a run carries
// from one call to the next is in it: a restored run is the uncut run.
//
// The fingerprint covers everything structural (core names, programs,
// peripherals, links, FIFO depth), so a stale or foreign image fails
// loudly with "[ckpt-shape]" instead of scrambling a lookalike machine.
// A fault *plan* is deliberately not part of the fingerprint: it lives
// in the injector, not the description, so a fault-free base image
// restores into the faulted forks of a campaign (fault::run_campaign).
#include <cstdio>
#include <string>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "fault/injector.hpp"
#include "sim/sim_state.hpp"
#include "sim/sim_system.hpp"

namespace mbcosim::sim {

namespace {

/// Room a snapshot reserves for everything but the memory images: the
/// CORDIC farm's processors, hubs, engines and 16-PE model take ~7 KiB.
constexpr std::size_t kStateBytesHint = 16 * 1024;

[[nodiscard]] u64 shape_fingerprint(const machine::MachineDesc& desc) {
  return ckpt::fnv1a(desc.to_json());
}

[[nodiscard]] Status shape_error(const std::string& detail) {
  return Status::failure(std::string(ckpt::kCkptErrorCodes[5]) + " " + detail);
}

}  // namespace

std::vector<unsigned char> SimSystem::snapshot() const {
  ckpt::Writer writer;
  // One allocation for the memory images, the rest of the state and the
  // header seal() puts in front.
  std::size_t memory_bytes = 0;
  for (const auto& core : state_->cores) {
    memory_bytes += core->memory.size_bytes();
  }
  writer.reserve(ckpt::kHeaderBytes + memory_bytes + kStateBytesHint);
  writer.write_u64(shape_fingerprint(state_->desc));
  writer.write_u64(state_->cores.size());
  for (const auto& core : state_->cores) {
    core->cpu.save_state(writer);
    core->memory.save_state(writer);
    core->hub.save_state(writer);
    writer.write_bool(core->hardware != nullptr);
    if (core->hardware) core->hardware->save_state(writer);
    core->engine.save_state(writer);
    writer.write_bool(core->opb != nullptr);
    if (core->opb) core->opb->save_state(writer);
  }
  state_->machine_engine.save_state(writer);
  return ckpt::seal(writer.take());
}

Status SimSystem::restore_image(const std::vector<unsigned char>& image) {
  Expected<std::vector<unsigned char>> payload = ckpt::unseal(image);
  if (!payload) return Status::failure(payload.error());
  ckpt::Reader reader(payload.value());

  const u64 fingerprint = reader.read_u64();
  if (fingerprint != shape_fingerprint(state_->desc)) {
    return shape_error(
        "checkpoint was taken on a different machine description");
  }
  if (reader.read_u64() != state_->cores.size()) {
    return shape_error("checkpoint core count does not match this machine");
  }
  for (auto& core : state_->cores) {
    const std::string prefix = "core '" + core->name + "': ";
    if (!core->cpu.load_state(reader)) {
      return shape_error(prefix + "processor state does not fit");
    }
    if (!core->memory.load_state(reader)) {
      return shape_error(prefix + "memory image does not fit");
    }
    core->cpu.revalidate_text();
    if (!core->hub.load_state(reader)) {
      return shape_error(prefix + "FSL hub state does not fit");
    }
    if (reader.read_bool() != (core->hardware != nullptr)) {
      return shape_error(prefix + "hardware model presence does not match");
    }
    if (core->hardware && !core->hardware->load_state(reader)) {
      return shape_error(prefix + "hardware model state does not fit");
    }
    if (!core->engine.load_state(reader)) {
      return shape_error(prefix + "engine state does not fit");
    }
    if (reader.read_bool() != (core->opb != nullptr)) {
      return shape_error(prefix + "OPB bus presence does not match");
    }
    if (core->opb && !core->opb->load_state(reader)) {
      return shape_error(prefix + "OPB bus state does not fit");
    }
  }
  if (!state_->machine_engine.load_state(reader)) {
    return shape_error("machine engine state does not fit");
  }
  if (!reader.ok()) {
    return Status::failure(std::string(ckpt::kCkptErrorCodes[3]) +
                           " checkpoint payload ends early");
  }
  if (reader.remaining() != 0) {
    return shape_error("checkpoint payload has trailing bytes");
  }
  state_->stop_core = 0;
  return {};
}

Status SimSystem::save_checkpoint(const std::string& path) const {
  return ckpt::write_file(path, snapshot());
}

std::vector<unsigned char> SimSystem::metrics_state() const {
  ckpt::Writer writer;
  writer.write_u32(static_cast<u32>(state_->cores.size()));
  for (const auto& core : state_->cores) {
    writer.write_bool(core->metrics != nullptr);
    if (core->metrics != nullptr) core->metrics->save_state(writer);
  }
  return writer.take();
}

Status SimSystem::restore_metrics_state(
    const std::vector<unsigned char>& state) {
  ckpt::Reader reader(state);
  const u32 cores = reader.read_u32();
  if (cores != state_->cores.size()) {
    return Status::failure(
        std::string(ckpt::kCkptErrorCodes[5]) + " metrics state covers " +
        std::to_string(cores) + " core(s), this system has " +
        std::to_string(state_->cores.size()));
  }
  for (const auto& core : state_->cores) {
    const bool present = reader.read_bool();
    if (present != (core->metrics != nullptr)) {
      return Status::failure(
          std::string(ckpt::kCkptErrorCodes[5]) +
          " metrics state does not match this system's metrics wiring");
    }
    if (present && !core->metrics->load_state(reader) && reader.ok()) {
      return Status::failure(
          std::string(ckpt::kCkptErrorCodes[5]) +
          " metrics state names a counter this system does not keep");
    }
  }
  if (!reader.ok()) {
    return Status::failure(std::string(ckpt::kCkptErrorCodes[3]) +
                           " metrics state ends early");
  }
  return {};
}

Status SimSystem::restore(const std::string& path) {
  Expected<std::vector<unsigned char>> image = ckpt::read_file(path);
  if (!image) return Status::failure(image.error());
  return restore_image(image.value());
}

}  // namespace mbcosim::sim
