#include "sysgen/compiled.hpp"

#include <mutex>
#include <vector>

namespace mbcosim::sysgen {

namespace {
struct Registry {
  std::mutex mutex;
  std::vector<const CompiledDesign*> designs;
};

Registry& registry() {
  static Registry instance;
  return instance;
}

const CompiledDesign* find_locked(const Registry& registry,
                                  const Fingerprint& fingerprint,
                                  std::size_t tape_size) {
  for (const CompiledDesign* design : registry.designs) {
    if (design->fingerprint == fingerprint && design->tape_size == tape_size) {
      return design;
    }
  }
  return nullptr;
}
}  // namespace

void register_compiled(std::span<const CompiledDesign> designs) {
  Registry& r = registry();
  const std::lock_guard lock(r.mutex);
  for (const CompiledDesign& design : designs) {
    if (find_locked(r, design.fingerprint, design.tape_size) == nullptr) {
      r.designs.push_back(&design);
    }
  }
}

const CompiledDesign* find_compiled(const Fingerprint& fingerprint,
                                    std::size_t tape_size) {
  Registry& r = registry();
  const std::lock_guard lock(r.mutex);
  return find_locked(r, fingerprint, tape_size);
}

}  // namespace mbcosim::sysgen
