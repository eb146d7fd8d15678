// Registration of the built-in application peripherals with the
// machine-description build path: after register_machine_peripherals()
// a machine JSON file can say
//
//   "peripherals": [{"core": "cpu0", "type": "cordic",
//                    "channel": 0, "num_pes": 8}]
//
// and SimSystem::Builder::machine() will stand up the CORDIC pipeline
// (make_cordic_system() builds its hardware design points this way).
// Registration is explicit (no static-initialization magic): embeddings
// that want the built-ins call this before building such a machine.
#pragma once

namespace mbcosim::apps {

/// Register "cordic" (parameter num_pes >= 1, quiescence num_pes + 16)
/// and "matmul" (parameter block_size in [2, 4], quiescence
/// 2 * block_size + 16) with sim::PeripheralRegistry. Idempotent and
/// thread-safe: repeated calls leave the first registration in place.
void register_machine_peripherals();

}  // namespace mbcosim::apps
