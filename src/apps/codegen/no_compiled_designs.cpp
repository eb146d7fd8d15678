// The generator builds the designs before any of them is compiled: its
// design builders register nothing, and every pass it lowers comes from
// the interpreter's tape.
#include "apps/compiled_designs.hpp"

void mbcosim::apps::register_compiled_designs() {}
