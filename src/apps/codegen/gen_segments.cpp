// The pass generator: writes compiled_designs_source(), the compiled
// passes of every design point in apps/compiled_designs.hpp, to the file
// the library builds.
//
//   mbc_gen_segments <output.cpp>
//
// The build runs it; two runs write the same bytes.
#include <cstdio>
#include <fstream>

#include "apps/compiled_designs.hpp"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: mbc_gen_segments <output.cpp>\n");
    return 2;
  }
  std::ofstream out(argv[1], std::ios::binary | std::ios::trunc);
  out << mbcosim::apps::compiled_designs_source();
  out.close();
  if (!out) {
    std::fprintf(stderr, "mbc_gen_segments: cannot write %s\n", argv[1]);
    return 1;
  }
  return 0;
}
