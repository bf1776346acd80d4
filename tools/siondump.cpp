// siondump — print the metadata of a SION multifile.
//
// Usage: siondump [--chunks] <multifile>
#include <cstdio>

#include "common/options.h"
#include "fs/posix_fs.h"
#include "tools/dump.h"

int main(int argc, char** argv) {
  const sion::Options opts(argc, argv, {"chunks"});
  if (const auto stop = opts.stop()) {
    std::fputs(stop->text.c_str(), stop->code == 0 ? stdout : stderr);
    return stop->code;
  }
  if (opts.positional().size() != 1) {
    std::fprintf(stderr, "usage: %s [--chunks] <multifile>\n",
                 opts.program().c_str());
    return 2;
  }
  sion::fs::PosixFs fs;
  sion::tools::DumpOptions dump;
  dump.per_chunk = opts.get_bool("chunks");
  auto text = sion::tools::dump_multifile(fs, opts.positional()[0], dump);
  if (!text.ok()) {
    std::fprintf(stderr, "siondump: %s\n", text.status().to_string().c_str());
    return 1;
  }
  std::fputs(text.value().c_str(), stdout);
  return 0;
}
