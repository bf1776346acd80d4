// sionsplit — extract logical task-local files from a multifile and
// recreate them as physical files.
//
// Usage: sionsplit [--rank=N] <multifile> <output-prefix>
#include <cstdio>

#include "common/options.h"
#include "fs/posix_fs.h"
#include "tools/split.h"

int main(int argc, char** argv) {
  const sion::Options opts(argc, argv, {"rank"});
  if (const auto stop = opts.stop()) {
    std::fputs(stop->text.c_str(), stop->code == 0 ? stdout : stderr);
    return stop->code;
  }
  if (opts.positional().size() != 2) {
    std::fprintf(stderr, "usage: %s [--rank=N] <multifile> <output-prefix>\n",
                 opts.program().c_str());
    return 2;
  }
  sion::fs::PosixFs fs;
  sion::tools::SplitOptions split;
  split.only_rank = opts.has("rank")
                        ? static_cast<int>(opts.get_u64("rank"))
                        : -1;
  auto n = sion::tools::split_multifile(fs, opts.positional()[0],
                                        opts.positional()[1], split);
  if (!n.ok()) {
    std::fprintf(stderr, "sionsplit: %s\n", n.status().to_string().c_str());
    return 1;
  }
  std::printf("extracted %d logical file(s) to %s.*\n", n.value(),
              opts.positional()[1].c_str());
  return 0;
}
