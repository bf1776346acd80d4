// siondefrag — rewrite a multifile with all blocks contracted into a single
// chunk per task and all gaps removed.
//
// Usage: siondefrag [--nfiles=N] [--blksize=SIZE] <input> <output>
#include <cstdio>

#include "common/options.h"
#include "fs/posix_fs.h"
#include "tools/defrag.h"

int main(int argc, char** argv) {
  const sion::Options opts(argc, argv, {"nfiles", "blksize"});
  if (const auto stop = opts.stop()) {
    std::fputs(stop->text.c_str(), stop->code == 0 ? stdout : stderr);
    return stop->code;
  }
  if (opts.positional().size() != 2) {
    std::fprintf(stderr,
                 "usage: %s [--nfiles=N] [--blksize=SIZE] <input> <output>\n",
                 opts.program().c_str());
    return 2;
  }
  sion::fs::PosixFs fs;
  sion::tools::DefragOptions defrag;
  defrag.nfiles = static_cast<int>(opts.get_u64("nfiles"));
  defrag.fsblksize = opts.get_u64("blksize");
  auto st = sion::tools::defrag_multifile(fs, opts.positional()[0],
                                          opts.positional()[1], defrag);
  if (!st.ok()) {
    std::fprintf(stderr, "siondefrag: %s\n", st.to_string().c_str());
    return 1;
  }
  std::printf("defragmented %s -> %s\n", opts.positional()[0].c_str(),
              opts.positional()[1].c_str());
  return 0;
}
