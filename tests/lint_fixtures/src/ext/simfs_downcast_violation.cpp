// Fixture: library code outside src/fs/sim/ that includes the simulator's
// header or downcasts a FileSystem to SimFs must fire `simfs-downcast`.
// Mentions in comments or strings, and other includes, must not:
// #include "fs/sim/simfs.h" and dynamic_cast<fs::SimFs*>(&fs) here never fire.
#include "fs/filesystem.h"
#include "fs/sim/machine.h"
#include "fs/sim/simfs.h"  // sion-lint-expect: simfs-downcast

namespace sion::ext {

double drain_bandwidth(fs::FileSystem& pfs) {
  const char* label = "dynamic_cast<fs::SimFs*>";
  (void)label;
  auto* s = dynamic_cast<fs::SimFs*>(&pfs);  // sion-lint-expect: simfs-downcast
  return s != nullptr ? s->config().burst_buffer.drain_bandwidth : 0.0;
}

}  // namespace sion::ext
