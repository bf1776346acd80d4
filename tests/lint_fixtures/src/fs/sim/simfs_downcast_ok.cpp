// Fixture: the simulator's own directory may include its header and
// downcast (simfs-downcast is scoped to src/ outside src/fs/sim/).
#include "fs/sim/simfs.h"

namespace sion::fs {

SimFs* as_sim(FileSystem& fs) { return dynamic_cast<SimFs*>(&fs); }

}  // namespace sion::fs
