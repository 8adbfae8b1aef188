#include "exec/snapshot.h"

namespace erbium {
namespace exec {

constinit thread_local ReadSnapshot* ReadSnapshot::tls_current_ = nullptr;

}  // namespace exec
}  // namespace erbium
