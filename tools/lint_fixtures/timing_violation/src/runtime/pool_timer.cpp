// Fixture: wall-clock in a runtime file.  The runtime wall-clock-only pass
// must flag this.
#include <chrono>

namespace fixture {

long long pool_heartbeat() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

}  // namespace fixture
