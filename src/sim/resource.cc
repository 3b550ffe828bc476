#include "src/sim/resource.h"

namespace sim {

void Resource::Release() {
  if (!waiters_.empty()) {
    // Hand the permit directly to the queue head; availability is unchanged
    // (the permit never becomes free). The waiter resumes at this instant,
    // after any events already scheduled for it.
    const Waiter next = waiters_.pop_front();
    total_wait_ += engine_.now() - next.enqueued_at;
    ++total_acquisitions_;
    if (next.use != nullptr) {
      engine_.ResumeAt(engine_.now(), next.use);
    } else {
      engine_.ResumeAt(engine_.now(), next.handle);
    }
    return;
  }
  AccumulateBusy();
  ++available_;
}

}  // namespace sim
