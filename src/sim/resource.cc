#include "src/sim/resource.h"

namespace sim {

void Resource::Release() {
  if (!waiters_.empty()) {
    // Hand the permit directly to the queue head; availability is unchanged
    // (the permit never becomes free). The waiter resumes at this instant,
    // after any events already scheduled for it.
    Waiter next = waiters_.front();
    waiters_.pop_front();
    total_wait_ += engine_.now() - next.enqueued_at;
    ++total_acquisitions_;
    engine_.ResumeAt(engine_.now(), next.handle);
    return;
  }
  AccumulateBusy();
  ++available_;
}

Task<void> Resource::UseContended(Time service) {
  co_await Acquire();
  co_await engine_.Sleep(service);
  Release();
}

}  // namespace sim
